"""Differential oracles for the decision layer: the odd girth and the BFS
2-coloring checked against networkx, and the odd-walk witness against a
search from every root, on random small graphs, on graphs of odd cycles and
on every family quotient at levels <= 4; the 2-coloring search against the
homomorphism search into K_2, the homomorphism search against brute force
over all maps, and the cycle spectrum against networkx's simple cycles."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.colorings import search_coloring
from clopen.families import FiniteGraph, ka_graph, parse_family
from clopen.homs import cycle_spectrum, hom_exists
from clopen.quotients import (
    _bfs_two_color,
    _odd_walk_from,
    from_finite_graph,
    odd_closed_walk,
    quotient,
)
from test_families import ALL_FAMILY_SPECS


def nx_graph(q):
    G = nx.Graph()
    G.add_nodes_from(q.vertices)
    G.add_edges_from(q.undirected().edges)
    return G


def double_cover_odd_girth(G):
    """Shortest (v, 0) -> (v, 1) path over all v in the bipartite double
    cover, or None when no such path exists."""
    D = nx.Graph()
    D.add_nodes_from((v, s) for v in G for s in (0, 1))
    D.add_edges_from(((u, s), (v, 1 - s)) for (u, v) in G.edges for s in (0, 1))
    lengths = [nx.shortest_path_length(D, (v, 0), (v, 1))
               for v in G if nx.has_path(D, (v, 0), (v, 1))]
    return min(lengths, default=None)


def all_roots_odd_walk(q):
    """Oracle: the odd-walk witness by a double-cover search from every root
    of every non-bipartite component, each cut off at the best length so
    far, so that the first root of the minimum length wins; the self-loop at
    the first looped vertex comes first."""
    q = q.undirected()
    edge_set = set(q.edges)
    for v in q.vertices:
        if (v, v) in edge_set:
            return [v, v]
    adj, _, odd = _bfs_two_color(q)
    best = None
    limit = 2 * len(adj)
    for root in range(len(adj)):
        if odd[root]:
            walk = _odd_walk_from(adj, root, limit)
            if walk is not None:
                best, limit = walk, len(walk) - 1
    return None if best is None else [q.vertices[i] for i in best]


def check_against_oracles(q):
    G = nx_graph(q)
    w = odd_closed_walk(q)
    assert (None if w is None else w.length) == double_cover_odd_girth(G)
    assert (None if w is None else w.vertices) == all_roots_odd_walk(q)
    adj, colors, odd = _bfs_two_color(q.undirected())
    assert any(odd) == (not nx.is_bipartite(G))
    index = {v: i for i, v in enumerate(q.vertices)}
    for comp in nx.connected_components(G):
        ids = [index[v] for v in comp]
        assert {odd[i] for i in ids} == {not nx.is_bipartite(G.subgraph(comp))}
        if not odd[ids[0]]:
            assert all(colors[index[u]] != colors[index[v]]
                       for (u, v) in G.subgraph(comp).edges)
    assert all(nbrs == sorted(set(nbrs)) for nbrs in adj)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return FiniteGraph(list(range(n)), edges, directed=draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_random_graphs_against_networkx(G):
    check_against_oracles(from_finite_graph(G))


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_family_quotients_against_networkx(spec):
    g = parse_family(spec)
    for n in (1, 2, 3, 4):
        check_against_oracles(quotient(g, n))


@st.composite
def odd_cycle_graphs(draw):
    """Undirected graphs made of odd cycles (sometimes two of one length, for
    the tie-break), random chords (which may join cycles or make self-loops),
    pendant trees and now and then a self-loop, with the vertex ids permuted
    so that the alphabet order does not follow the construction."""
    lengths = draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=1, max_size=3))
    if draw(st.booleans()):
        lengths.append(lengths[0])
    edges, n = [], 0
    for length in lengths:
        edges += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    for _ in range(draw(st.integers(0, 3))):  # chords
        edges.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    for _ in range(draw(st.integers(0, 6))):  # pendant trees
        edges.append((n, draw(st.integers(0, n - 1))))
        n += 1
    if draw(st.integers(0, 4)) == 0:
        v = draw(st.integers(0, n - 1))
        edges.append((v, v))
    perm = draw(st.permutations(range(n)))
    return FiniteGraph(range(n), [(perm[u], perm[v]) for (u, v) in edges])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(odd_cycle_graphs())
def test_odd_cycle_graphs_against_oracles(G):
    check_against_oracles(from_finite_graph(G))


K2 = FiniteGraph(range(2), [(1, 0)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=10), st.booleans())
def test_two_coloring_search_against_hom_exists(G, bipartite):
    if bipartite:  # keep only the edges across a fixed cut: most graphs then 2-color
        G = FiniteGraph(G.vertices, [(u, v) for (u, v) in G.edges if (u + v) % 2],
                        directed=G.directed)
    q = from_finite_graph(G)
    w = hom_exists(q.undirected(), K2)
    c = search_coloring(q, 2)
    assert (None if c is None else c.mapping) == (None if w is None else w.mapping)


def brute_force_hom(G, H, injective):
    """Oracle: the first map V(G) -> V(H) sending every edge to an edge,
    with the source vertices ordered by descending out-degree, then list
    position, and the images compared in target list order; None when there
    is none."""
    outdeg = {x: len({v for (u, v) in G.edges if u == x}) for x in G.vertices}
    order = sorted(G.vertices, key=lambda x: (-outdeg[x], G.vertices.index(x)))
    for images in itertools.product(H.vertices, repeat=len(order)):
        if injective and len(set(images)) < len(images):
            continue
        m = dict(zip(order, images))
        if all((m[u], m[v]) in H.edges for (u, v) in G.edges):
            return m
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=6), small_graphs(max_n=6), st.booleans())
def test_hom_exists_against_brute_force(G, H, injective):
    # the search must find exactly the first solution, not just some solution
    w = hom_exists(G, H, injective=injective)
    assert (None if w is None else w.mapping) == brute_force_hom(G, H, injective)
    if w is not None:
        assert w.check(G, H)


def nx_spectrum(G, max_len):
    """Oracle: lengths >= 3 of the simple cycles of the underlying undirected
    graph, up to max_len."""
    U = nx.Graph()
    U.add_nodes_from(G.vertices)
    U.add_edges_from(G.edges)
    return {len(c) for c in nx.simple_cycles(U, length_bound=max_len) if len(c) >= 3}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=8), st.integers(min_value=1, max_value=9))
def test_cycle_spectrum_against_networkx(G, max_len):
    assert cycle_spectrum(G, max_len) == nx_spectrum(G, max_len)


@pytest.mark.parametrize("A", [A for r in range(4) for A in itertools.combinations(range(3), r)],
                         ids=lambda A: "A=" + ",".join(map(str, A)))
def test_ka_core_spectra_against_networkx(A):
    core = ka_graph(list(A)).finite_core()
    for max_len in (3, 8, 40):
        assert cycle_spectrum(core, max_len) == nx_spectrum(core, max_len)
