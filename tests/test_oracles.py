"""Differential oracles for the decision layer: the odd girth and the BFS
2-coloring checked against networkx on random small graphs and on every
family quotient at levels <= 4, the homomorphism search against brute
force over all maps, and the cycle spectrum against networkx's simple
cycles."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.families import FiniteGraph, ka_graph, parse_family
from clopen.homs import cycle_spectrum, hom_exists
from clopen.quotients import _bfs_two_color, from_finite_graph, odd_girth, quotient
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


def check_against_networkx(q):
    G = nx_graph(q)
    assert odd_girth(q) == double_cover_odd_girth(G)
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
    check_against_networkx(from_finite_graph(G))


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_family_quotients_against_networkx(spec):
    g = parse_family(spec)
    for n in (1, 2, 3, 4):
        check_against_networkx(quotient(g, n))


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
