"""Differential oracles for the decision layer: the odd girth and the BFS
2-coloring checked against networkx on random small graphs and on every
family quotient at levels <= 4, and the homomorphism search against brute
force over all maps."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.families import FiniteGraph, parse_family
from clopen.homs import hom_exists
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
    """Oracle: some map V(G) -> V(H) sends every edge to an edge."""
    for images in itertools.product(H.vertices, repeat=len(G.vertices)):
        if injective and len(set(images)) < len(images):
            continue
        m = dict(zip(G.vertices, images))
        if all((m[u], m[v]) in H.edges for (u, v) in G.edges):
            return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=6), small_graphs(max_n=6), st.booleans())
def test_hom_exists_against_brute_force(G, H, injective):
    w = hom_exists(G, H, injective=injective)
    assert (w is not None) == brute_force_hom(G, H, injective)
    if w is not None:
        assert w.check(G, H)
