"""Differential oracles for the decision layer: the odd girth and the BFS
2-coloring checked against networkx, and the odd-walk witness against a
search from every root, on random small graphs, on graphs of odd cycles and
on every family quotient at levels <= 4; the odd girth, its root, the
coloring pass and the witness against the former search (one BFS per core
vertex), on those graphs, on graphs of long chains between a few branch
vertices and on every family quotient at levels <= 5, plain and oriented;
the 2-coloring search against the
component-wise BFS coloring, the homomorphism search against brute force
over all maps and against the former search in (-degree, id) order, and the
cycle spectrum against networkx's simple cycles."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.colorings import search_coloring
from clopen.families import finite_graph, ka_graph, odd_cycle, parse_family
from clopen.homs import cycle_spectrum, hom_exists
from clopen.quotients import _bfs_two_color, odd_closed_walk, odd_girth_root, quotient
from test_families import ALL_FAMILY_SPECS


def adjacency(vertices, edges):
    """Oracle: the integer index of a finite graph, built apart from
    ``QuotientGraph.index``: ``adj[i]`` lists the ids of the out-neighbours
    of ``vertices[i]``, ascending and without repeats."""
    ids = {v: i for i, v in enumerate(vertices)}
    nbrs = [set() for _ in ids]
    for (u, v) in edges:
        nbrs[ids[u]].add(ids[v])
    return [sorted(s) for s in nbrs]


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


def former_odd_walk_from(adj, root, limit):
    """Oracle: vertex ids of the shortest odd closed walk at `root` if it is
    shorter than `limit`, else None, by the former double-cover BFS, node
    ``2 * vertex + side``, from (root, 0) depth by depth; each node keeps the
    parent that discovered it first, and the search stops on discovering
    (root, 1) or before depth `limit`."""
    start, target = 2 * root, 2 * root + 1
    par = {start: None}
    frontier = [start]
    depth = 1
    while frontier and depth < limit:
        nxt = []
        for x in frontier:
            side = (x & 1) ^ 1
            for v in adj[x >> 1]:
                y = 2 * v + side
                if y not in par:
                    par[y] = x
                    if y == target:
                        path = []
                        while y is not None:
                            path.append(y >> 1)
                            y = par[y]
                        return path[::-1]
                    nxt.append(y)
        frontier = nxt
        depth += 1
    return None


def former_odd_length_from(adj, core, root, limit):
    """Oracle: the length of the shortest odd closed walk at `root` if it is
    shorter than `limit`, else None, by an ordinary BFS over the `core`
    vertices: 2d + 1 for the first depth d with an edge between two vertices
    at depth d."""
    depth = {root: 0}
    frontier = [root]
    d = 0
    while frontier and 2 * d + 1 < limit:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                dv = depth.get(v)
                if dv is None:
                    if core[v]:
                        depth[v] = d + 1
                        nxt.append(v)
                elif dv == d:
                    return 2 * d + 1
        frontier = nxt
        d += 1
    return None


def former_odd_girth_root(adj, colors=None):
    """Oracle: the former ``odd_girth_root``, which after the self-loop
    check, the coloring pass, the peel to the 2-core and the closed form for
    cycle components runs ``former_odd_length_from`` from every other core
    vertex in id order, cut off at the best length so far (Itai and Rodeh)."""
    for v, nbrs in enumerate(adj):
        if v in nbrs:
            return 1, v
    bfs_colors, odd = _bfs_two_color(adj)
    if colors is not None:
        colors[:] = bfs_colors
    deg = [len(a) if o else 0 for a, o in zip(adj, odd)]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    for v in leaves:  # appended to while walked
        deg[v] = 0
        for u in adj[v]:
            if deg[u] > 0:  # not peeled yet
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)
    core = [d >= 2 for d in deg]
    best, root = 2 * len(adj), None  # above every odd closed walk
    roots = []  # core vertices outside the cycle components
    seen = [False] * len(adj)
    for seed in range(len(adj)):
        if not core[seed] or seen[seed]:
            continue
        seen[seed] = True
        component = [seed]
        for u in component:  # appended to while walked
            for v in adj[u]:
                if core[v] and not seen[v]:
                    seen[v] = True
                    component.append(v)
        if any(deg[u] != 2 for u in component):
            roots += component
        elif len(component) < best:  # seeds ascend: ties keep the first
            best, root = len(component), seed
    for v in sorted(roots):
        # a later root must be strictly shorter, an earlier one may tie
        length = former_odd_length_from(adj, core, v, best + (root is not None and v < root))
        if length is not None:
            best, root = length, v
    return None if root is None else (best, root)


def all_roots_odd_walk(q):
    """Oracle: the odd-walk witness by a double-cover search from every root,
    each cut off at the best length so far, so that the first root of the
    minimum length wins; the self-loop at the first looped vertex comes
    first."""
    q = q.undirected()
    edge_set = set(q.edges)
    for v in q.vertices:
        if (v, v) in edge_set:
            return [v, v]
    adj = adjacency(q.vertices, q.edges)
    best = None
    limit = 2 * len(adj)
    for root in range(len(adj)):
        walk = former_odd_walk_from(adj, root, limit)
        if walk is not None:
            best, limit = walk, len(walk) - 1
    return None if best is None else [q.vertices[i] for i in best]


def check_against_former_search(q):
    """The odd girth, its root, the coloring pass and the witness are the
    former search's."""
    q = q.undirected()
    adj = q.index()
    colors, former_colors = [], []
    found = odd_girth_root(adj, colors)
    assert found == former_odd_girth_root(adj, former_colors)
    assert colors == former_colors
    w = odd_closed_walk(q)
    if found is None:
        assert w is None
    else:
        length, root = found
        assert w.vertices == [q.vertex(i) for i in former_odd_walk_from(adj, root, length + 1)]


def check_against_oracles(q):
    check_against_former_search(q)
    G = nx_graph(q)
    w = odd_closed_walk(q)
    assert (None if w is None else w.length) == double_cover_odd_girth(G)
    assert (None if w is None else w.vertices) == all_roots_odd_walk(q)
    adj = adjacency(q.vertices, q.undirected().edges)
    # appended in edge order, never sorted; the rows compared as tuples, which
    # a quotient's are (a finite graph's are lists)
    assert list(map(tuple, q.undirected().index())) == list(map(tuple, adj))
    colors, odd = _bfs_two_color(adj)
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
    return finite_graph(list(range(n)), edges, directed=draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_random_graphs_against_networkx(G):
    check_against_oracles(G)


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
    return finite_graph(range(n), [(perm[u], perm[v]) for (u, v) in edges])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(odd_cycle_graphs())
def test_odd_cycle_graphs_against_oracles(G):
    check_against_oracles(G)


@st.composite
def chain_graphs(draw):
    """Undirected graphs whose 2-cores are long chains between a few branch
    vertices: cycles glued at one vertex (a chain that returns to its own
    end), subdivided theta graphs (several chains between two ends) and
    plain cycles, sometimes the first chain again as a cycle on a new end
    (for the tie-break), with pendant trees, now and then a self-loop, and
    the vertex ids permuted so that the alphabet order does not follow the
    construction."""
    ends = draw(st.integers(1, 4))
    chains = [(a, b, draw(st.integers(0 if a != b else 1, 11)))  # no self-loop here
              for a, b in draw(st.lists(st.tuples(st.integers(0, ends - 1),
                                                  st.integers(0, ends - 1)),
                                        min_size=1, max_size=6))]
    if draw(st.booleans()):
        chains.append((ends, ends, max(chains[0][2], 1)))
        ends += 1
    edges, n = [], ends
    for a, b, inner in chains:
        path = [a] + list(range(n, n + inner)) + [b]
        n += inner
        edges += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 4))):  # pendant trees
        edges.append((n, draw(st.integers(0, n - 1))))
        n += 1
    if draw(st.integers(0, 7)) == 7:
        v = draw(st.integers(0, n - 1))
        edges.append((v, v))
    perm = draw(st.permutations(range(n)))
    return finite_graph(range(n), [(perm[u], perm[v]) for (u, v) in edges])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(chain_graphs())
def test_chain_graphs_against_oracles(G):
    check_against_oracles(G)


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS + [s + ":oriented" for s in ALL_FAMILY_SPECS])
def test_family_quotients_against_former_search(spec):
    g = parse_family(spec)
    for n in range(6):
        check_against_former_search(quotient(g, n))


def first_two_coloring(q):
    """Oracle: the first 2-coloring of the undirected `q` in the search's
    order, or None when `q` is not bipartite.  Each component's first vertex
    in the order (-degree, id) gets color 0, which forces the rest: the
    component's BFS coloring, flipped where that vertex has color 1."""
    adj = adjacency(q.vertices, q.edges)
    colors, odd = _bfs_two_color(adj)
    if any(odd):
        return None
    first = [-1] * len(adj)
    for seed in sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v)):
        if first[seed] < 0:
            flip = colors[seed]
            first[seed] = 0
            component = [seed]
            for u in component:  # appended to while walked
                for v in adj[u]:
                    if first[v] < 0:
                        first[v] = colors[v] ^ flip
                        component.append(v)
    return dict(zip(q.vertices, first))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=10), st.booleans())
def test_two_coloring_search_against_bfs_coloring(G, bipartite):
    if bipartite:  # keep only the edges across a fixed cut: most graphs then 2-color
        G = finite_graph(G.vertices, [(u, v) for (u, v) in G.edges if (u + v) % 2],
                         directed=G.directed)
    c = search_coloring(G, 2)
    assert (None if c is None else c.mapping) == first_two_coloring(G.undirected())


def dfs_order(G):
    """The source order of the homomorphism search, by list position:
    recursive depth-first preorder over the underlying undirected graph,
    seeds by descending out-degree, then position, neighbours by ascending
    position."""
    pos = {x: i for i, x in enumerate(G.vertices)}
    nbrs = {x: set() for x in G.vertices}
    for (u, v) in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    outdeg = {x: len({v for (u, v) in G.edges if u == x}) for x in G.vertices}
    order = []

    def visit(u):
        order.append(u)
        for v in sorted(nbrs[u], key=pos.get):
            if v not in order:
                visit(v)

    for seed in sorted(G.vertices, key=lambda x: (-outdeg[x], pos[x])):
        if seed not in order:
            visit(seed)
    return order


def is_hom(mapping, G, H, injective=False):
    """Oracle: whether `mapping` sends G's vertices into H's, one to one if
    `injective`, and every edge of G to an edge of H."""
    if set(mapping) != set(G.vertices):
        return False
    if injective and len(set(mapping.values())) != len(mapping):
        return False
    edges = set(H.edges)
    return all((mapping[u], mapping[v]) in edges for (u, v) in G.edges)


def brute_force_hom(G, H, injective):
    """Oracle: the first map V(G) -> V(H) sending every edge to an edge,
    with the source vertices in ``dfs_order`` and the images compared in
    target list order; None when there is none."""
    order = dfs_order(G)
    h_edges = set(H.edges)
    for images in itertools.product(H.vertices, repeat=len(order)):
        if injective and len(set(images)) < len(images):
            continue
        m = dict(zip(order, images))
        if all((m[u], m[v]) in h_edges for (u, v) in G.edges):
            return m
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=6), small_graphs(max_n=6), st.booleans())
def test_hom_exists_against_brute_force(G, H, injective):
    # the search must find exactly the first solution, not just some solution
    w = hom_exists(G, H, injective=injective)
    assert w == brute_force_hom(G, H, injective)
    if w is not None:
        assert is_hom(w, G, H, injective)


class OracleBudget(Exception):
    pass


def degree_order_hom(G, H, injective, budget=None):
    """Oracle: the former homomorphism search, with no absence check before
    it and the source in the order (-out-degree, id), which is not
    connected; same forward checking, trail and loop domains.  Raises
    OracleBudget after `budget` steps."""
    g_adj = adjacency(G.vertices, G.edges)
    h_adj = [set(a) for a in adjacency(H.vertices, H.edges)]
    every = list(range(len(h_adj)))
    looped = [w for w in every if w in h_adj[w]]
    domains = [looped if v in g_adj[v] else every for v in range(len(g_adj))]
    if not all(domains):
        return None
    order = sorted(range(len(g_adj)), key=lambda v: (-len(g_adj[v]), v))
    assign = [-1] * len(g_adj)
    used = set()
    trail = [[] for _ in order]
    tries = [0] * len(order)

    def place(v, img, undo):
        allowed = h_adj[img]
        for u in g_adj[v]:
            if assign[u] >= 0:
                if assign[u] not in allowed:
                    return False
            elif u != v:
                undo.append((u, domains[u]))
                domains[u] = [w for w in domains[u] if w in allowed]
                if not domains[u]:
                    return False
        return True

    depth = steps = 0
    while 0 <= depth < len(order):
        steps += 1
        if budget is not None and steps > budget:
            raise OracleBudget()
        v, undo = order[depth], trail[depth]
        for (u, dom) in undo:
            domains[u] = dom
        undo.clear()
        used.discard(assign[v])
        assign[v] = -1
        if tries[depth] == len(domains[v]):
            tries[depth] = 0
            depth -= 1
            continue
        img = domains[v][tries[depth]]
        tries[depth] += 1
        if not (injective and img in used) and place(v, img, undo):
            assign[v] = img
            used.add(img)
            depth += 1
    if depth < 0:
        return None
    return dict(zip(G.vertices, (H.vertices[w] for w in assign)))


def undirected_odd_girth(G):
    """The odd girth of an undirected graph by the networkx double cover, 1
    with a loop, None when bipartite."""
    U = nx.Graph()
    U.add_nodes_from(G.vertices)
    U.add_edges_from(G.edges)
    return double_cover_odd_girth(U)


def check_hom_against_degree_order(G, H, injective=False, budget=None):
    """Same verdict as the former search, a valid map when found, and every
    odd-girth refusal confirmed absent by the former search.  Where the
    former search runs out of `budget`, a refusal is confirmed on G's
    shortest odd cycle instead, which maps into G; returns whether the
    former search decided G -> H."""
    w = hom_exists(G, H, injective=injective)
    if w is not None:
        assert is_hom(w, G, H, injective)
    try:
        old = degree_order_hom(G, H, injective, budget)
    except OracleBudget:
        old = "undecided"
    else:
        assert (w is None) == (old is None)
    if not (G.directed or H.directed):
        og, oh = undirected_odd_girth(G), undirected_odd_girth(H)
        if og is not None and (oh is None or oh > og):
            assert w is None
            if old == "undecided":
                cycle = finite_graph(range(og), [(i, (i + 1) % og) for i in range(og)])
                assert degree_order_hom(cycle, H, injective) is None
            else:
                assert old is None
    return old != "undecided"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_n=8), small_graphs(max_n=8), st.booleans())
def test_hom_exists_against_degree_order_search(G, H, injective):
    check_hom_against_degree_order(G, H, injective)


def test_hom_exists_against_degree_order_search_on_odd_cycles():
    for p in range(6):
        for q in range(6):
            check_hom_against_degree_order(odd_cycle(p), odd_cycle(q))
            check_hom_against_degree_order(odd_cycle(p), odd_cycle(q), injective=True)


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_hom_exists_against_degree_order_search_on_quotients(spec):
    g = parse_family(spec)
    qs = [quotient(g, n) for n in (1, 2, 3)]
    decided = 0
    for G in qs:
        for H in qs:
            # a level-3 quotient onto itself is left out: on graph-o's
            # 27-cycle and on ka's, neither search finishes in seconds
            if G is not H or G.level < 3:
                decided += check_hom_against_degree_order(G, H, budget=10**5)
    assert decided >= 6


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
