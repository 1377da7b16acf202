"""Quotient graphs and the odd-closed-walk decision: witnesses checked
mechanically, absence certified against a brute-force walk enumerator."""

import itertools

import pytest

from clopen.colorings import verify_coloring
from clopen.families import parse_family
from clopen.quotients import (
    Bipartite,
    OddWalk,
    decide_level,
    odd_closed_walk,
    quotient,
    scan,
    to_dot,
)
from clopen.words import Alphabet

FAMILIES = [
    "gm",
    "gdelta:delta=(1)^inf",
    "go-plus:d=2,(3)^inf",
    "graph-o:d=(3)^inf",
    "graph-o:d=3,4,(3)^inf",
    "t",
    "k0",
    "gp:d=2,(3)^inf,p=1",
    "orbit:d=(3)^inf,S=sa{0}",
    "ka:A=0",
]


def brute_force_shortest_odd_walk(q):
    """Oracle: boolean adjacency powers; the first odd power with a diagonal
    hit is the shortest odd closed walk length."""
    q = q.undirected()
    verts = list(q.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [[False] * n for _ in range(n)]
    for (u, v) in q.edges:
        adj[idx[u]][idx[v]] = True
        adj[idx[v]][idx[u]] = True
    power = [row[:] for row in adj]
    for length in range(1, 2 * n + 2):
        if length % 2 == 1 and any(power[i][i] for i in range(n)):
            return length
        power = [
            [any(power[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


def test_quotient_examples():
    q = quotient(parse_family("go-plus:d=2,(3)^inf"), 1)
    assert {(("c",), ("0",)), (("0",), ("1",)), (("1",), ("c",))} <= set(q.edges)
    q = quotient(parse_family("graph-o:d=(3)^inf"), 1)
    assert set(q.edges) == {
        (("0",), ("1",)),
        (("1",), ("2",)),
        (("2",), ("0",)),
        (("1",), ("0",)),
        (("2",), ("1",)),
        (("0",), ("2",)),
    }
    q = quotient(parse_family("gm"), 1)
    assert (("0",), ("0",)) in set(q.edges)


def test_walk_on_triangle_and_square():
    from clopen.families import finite_graph

    tri = finite_graph(
        [("0",), ("1",), ("2",)],
        [(("0",), ("1",)), (("1",), ("0",)), (("1",), ("2",)),
         (("2",), ("1",)), (("2",), ("0",)), (("0",), ("2",))],
    )
    w = odd_closed_walk(tri)
    assert w is not None and w.length == 3 and w.vertices[0] == w.vertices[-1]
    square_edges = []
    for i in range(4):
        square_edges += [((str(i),), (str((i + 1) % 4),)),
                         ((str((i + 1) % 4),), (str(i),))]
    sq = finite_graph([(str(i),) for i in range(4)], square_edges)
    assert odd_closed_walk(sq) is None


def test_self_loop_gives_length_one():
    q = quotient(parse_family("gm"), 1)
    w = odd_closed_walk(q)
    assert w is not None and w.length == 1
    assert w.vertices[0] == w.vertices[1]


@pytest.mark.parametrize("spec", FAMILIES)
def test_witnesses_are_walks_and_shortest(spec):
    g = parse_family(spec)
    for n in (1, 2, 3):
        q = quotient(g, n).undirected()
        edge_set = set(q.edges)
        w = odd_closed_walk(q)
        if w is None:
            continue
        assert w.vertices[0] == w.vertices[-1] and w.length % 2 == 1
        for i in range(w.length):
            assert (w.vertices[i], w.vertices[i + 1]) in edge_set
        if len(q.vertices) <= 30:
            assert w.length == brute_force_shortest_odd_walk(q)


@pytest.mark.parametrize("spec", FAMILIES)
def test_antitone_odd_walks(spec):
    g = parse_family(spec)
    girths = []
    for n in (1, 2, 3, 4):
        w = odd_closed_walk(quotient(g, n))
        girths.append(None if w is None else w.length)
    # if a level has an odd walk then so does every lower level
    for lo, hi in itertools.combinations(range(4), 2):
        if girths[hi] is not None:
            assert girths[lo] is not None
            assert girths[lo] <= girths[hi]


@pytest.mark.parametrize("spec", FAMILIES)
def test_bipartite_pullback_verifies(spec):
    g = parse_family(spec)
    for n in (1, 2, 3):
        res = decide_level(g, n)
        if isinstance(res, Bipartite):
            for extra in (0, 5):
                check = verify_coloring(g, res.coloring, n + extra)
                assert check.ok, (spec, n, check.describe())


@pytest.mark.parametrize("spec,n,verdict", [
    ("graph-o:d=3,4,(3)^inf", 2, "bipartite"),
    ("graph-o:d=(3)^inf", 3, "odd-walk"),
])
def test_decide_level_makes_one_coloring_pass(monkeypatch, spec, n, verdict):
    # a bipartite level's 2-coloring is the walk search's own coloring pass
    import clopen.quotients as quotients

    calls = []
    bfs = quotients._bfs_two_color
    monkeypatch.setattr(quotients, "_bfs_two_color", lambda adj: calls.append(adj) or bfs(adj))
    assert decide_level(parse_family(spec), n).verdict == verdict
    assert len(calls) == 1


def test_an_odd_walk_level_decodes_only_its_walk(monkeypatch):
    # gm's level 8 keeps its 4,853 words as keys; its verdict decodes the 17
    # words of its walk of length 17, the root at both ends, and no other
    decoded = []
    word = Alphabet.word
    monkeypatch.setattr(Alphabet, "word", lambda ab, key: decoded.append(key) or word(ab, key))
    walk = decide_level(parse_family("gm"), 8)
    assert walk.verdict == "odd-walk" and len(walk.quotient.index()) == 4853
    assert walk.length == len(set(decoded)) == 17 and len(decoded) == 18
    assert decoded == [walk.quotient.alphabet.key(v) for v in walk.vertices]
    words = walk.quotient.vertices  # every word, decoded on this request
    assert len(decoded) == 18 + 4853 and set(walk.vertices) <= set(words)


def test_symmetrization_commutes_with_quotient():
    for spec in ("go-plus:d=2,(3)^inf", "gm", "graph-o:d=(3)^inf"):
        g, o = parse_family(spec), parse_family(spec + ":oriented")
        for n in (1, 2, 3):
            q_sym_first = quotient(g, n)
            q_sym_last = quotient(o, n).undirected()
            assert set(q_sym_first.edges) == set(q_sym_last.edges), (spec, n)


def test_scan_go_plus_all_odd():
    rep = scan(parse_family("go-plus:d=2,(3)^inf"), 4)
    assert [e["verdict"] for e in rep["levels"]] == ["odd-walk"] * 4
    assert "chi_c >= 3" in rep["headline"]


def test_scan_halts_on_bipartite():
    rep = scan(parse_family("graph-o:d=3,4,(3)^inf"), 4)
    assert [e["verdict"] for e in rep["levels"]] == ["odd-walk", "bipartite"]
    assert "chi_c <= 2" in rep["headline"]


@pytest.mark.parametrize("delta,girths", [
    ("(1)^inf", [1, 5, 7]),
    ("0(1)^inf", [1, 5, 7]),
    ("(10)^inf", [1, 7, 7]),
    ("00(1)^inf", [1, 7, 7]),
    ("(0)^inf", [None]),
])
def test_scan_gdelta_odd_girths(delta, girths):
    """Odd girth per level of gdelta through level 3; delta = (0)^inf has no
    edge, so its scan stops at level 1, bipartite."""
    rep = scan(parse_family("gdelta:delta=%s" % delta), 3)
    verdicts = ["bipartite"] if girths == [None] else ["odd-walk"] * 3
    assert [e["verdict"] for e in rep["levels"]] == verdicts
    assert [e["oddGirth"] for e in rep["levels"]] == girths


def test_scan_go_plus_odd_girths_through_level_9():
    """c02's "fails the level test at every level", through level 9: each
    level quotient has an odd closed walk, of length 3^(n-1) + 2; at level 9
    the core is chains of thousands of vertices between two branch
    vertices."""
    rep = scan(parse_family("go-plus:d=2,(3)^inf"), 9)
    assert [e["verdict"] for e in rep["levels"]] == ["odd-walk"] * 9
    assert [e["oddGirth"] for e in rep["levels"]] == [3 ** (n - 1) + 2 for n in range(1, 10)]
    assert rep["headline"].startswith("chi_c >= 3 evidence through level 9")


def test_scan_noncompact_caveat():
    rep = scan(parse_family("t"), 4)
    assert [e["verdict"] for e in rep["levels"]] == ["odd-walk"] * 4
    assert "not compact" in rep["headline"]
    rep2 = scan(parse_family("gm"), 3)
    assert "not compact" in rep2["headline"]


def test_dot_export():
    q = quotient(parse_family("graph-o:d=(3)^inf"), 1)
    dot = to_dot(q, "graph-o:d=(3)^inf")
    assert dot.startswith('graph "graph-o:d=(3)^inf level 1" {')
    assert '"0" -- "1"' in dot
    q2 = quotient(parse_family("k0"), 1)
    dot2 = to_dot(q2, "k0")
    assert '"1.1"' in dot2  # window labels carry the origin dot


def test_directed_quotient_of_oriented_family():
    g = parse_family("go-plus:d=2,(3)^inf:oriented")
    q = quotient(g, 1)
    assert q.directed
    assert (("c",), ("0",)) in set(q.edges)
    assert (("0",), ("c",)) not in set(q.edges)
    res = decide_level(g, 1)  # directed inputs are symmetrized first
    assert isinstance(res, OddWalk)


def test_t_quotients_have_odd_walks_through_the_zero_prefix():
    g = parse_family("t")
    for n in range(1, 5):
        q = quotient(g, n).undirected()
        v0 = ("0",) * n
        assert v0 in q.vertices
        # odd closed walk through v0: reachability in the double cover
        adj = {v: set() for v in q.vertices}
        for (u, v) in q.edges:
            adj[u].add(v)
            adj[v].add(u)
        from collections import deque

        dist = {(v0, 0): 0}
        queue = deque([(v0, 0)])
        while queue:
            (u, side) = queue.popleft()
            for w in adj[u]:
                if (w, 1 - side) not in dist:
                    dist[(w, 1 - side)] = dist[(u, side)] + 1
                    queue.append((w, 1 - side))
        assert (v0, 1) in dist
        assert dist[(v0, 1)] <= 2 * n + 1


def test_scan_budget_gives_partial_flagged_report():
    rep = scan(parse_family("go-plus:d=2,(3)^inf"), 4, budget_ms=0.0)
    assert rep["partial"] and "partial" in rep["headline"]
    rep_full = scan(parse_family("go-plus:d=2,(3)^inf"), 2)
    assert not rep_full["partial"]
