"""Family constructors: clause-level examples, saturation stability,
projection coherence, degree bounds and swap closure."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from clopen.cli import _point_str
from clopen.dynamics import odometer_iter, parse_radix
from clopen.families import (
    FamilyError,
    edges_at_level,
    finite_graph,
    first_edges,
    gdelta,
    gm,
    go_graph,
    go_plus,
    gp_chain,
    graph_from_system,
    k0_graph,
    ka_graph,
    odd_cycle,
    parse_family,
    parse_index_set,
    rank_subshift,
    restricted_orbit_graph,
    sturmian_block_system,
    t_graph,
)
from clopen.quotients import quotient
from clopen.words import UltWord, format_ult, format_word, parse_ult

from test_words import prefix


ALL_FAMILY_SPECS = [
    "gm",
    "gdelta:delta=(1)^inf",
    "gdelta:delta=0(1)^inf",
    "go-plus:d=2,(3)^inf",
    "graph-o:d=(3)^inf",
    "graph-o:d=3,4,(3)^inf",
    "t",
    "k0",
    "rank-subshift:n=1",
    "gp:d=2,(3)^inf,p=0",
    "gp:d=2,(3)^inf,p=1",
    "orbit:d=(3)^inf,S=sa{0}",
    "ka:A=0,1",
    "sturmian:r=(3 - 1 sqrt 5)/2",
]


def pairs(g, n, bound=None):
    return set(edges_at_level(g, n, bound=bound).pairs)


def edge_points(stream):
    """The points (x, y) of each edge of a `generate` stream."""
    return [points() for (_, _, points) in stream]


def test_odd_cycle():
    tri = odd_cycle(0)
    assert len(tri.vertices) == 3 and tri.edge_count() == 3
    c5 = odd_cycle(1)
    assert len(c5.vertices) == 5 and c5.edge_count() == 5
    with pytest.raises(FamilyError):
        odd_cycle(-1)


def test_finite_graph_normalises():
    # first-seen vertex order; distinct edges sorted by vertex id, an
    # undirected one stored both ways and a loop once
    G = finite_graph(["b", "a", "b", "c"], [("a", "b"), ("c", "c"), ("b", "a"), ("a", "c")])
    assert G.vertices == ["b", "a", "c"] and not G.directed
    assert G.edges == [("b", "a"), ("a", "b"), ("a", "c"), ("c", "a"), ("c", "c")]
    assert list(map(list, G.index())) == [[1], [0, 2], [1, 2]] and G.edge_count() == 3
    assert [G.label(v) for v in G.vertices] == ["b", "a", "c"]
    D = finite_graph(["b", "a", "c"], [("a", "c"), ("c", "c"), ("a", "b"), ("a", "c")],
                     directed=True)
    assert D.edges == [("a", "b"), ("a", "c"), ("c", "c")] and D.edge_count() == 3
    U = D.undirected()
    assert (U.vertices, U.edges, U.directed) == (G.vertices, G.edges, False)
    with pytest.raises(FamilyError):
        finite_graph(["a"], [("a", "b")])


def test_gm_clause_instances():
    g = gm()
    lev = edges_at_level(g, 1)
    ps = set(lev.pairs)
    assert (("c",), ("0",)) in ps
    rep = first_edges(g, 1, lev.pairs)[("c",), ("0",)]
    assert format_ult(rep[0]) == "c,a,(abar)^inf"
    assert format_ult(rep[1]) == "0,0,(abar)^inf"
    # second-clause instances live inside a level: first letters agree
    assert (("0",), ("0",)) in ps  # the level-0 block self-loop at level 1
    # the second clause keeps the index below the level width
    edges = edge_points(g.generate(4))
    for (x, y) in edges:
        if x.letter(0) not in ("c",):
            k = int(x.letter(0))
            second = x.letter(1)
            if second.isdigit():
                assert int(second) <= 2 * k + 1
    # instance k=1, i=1: (1 1 a^inf, 1 2 abar^inf)
    want = (UltWord(("1", "1"), ("a",)), UltWord(("1", "2"), ("abar",)))
    assert want in [tuple(e) for e in edges]


def test_gm_swap_closure():
    g = gm()
    for n in (1, 2):
        ps = pairs(g, n)
        assert {(t, s) for (s, t) in ps} == ps


def test_gdelta_blocks_follow_delta():
    g1 = gdelta(parse_ult("(1)^inf"))
    ps = pairs(g1, 3)
    assert (("c", "0", "0"), ("0", "0", "0")) in ps
    g0 = gdelta(parse_ult("(0)^inf"))
    assert len(pairs(g0, 2)) == 0
    gmix = gdelta(parse_ult("0(1)^inf"))
    # no edge endpoint begins with the letter 0 when block 0 is absent
    lev = edges_at_level(gmix, 1)
    firsts = {s[0] for (s, t) in lev.pairs} | {t[0] for (s, t) in lev.pairs}
    assert "0" not in firsts and "1" in firsts


def test_go_plus_level1_is_triangle():
    g = go_plus(parse_radix("2,(3)^inf"))
    assert pairs(g, 1) == {
        (("c",), ("0",)),
        (("0",), ("1",)),
        (("1",), ("c",)),
        (("0",), ("c",)),
        (("1",), ("0",)),
        (("c",), ("1",)),
    }


def test_go_plus_rejects_wrong_radix():
    with pytest.raises(FamilyError):
        go_plus(parse_radix("(3)^inf"))


def test_go_plus_degree_at_most_one():
    for spec in ("go-plus:d=2,(3)^inf", "gm", "gdelta:delta=(1)^inf"):
        g = parse_family(spec)
        for bound in (3, 5):
            seen = {}
            for (x, y) in edge_points(g.generate(bound)):
                for p in (x, y):
                    key = (p.head, p.cycle)
                    seen[key] = seen.get(key, 0) + 1
            assert max(seen.values()) == 1, spec


def test_go_plus_blocks_alternate_first_letter():
    g = go_plus(parse_radix("2,(3)^inf"))
    for l in range(4):
        for i in range(g.system.width(l)):
            assert g.system.block(l, i)[0] == str(i % 2)


def test_sturmian_block_graph():
    sys = sturmian_block_system("(3 - 1 sqrt 5)/2")
    g = graph_from_system(sys, spec="gf-sturmian")
    lev = edges_at_level(g, 1)
    assert len(lev.pairs) > 0
    # blocks are the coded windows, of the declared width
    assert len(sys.block(3, 0)) == 4
    assert sys.width(3) == 8
    # pinned from coding each block on its own: slices of the shared code
    # buffer must give the same edges
    lev = edges_at_level(g, 2)
    assert [(format_word(s, lev.alphabet), format_word(t, lev.alphabet))
            for (s, t) in lev.pairs] == [
        ("0,1", "1,0"), ("0,1", "1,1"), ("0,1", "c,c"), ("0,a", "1,abar"),
        ("0,abar", "c,a"), ("1,0", "0,1"), ("1,0", "1,1"), ("1,0", "c,c"),
        ("1,1", "0,1"), ("1,1", "1,0"), ("1,1", "c,c"), ("1,a", "c,abar"),
        ("1,abar", "0,a"), ("c,c", "0,1"), ("c,c", "1,0"), ("c,c", "1,1"),
        ("c,a", "0,abar"), ("c,abar", "1,a"),
    ]


def test_graph_o_level_quotients_are_odometer_cycles():
    g = go_graph(parse_radix("(3)^inf"))
    assert pairs(g, 1) == {
        (("0",), ("1",)),
        (("1",), ("2",)),
        (("2",), ("0",)),
        (("1",), ("0",)),
        (("2",), ("1",)),
        (("0",), ("2",)),
    }
    lev2 = pairs(g, 2)
    assert len(lev2) == 18  # a symmetrized 9-cycle


def test_t_graph_clauses():
    g = t_graph()
    edges = edge_points(g.generate(3))
    assert (UltWord(("0",), ("1",)), UltWord(("2",), ("0",))) in edges
    assert (UltWord(("2", "0"), ("1",)), UltWord(("2", "1"), ("0",))) in edges
    assert not g.compact


def test_k0_edge_between_the_periodic_points():
    g = k0_graph()
    from clopen.words import parse_bi

    a0 = parse_bi("(01)^inf.(01)^inf")
    a1 = parse_bi("(10)^inf.(10)^inf")
    gen = edge_points(g.generate(4))
    assert any(x == a0 and y == a1 for (x, y) in gen)


def test_rank_subshift_alpha1_matches_closed_form():
    from clopen.subshift_lang import rank_point_alpha, rank_point_beta
    from clopen.words import parse_bi

    a1 = rank_point_alpha(1)
    assert a1 == parse_bi("(01)^inf.11(01)^inf")
    b0 = rank_point_beta(0)
    assert b0 == parse_bi("(01)^inf.1(01)^inf")
    from clopen.dynamics import periodic_point_period

    assert periodic_point_period(b0) is None


def test_rank_subshift_block_words():
    from clopen.subshift_lang import rank_block

    assert rank_block(0, 5) == ("0", "1")
    assert rank_block(1, 0) == ("1", "1")
    # level-1 block 1 = 01 11 01 01
    assert rank_block(1, 1) == tuple("01110101")
    # blocks start and end with the alternating pattern of their index
    for j in (2, 3):
        w = rank_block(1, j)
        assert w[: 2 * j] == ("0", "1") * j


def test_gp_chain_edges_decrease_with_p():
    d = parse_radix("2,(3)^inf")
    g0, g1 = gp_chain(d, 0), gp_chain(d, 1)
    e0 = {(x.head, x.cycle, y.head, y.cycle) for (x, y) in edge_points(g0.generate(5))}
    e1 = {(x.head, x.cycle, y.head, y.cycle) for (x, y) in edge_points(g1.generate(4))}
    assert e1 <= e0


def test_gp_closure_cycle_projects_to_triangle():
    d = parse_radix("2,(3)^inf")
    ps = pairs(gp_chain(d, 0), 1)
    assert {(("c",), ("0",)), (("0",), ("1",)), (("1",), ("c",))} <= ps


def test_orbit_graph_examples():
    d = parse_radix("(3)^inf")
    g = restricted_orbit_graph(d, parse_index_set("{0}"))
    lev = edges_at_level(g, 1)
    assert set(lev.pairs) == {(("0",), ("1",)), (("1",), ("0",))}
    g2 = restricted_orbit_graph(d, parse_index_set("sa{0}"))
    ps2 = pairs(g2, 2)
    # contains the edge from the 9th to the 10th iterate: prefixes 00 and 10
    assert (("0", "0"), ("1", "0")) in ps2
    assert format_ult(odometer_iter(d, d.zero(), 9)) == "001(0)^inf"


def test_orbit_density_proxy():
    d = parse_radix("(3)^inf")
    g = restricted_orbit_graph(d, parse_index_set("sa{0+1k}"))
    lev = edges_at_level(g, 2)
    firsts = {s for (s, t) in lev.pairs}
    assert len(firsts) == 9  # every length-2 prefix occurs


def test_lazy_nodes_read_one_window_per_pass(monkeypatch):
    # the level-n pairs of a BlockWord node's 2B + 1 shifts are slices of one
    # window of its base, [-B - n, B + n + 1), read once per pass and no
    # point built
    from clopen.words import BlockWord

    g = parse_family("rank-subshift:n=2")
    B = g.saturation(3)
    lazy = sum(isinstance(node.base, BlockWord) for node in g.forest.nodes.values())
    calls = []
    window = BlockWord.window
    monkeypatch.setattr(BlockWord, "window",
                        lambda self, a, b: calls.append((a, b)) or window(self, a, b))
    monkeypatch.setattr(BlockWord, "shift", lambda self, k: pytest.fail("a point was built"))
    edges_at_level(g, 3)
    assert lazy == 2 and calls == [(-B - 3, B + 4)] * lazy


def orbit_index_member(S, i: int) -> bool:
    """Oracle: i in S, read off the description part by part; a scheme set
    holds 0 and the interval [3^(l+2), 3^(l+2) + 3^l) for each l it lists."""
    if i in S.finite:
        return True
    if any(i >= a and (i - a) % b == 0 for (a, b) in S.progressions):
        return True
    if S.scheme_levels is not None:
        if i == 0:
            return True
        l = 0
        while 3 ** (l + 2) <= i:
            if i < 3 ** (l + 2) + 3**l and orbit_index_member(S.scheme_levels, l):
                return True
            l += 1
    return False


# every index set the tests and the benchmark read, and those of the bound tests
INDEX_SETS = ["{0}", "sa{0}", "sa{0+1k}", "sa{{0}}", "1+2k|{0,9}", "{0,9}|1+2k",
              "sa{{0,2}}|{5}", "sa{{0,6}}", "sa{1+1k}"]


@pytest.mark.parametrize("text", INDEX_SETS)
def test_least_from_matches_the_membership_oracle(text):
    # each of these sets has its next element after any i < 3^8 below 3^9,
    # or none at all
    S = parse_index_set(text)
    following = [None] * (3**9 + 1)
    for i in reversed(range(3**9)):
        following[i] = i if orbit_index_member(S, i) else following[i + 1]
    assert [S.least_from(i) for i in range(3**8)] == following[: 3**8]


def test_orbit_bound_reaches_every_residue():
    # sa{{0,6}} holds 0, 9 and [3^8, 3^8 + 3^6), which meets every residue
    # mod 3: the level-1 quotient is a triangle, not the edge of 0 and 9
    g = parse_family("orbit:d=(3)^inf,S=sa{{0,6}}")
    assert g.saturation(1) == 3**8 + 3**6
    triangle = {(("0",), ("1",)), (("1",), ("2",)), (("2",), ("0",))}
    assert pairs(g, 1) == triangle | {(t, s) for (s, t) in triangle}
    # levels 1, 2, 3, ...: the first interval of 3^l >= 25 indices is l = 3
    g = parse_family("orbit:d=(5)^inf,S=sa{1+1k}")
    q = quotient(g, 2)
    assert (len(q.vertices), q.edge_count()) == (25, 25)
    assert pairs(g, 2, bound=300) == set(q.edges)


def test_orbit_walk_jumps_between_indices(monkeypatch):
    # sa{0} is {0, 9}: the walk yields indices 0 and 9 only, reads their
    # pairs off the indices' digits, and reaches a point only when asked
    import clopen.families as families

    calls = []

    def counted(d, x, i):
        calls.append(i)
        return odometer_iter(d, x, i)

    monkeypatch.setattr(families, "odometer_iter", counted)
    g = parse_family("orbit:d=(3)^inf,S=sa{0}")
    edges = [e for e in g.generate(g.saturation(1), 1)]
    assert [(s, t) for (s, t, _) in edges] == [(("0",), ("1",))] * 2 and calls == []
    assert [format_ult(x) for (x, _) in edge_points(edges)] == ["(0)^inf", "001(0)^inf"]
    assert calls == [0, 1, 9, 10]
    calls.clear()
    assert len([e for e in parse_family("graph-o:d=(3)^inf").generate(2, 2)]) == 9
    assert calls == []


def test_orbit_walk_leaves_a_scheme_interval_after_a_period():
    # sa{{0,20}} is 0, 9 and [3^22, 3^22 + 3^20).  B(3) passes that interval,
    # and the walk leaves it after P_3 = 27 consecutive indices, which hold
    # every residue mod 27: the level-3 pairs are the whole cycle's
    g = parse_family("orbit:d=(3)^inf,S=sa{{0,20}}")
    assert g.saturation(3) == 3**22 + 3**20
    assert len(g.generate(g.saturation(3), 3)) == 2 + 27
    assert pairs(g, 3) == pairs(parse_family("graph-o:d=(3)^inf"), 3)
    # sa{{0,2}} up to 100 is 0, 9 and 81..89: level 1 leaves [81, 90) after
    # P_1 = 3 indices, and a level-0 walk keeps every index
    g = parse_family("orbit:d=(3)^inf,S=sa{{0,2}}")
    assert len(g.generate(100, 1)) == 2 + 3
    assert len(g.generate(100, 0)) == 2 + 9


@pytest.mark.parametrize("spec", [s for spec in ALL_FAMILY_SPECS
                                  for s in (spec, spec + ":oriented")])
def test_level_zero_walks_every_clause(spec):
    # a predicate sweep reads the level-0 stream, so no family cuts it: at
    # bounds 0-5 it yields the edges of a level-40 walk, which no cut reaches
    g = parse_family(spec)
    for bound in range(6):
        printed = [[list(map(_point_str, points())) for (_, _, points) in g.generate(bound, n)]
                   for n in (0, 40)]
        assert printed[0] == printed[1], (spec, bound)


@pytest.mark.parametrize("spec", ["graph-o:d=(3)^inf", "gp:d=2,(3)^inf,p=1"])
def test_level_pairs_build_no_point(monkeypatch, spec):
    # odometer digits and block letters give the pairs: no iterate, no word
    import clopen.families as families

    calls = []
    monkeypatch.setattr(families, "odometer_iter", lambda *a: calls.append(a))
    monkeypatch.setattr(UltWord, "__init__", lambda *a: calls.append(a))
    lev = edges_at_level(parse_family(spec), 4)
    assert len(lev.pairs) > 0 and calls == []


@pytest.mark.parametrize("spec,words", [("gm", 4), ("gp:d=2,(3)^inf,p=1", 4),
                                        ("graph-o:d=(3)^inf", 8)])
def test_first_edges_builds_only_the_asked_points(monkeypatch, spec, words):
    # the first and last pairs, the last one found late in the stream: two
    # points each, and an odometer iterate also builds the zero word
    g = parse_family(spec)
    lev = edges_at_level(g, 3)
    built = []
    init = UltWord.__init__
    monkeypatch.setattr(UltWord, "__init__",
                        lambda self, head, cycle: built.append(1) or init(self, head, cycle))
    first = first_edges(g, 3, [lev.pairs[0], lev.pairs[-1]])
    assert len(first) == 2 and len(built) == words


def test_ka_map_examples():
    g = ka_graph([0])
    gen = dict(edge_points(g.generate(3)))
    four = UltWord((), ("4",))
    assert gen[four] == UltWord(("0",), ("1",))
    assert gen[UltWord(("3", "2"), ("0",))] == four
    core = g.finite_core()
    from clopen.homs import cycle_spectrum

    assert cycle_spectrum(core, 40) == {4, 8}
    assert cycle_spectrum(ka_graph([]).finite_core(), 40) == {4}


def test_ka_preconditions():
    with pytest.raises(FamilyError):
        ka_graph([5])
    with pytest.raises(FamilyError):
        ka_graph([0, 1, 2, 3, 4])


KA_SETS = ([], [0], [1], [0, 1], [0, 2], [1, 2, 3], [0, 1, 2, 3], [4])


def ka_points_and_map(A, chain_depth):
    """Oracle: ka's edges as a dict x -> its image on canonical points,
    written out clause by clause, spine depths 0..chain_depth; the even
    cycles for a in A (sorted) are always complete."""

    def up(e):  # epsilon + 1 mod 4
        return (e + 1) % 4

    def down(e):
        return (e - 1) % 4

    pts = {}

    def w(*parts):
        head = ()
        for part in parts[:-1]:
            head += part
        return UltWord(head, parts[-1])

    # the 4-cycle of constant words
    for e in range(4):
        pts[w((), (str(e),))] = w((), (str(up(e)),))
    # the spine through the constant-4 word
    pts[w((), ("4",))] = w(("0",), ("1",))
    pts[w(("3", "2"), ("0",))] = w((), ("4",))
    for nn in range(chain_depth + 1):
        for e in range(4):
            src1 = w((str(e),) * (nn + 1) + (str(up(e)),), ("1",))
            if e != 3:
                pts[src1] = w((str(up(e)),) * (nn + 1) + (str(up(up(e))),), ("1",))
            else:
                pts[src1] = w(("0",) * (nn + 2), ("1",))
            src0 = w((str(e),) * (nn + 1) + (str(down(e)),), ("0",))
            if e != 3:
                pts[src0] = w((str(up(e)),) * (nn + 1) + (str(e),), ("0",))
            elif nn >= 1:
                # 3^{m+2} 2 0^inf -> 0^{m+1} 3 0^inf
                pts[src0] = w(("0",) * nn + ("3",), ("0",))
    # the even cycles indexed by A
    for a in A:
        strings = [tuple(format(i, "0%db" % (a + 1))) for i in range(2 ** (a + 1))]
        for idx, s in enumerate(strings):
            for e in range(4):
                src = w((str(e),) * (a + 2) + (str(up(e)),) + s, ("2",))
                if e != 3:
                    dst = w((str(up(e)),) * (a + 2) + (str(up(up(e))),) + s, ("2",))
                else:
                    nxt = strings[(idx + 1) % len(strings)]
                    dst = w(("0",) * (a + 2) + ("1",) + nxt, ("2",))
                pts[src] = dst
    return pts


def ka_core(A):
    """Oracle: the finite core, the point dict without the spine: the
    constant words and the even cycles' words, which end in 2^inf."""
    pts = ka_points_and_map(A, chain_depth=max(A, default=0) + 2)
    constants = {(str(e),) for e in range(4)}
    edges = [(format_ult(x), format_ult(y)) for (x, y) in pts.items()
             if (x.head == () and x.cycle in constants) or (x.head != () and x.cycle == ("2",))]
    return finite_graph(sorted({v for e in edges for v in e}), edges)


def _ka_spec(A):
    return "ka:A=" + ",".join(map(str, A))


@pytest.mark.parametrize("A", KA_SETS, ids=_ka_spec)
def test_ka_clauses_match_the_point_oracle(A):
    # the same edges in the same order, as points and as level pairs
    for g in (parse_family(_ka_spec(A)), parse_family(_ka_spec(A) + ":oriented")):
        for depth in range(9):
            oracle = list(ka_points_and_map(A, depth).items())
            assert edge_points(g.generate(depth)) == oracle, (g.spec, depth)
            for n in range(8):
                assert [(s, t) for (s, t, _) in g.generate(depth, n)] == [
                    (prefix(x, n), prefix(y, n)) for (x, y) in oracle], (g.spec, depth, n)
        core, old = g.finite_core(), ka_core(A)
        assert (core.vertices, list(map(tuple, core.index()))) == (
            old.vertices, list(map(tuple, old.index())))


@pytest.mark.parametrize("A", KA_SETS, ids=_ka_spec)
def test_ka_bound_is_exact(A):
    # spine depths past n - 1 only repeat the constant 4-cycle's pairs, so
    # the bound gives the pairs and representatives of four times n + 2; the
    # depth below it misses the pair of 3^n 2 0^inf -> 0^(n-1) 3 0^inf
    for g in (parse_family(_ka_spec(A)), parse_family(_ka_spec(A) + ":oriented")):
        for n in range(10):
            assert g.saturation(n) == max(n - 1, 0)
            q, wide = edges_at_level(g, n), edges_at_level(g, n, bound=4 * (n + 2))
            assert q.pairs == wide.pairs, (g.spec, n)
            assert first_edges(g, n, q.pairs) == first_edges(g, n, q.pairs, 4 * (n + 2))
            if n >= 2:
                missed = set(q.pairs) - set(edges_at_level(g, n, bound=n - 2).pairs)
                pair = (("3",) * n, ("0",) * (n - 1) + ("3",))
                assert missed == ({pair} if g.directed else {pair, pair[::-1]}), (g.spec, n)



@pytest.mark.parametrize("oriented", ["", ":oriented"])
def test_k0_bound_gives_the_pairs_of_a_wider_one(oriented):
    # the quotient and every pair's first edge at B(n) = n are those at
    # four times the former bound 2n + 4, through level 12; the bound n - 1
    # misses the pair of the window at shift -n, (01)^n 1
    g = parse_family("k0" + oriented)
    for n in range(13):
        assert g.saturation(n) == n
        wide = 4 * (2 * n + 4)
        q = edges_at_level(g, n)
        assert q.edges == edges_at_level(g, n, bound=wide).edges, (g.spec, n)
        assert first_edges(g, n, q.edges) == first_edges(g, n, q.edges, wide), (g.spec, n)
        if n:
            w = ("0", "1") * n + ("1",)
            pair = (w[:-1], w[1:])
            missed = set(q.edges) - set(edges_at_level(g, n, bound=n - 1).edges)
            assert missed == ({pair} if g.directed else {pair, pair[::-1]}), (g.spec, n)

def test_ka_level_pairs_build_no_point(monkeypatch):
    g = parse_family("ka:A=0,1,2,3")
    monkeypatch.setattr(UltWord, "__init__", lambda *a: pytest.fail("a point was built"))
    for n in range(10):
        edges_at_level(g, n)


def test_symmetrize_and_orient():
    for spec in ("gm", "go-plus:d=2,(3)^inf"):
        g, o = parse_family(spec), parse_family(spec + ":oriented")
        assert o.directed and not g.directed
        assert (o.spec, g.spec) == (spec + ":oriented", spec)
        # the oriented level set is one direction of the symmetric one
        po = pairs(o, 2)
        ps = pairs(g, 2)
        assert po <= ps
        assert {(t, s) for (s, t) in po} | po == ps


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_saturation_stability(spec):
    g = parse_family(spec)
    for n in (0, 1, 2, 3):
        base = pairs(g, n)
        enlarged = pairs(g, n, bound=g.saturation(n) + 5)
        assert enlarged == base, (spec, n)


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_projection_coherence(spec):
    # both sides compute the level-n relation; families on an unbounded
    # numeral alphabet are compared over the level-n letter cap
    g = parse_family(spec)
    for n in range(0, 4):
        allowed = set(g.alphabet_for(n).letters)
        for m in range(n, 5):
            big = edges_at_level(g, m)
            small = pairs(g, n)
            if g.two_sided:
                cut = {(s[m - n : m + n], t[m - n : m + n]) for (s, t) in big.pairs}
            else:
                cut = set()
                first = first_edges(g, m, big.pairs)
                for (s, t) in big.pairs:
                    x, y = first[s, t]
                    if set(x.letters_used()) <= allowed and set(y.letters_used()) <= allowed:
                        cut.add((s[:n], t[:n]))
            assert cut == small, (spec, n, m)


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_swap_closure_of_undirected_levels(spec):
    g = parse_family(spec)
    ps = pairs(g, 2)
    assert {(t, s) for (s, t) in ps} == ps


def test_family_spec_round_trip():
    for spec in ALL_FAMILY_SPECS:
        g = parse_family(spec)
        assert parse_family(g.spec).spec == g.spec
    with pytest.raises(FamilyError):
        parse_family("nope")
    oriented = parse_family("go-plus:d=2,(3)^inf:oriented")
    assert oriented.directed


def test_level_zero_has_at_most_one_pair():
    for spec in ALL_FAMILY_SPECS:
        g = parse_family(spec)
        lev = edges_at_level(g, 0)
        assert len(lev.pairs) <= 1
        if lev.pairs:
            assert lev.pairs[0] == ((), ())


def test_generated_edges_avoid_the_diagonal():
    from clopen.words import BiWord, UltWord

    for spec in ALL_FAMILY_SPECS:
        g = parse_family(spec)
        for (x, y) in edge_points(g.generate(3, 2)):
            if isinstance(x, (UltWord, BiWord)) and isinstance(y, (UltWord, BiWord)):
                assert x != y, spec


def test_block_tops_approach_the_half_maximum_point():
    # the last block of each level is the prefix of 1 (d_1-1)/2 (d_2-1)/2 ...
    d = parse_radix("2,(3)^inf")
    g = go_plus(d)
    for l in range(4):
        top = g.system.block(l, g.system.width(l) - 1)
        assert top == ("1",) + ("1",) * l  # (3-1)/2 = 1 at every later position


def test_gdelta_compactness_tracks_delta():
    assert not parse_family("gdelta:delta=(1)^inf").compact
    assert not parse_family("gdelta:delta=0(1)^inf").compact
    assert parse_family("gdelta:delta=1(0)^inf").compact


def test_gp_degree_at_most_one():
    g = parse_family("gp:d=2,(3)^inf,p=0")
    seen = {}
    for (x, y) in edge_points(g.generate(3, 2)):
        for p in (x, y):
            key = (p.head, p.cycle)
            seen[key] = seen.get(key, 0) + 1
    assert max(seen.values()) == 1


def test_ka_map_is_injective_on_generated_points():
    for A in ([], [0], [0, 1]):
        g = parse_family("ka:A=%s" % ",".join(str(a) for a in A))
        gen = edge_points(g.generate(4, 2))
        sources = [x for (x, _) in gen]
        targets = [y for (_, y) in gen]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_generate_streams_the_same_edges_on_every_pass(spec):
    # BlockWords compare by identity, so the passes are compared as printed
    g = parse_family(spec)
    for n in range(4):
        stream = g.generate(g.saturation(n), n)
        edges = [(_point_str(x), _point_str(y)) for (x, y) in edge_points(stream)]
        assert len(stream) == len(edges), (spec, n)
        assert [(_point_str(x), _point_str(y)) for (x, y) in edge_points(stream)] == edges, (spec, n)



# each level's pairs in order, every pair with its first representative edge
# as `family show` prints it, pinned from the uncut block-chain walk; the
# block families also at levels 5-6 and with the bound enlarged by 3, and
# rank-subshift:n=2 at levels 0-4
ENUMERATION = json.loads((Path(__file__).parent / "golden" / "enumeration.json")
                         .read_text(encoding="utf-8"))
ENUMERATION_CASES = {
    "%s@%d" % (spec, n) + ("+%d" % extra if extra else ""): (spec, n, extra)
    for (spec, n, extra) in [
        (s, n, 0) for spec in ALL_FAMILY_SPECS for s in (spec, spec + ":oriented")
        for n in range(4 if spec.startswith("sturmian") else 5)
    ] + [
        (spec, n, extra)
        for spec in ("go-plus:d=2,(3)^inf", "gp:d=2,(3)^inf,p=0", "gp:d=2,(3)^inf,p=1")
        for n in (5, 6) for extra in (0, 3)
    ] + [
        # alpha_2 and beta_2 are both lazily generated BlockWords
        (spec, n, 0) for spec in ("rank-subshift:n=2", "rank-subshift:n=2:oriented")
        for n in range(5)
    ] + [
        # the odometer block graphs at the level where their enumeration is
        # large enough for its memory to matter
        (spec, 7, 0) for spec in ("go-plus:d=2,(3)^inf", "gp:d=2,(3)^inf,p=1")
    ] + [
        # the Sturmian block graphs past the sweep's levels, and a second
        # rotation number, whose blocks are slices of a longer coding
        ("sturmian:r=(3 - 1 sqrt 5)/2", n, 0) for n in (4, 5, 6, 7)
    ] + [
        ("sturmian:r=(7 - 3 sqrt 5)/2", n, 0) for n in (4, 5, 6)
    ] + [
        # orbit walks of 0^inf on a radix with two head digits, and on index
        # sets with a progression, a finite part and a scheme of intervals
        (spec, n, 0) for spec in ("graph-o:d=2,5,(4)^inf", "orbit:d=2,(3)^inf,S=1+2k|{0,9}",
                                  "orbit:d=(3)^inf,S=sa{{0,2}}|{5}")
        for n in range(5)
    ] + [
        # gm where its level-8 scan sets the benchmark's peak memory; the
        # letter cap of gdelta and t with the bound enlarged past it
        ("gm", n, 0) for n in (5, 6, 7, 8)
    ] + [
        (spec, 5, 3) for spec in ("gdelta:delta=(1)^inf", "t")
    ] + [
        # odometer orbits past the sweep's levels, and the block graphs at
        # level 8, where a whole point per middle edge made enumeration slow
        (spec, n, 0) for spec in ("graph-o:d=(3)^inf", "orbit:d=(3)^inf,S=sa{0}")
        for n in (5, 6)
    ] + [
        (spec, 8, 0) for spec in ("go-plus:d=2,(3)^inf", "gp:d=2,(3)^inf,p=1")
    ] + [
        # the shift families read from one base window per forest node:
        # rank-subshift past the sweep's levels, and its smallest and largest
        # forests, n=0 all BiWords and n=4 the deepest BlockWord blocks
        ("rank-subshift:n=3", n, 0) for n in (5, 6)
    ] + [
        (spec, n, 0) for spec in ("rank-subshift:n=0", "rank-subshift:n=4") for n in range(4)
    ] + [
        # ka's pairs read off its clauses: no even cycle, all four low ones
        # past the sweep's levels, and the one cycle that is longest
        (s, n, 0) for (spec, levels) in (("ka:A=", 4), ("ka:A=0,1,2,3", 7), ("ka:A=4", 5))
        for s in (spec, spec + ":oriented") for n in range(levels)
    ] + [
        # orbit index sets whose scheme intervals hold more indices than a
        # level's period, on three radices, through level 5
        (s, n, 0) for spec in ("orbit:d=(3)^inf,S=sa{{0,6}}", "orbit:d=2,(3)^inf,S=sa{{1,3}}",
                               "orbit:d=(4)^inf,S=sa{0+2k}", "orbit:d=(3)^inf,S={0,9}|sa{{0,4}}",
                               "orbit:d=2,(3)^inf,S=sa{{0,8}}")
        for s in (spec, spec + ":oriented") for n in range(6)
    ]
}


@pytest.mark.parametrize("key", ENUMERATION_CASES)
def test_enumeration_matches_golden(key):
    spec, n, extra = ENUMERATION_CASES[key]
    g = parse_family(spec)
    q = quotient(g, n, bound=g.saturation(n) + extra)
    first = first_edges(g, n, q.edges, bound=g.saturation(n) + extra)
    digest = hashlib.sha256()
    for (s, t) in q.edges:
        x, y = first[s, t]
        digest.update(("%s -- %s    e.g. (%s, %s)\n" % (
            q.label(s), q.label(t), _point_str(x), _point_str(y))).encode())
    assert ENUMERATION[key] == {"pairs": len(q.edges), "sha256": digest.hexdigest()}


def test_level_enumeration_holds_only_the_pairs():
    # the 4054 pairs on 2,220 words; holding every generated edge, or a
    # representative edge per pair, takes over 40 MB
    g = parse_family("gp:d=2,(3)^inf,p=1")
    tracemalloc.start()
    try:
        lev = edges_at_level(g, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lev.pairs) == 4054
    # on CPython 3.11 this peaks at 1.23 MB, with the blocks' digits the
    # radix's own letters, the key table dropped before ranking and the keys
    # joined into one string; it peaked at 2.45 MB with a fresh string per
    # digit.  The bound sits 10% above 1.23 MB.
    assert peak < 1_350_000


def test_level_enumeration_interns_its_words():
    # gm's level 8 has 5,390 pairs on 4,853 words, each word one key,
    # decoded into one tuple shared by its pairs, and each letter the
    # alphabet's own string
    g = parse_family("gm")
    edges_at_level(g, 8)  # one-off allocations of a first call stay out of the peak
    tracemalloc.start()
    try:
        lev = edges_at_level(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(lev.pairs), len(lev.vertices)) == (5390, 4853)
    assert len({id(w) for pair in lev.pairs for w in pair}) == len(lev.vertices)
    letters = lev.alphabet.letters
    assert all(a is letters[lev.alphabet.letters.index(a)] for w in lev.vertices for a in w)
    # on CPython 3.11, the version CI runs, the second call peaks at 0.83 MB,
    # right after the stream, while the key table and one int per distinct
    # undirected pair are held.  The table goes before the ranks are built,
    # the keys are joined into one string before the pairs are re-coded, and
    # the index rows are tuples.  It peaked at 1.05 MB with the keys held one
    # string each and list rows; with a letter tuple per word and each
    # undirected pair held in both directions at 1.63 MB; and before that,
    # with a tuple of ints as each word's sort key, a tuple per pair, a list
    # of word pairs and numerals made by str() per edge, at 2.11 MB.  The
    # bound sits 10% above 0.83 MB.
    assert peak < 910_000


def test_level_quotient_is_held_in_flat_buffers():
    # gm's level 8 quotient holds its 4,853 words as one key string of 8
    # characters each and its index as two flat buffers of 4-byte ints, V + 1
    # offsets and one neighbour per row entry: about 12 bytes per vertex and
    # 4 per entry.  With a tuple per row and an int object per entry it
    # retained about 474 KB, some 46 bytes per vertex or entry.
    g = parse_family("gm")
    quotient(g, 8)  # one-off allocations of a first call stay out of the count
    tracemalloc.start()
    try:
        q = quotient(g, 8)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    vertices, entries = len(q.index()), len(q.index().nbr)
    assert (vertices, entries) == (4853, 5390)
    assert retained <= 20 * vertices + 8 * entries


@pytest.mark.parametrize("spec", [s for spec in ALL_FAMILY_SPECS
                                  for s in (spec, spec + ":oriented")])
def test_every_level_word_has_the_level_width(spec):
    # a quotient holds its words' keys as one string cut at one width: every
    # level-n projection has n letters, or 2n on a two-sided family
    g = parse_family(spec)
    for n in range(6):
        width = 2 * n if g.two_sided else n
        words = {w for (s, t, _) in g.generate(g.saturation(n), n) if s is not None
                 for w in (s, t)}
        assert {len(w) for w in words} == {width}, (spec, n)
        q = quotient(g, n)
        assert set(q.vertices) == words and len(q.vertices) == len(words), (spec, n)


@pytest.mark.parametrize("spec", ["gm", "go-plus:d=2,(3)^inf", "gp:d=2,(3)^inf,p=1",
                                  "graph-o:d=(3)^inf", "orbit:d=(3)^inf,S=sa{{0,2}}|{5}"])
def test_level_projections_share_the_alphabet_letters(spec):
    # every letter of every projection the stream writes is one of the
    # alphabet's own string objects: odometer digits are the radix's letters
    g = parse_family(spec)
    for n in range(6):
        ids = {id(a) for a in g.alphabet_for(n).letters}
        assert all(id(a) in ids for (s, t, _) in g.generate(g.saturation(n), n)
                   if s is not None for w in (s, t) for a in w), (spec, n)


def former_pairs(g, n):
    """Oracle: the level-n pairs as they used to be built, the distinct
    projected pairs of the stream (each edge also swapped when g is
    undirected), sorted by the alphabet positions of their letters."""
    pos = lambda w: tuple(g.alphabet_for(n).letters.index(a) for a in w)
    out = set()
    for (s, t, _) in g.generate(g.saturation(n), n):
        if s is not None:
            out.update([(s, t), (t, s)] if not g.directed else [(s, t)])
    return sorted(out, key=lambda p: (pos(p[0]), pos(p[1])))


def former_edge_count(q):
    """Oracle: the count as it used to be read off the word pairs."""
    if q.directed:
        return len(q.edges)
    loops = len([1 for (u, v) in q.edges if u == v])
    return (len(q.edges) - loops) // 2 + loops


@pytest.mark.parametrize("spec", [s for spec in ALL_FAMILY_SPECS
                                  for s in (spec, spec + ":oriented")])
def test_quotient_index_matches_the_word_pairs(spec):
    # the index built from ranked keys gives back the former words, index,
    # word pairs, counts and undirected closure; a word decoded alone from
    # its key equals the same word decoded with all the others
    g = parse_family(spec)
    for n in range(5):
        q = quotient(g, n)
        alone = [q.vertex(i) for i in range(len(q.index()))]
        pairs = former_pairs(g, n)
        ab = g.alphabet_for(n)
        assert q.vertices == alone == sorted({w for p in pairs for w in p},
                                             key=lambda w: [ab.letters.index(a) for a in w])
        assert [q.vertex(i) for i in range(len(q.vertices))] == q.vertices
        ids = {v: i for i, v in enumerate(q.vertices)}
        index = [[] for _ in ids]
        for (s, t) in pairs:  # sorted, so each list ascends
            index[ids[s]].append(ids[t])
        assert list(map(tuple, q.index())) == list(map(tuple, index)), (spec, n)
        assert q.edges == pairs, (spec, n)
        fresh = quotient(g, n).undirected()
        assert [fresh.vertex(i) for i in range(len(alone))] == fresh.vertices == alone
        assert q.edge_count() == former_edge_count(q)
        if q.directed:
            u, f = q.undirected(), finite_graph(q.vertices, q.edges, False)
            assert (u.vertices, u.edges, list(map(tuple, u.index())), u.directed) == (
                f.vertices, f.edges, list(map(tuple, f.index())), False)
            closed = set(pairs) | {(t, s) for (s, t) in pairs}
            assert u.edges == sorted(closed, key=lambda p: (ids[p[0]], ids[p[1]]))
