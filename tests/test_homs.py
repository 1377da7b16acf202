"""Homomorphism search, cycle spectra, and obstruction reports."""

import itertools

import pytest

from clopen.dynamics import parse_radix
from clopen.families import finite_graph, gp_chain, ka_graph, odd_cycle, parse_family
from clopen.homs import (
    cycle_spectrum,
    finite_graph_from_text,
    hom_exists,
    quotient_hom_obstruction,
)
from clopen.quotients import quotient
from clopen.words import Alphabet, BudgetError

from test_oracles import is_hom


def test_hom_examples():
    C3, C5 = odd_cycle(0), odd_cycle(1)
    w = hom_exists(C5, C3)
    assert w is not None and is_hom(w, C5, C3)
    assert hom_exists(C3, C5) is None
    wi = hom_exists(C3, C3, injective=True)
    assert wi is not None and is_hom(wi, C3, C3, injective=True)
    # a source loop needs a target loop
    loop = finite_graph([0], [(0, 0)])
    assert hom_exists(loop, finite_graph([0, 1], [(0, 1)])) is None
    assert hom_exists(loop, loop) is not None


def test_hom_search_deeper_than_the_recursion_limit():
    # one search level per source vertex, 1003 of them: the search keeps an
    # explicit stack, so it stays inside the default recursion limit
    C, C3 = odd_cycle(500), odd_cycle(0)
    w = hom_exists(C, C3)
    assert w is not None and is_hom(w, C, C3)


def test_odd_cycle_chain():
    for p in range(5):
        for q in range(5):
            found = hom_exists(odd_cycle(q), odd_cycle(p)) is not None
            assert found == (q >= p), (p, q)


def test_odd_girth_monotone_on_witnesses():
    def graph_odd_girth(G):
        lengths = cycle_spectrum(G, 40)
        odd = [l for l in lengths if l % 2 == 1]
        return min(odd) if odd else None

    cases = [
        (odd_cycle(2), odd_cycle(1)),
        (odd_cycle(3), odd_cycle(0)),
        (odd_cycle(1), odd_cycle(1)),
    ]
    for (G, H) in cases:
        w = hom_exists(G, H)
        if w is not None:
            og, oh = graph_odd_girth(G), graph_odd_girth(H)
            assert oh is not None and og is not None and oh <= og


def test_injective_hom_respects_size():
    assert hom_exists(odd_cycle(1), odd_cycle(0), injective=True) is None


def test_hom_budget():
    big = finite_graph(range(1100), [])
    with pytest.raises(BudgetError):
        hom_exists(big, big)


def test_hom_budget_counts_words_without_decoding_them(monkeypatch):
    # the size budget reads the index, so two level quotients over it are
    # refused with their words still keys
    decoded = []
    monkeypatch.setattr(Alphabet, "word", lambda ab, key: decoded.append(key))
    g = parse_family("graph-o:d=(3)^inf")
    with pytest.raises(BudgetError):
        hom_exists(quotient(g, 7).undirected(), quotient(g, 6).undirected())
    assert decoded == []


def test_hom_refusals_before_the_size_budget():
    # 1203 x 1000 vertices is over the budget, but each pair is decided first:
    # an odd cycle has no hom into a bipartite graph or into a graph of
    # larger odd girth, and a source loop needs a target loop
    C, even = odd_cycle(600), finite_graph(range(1000), [(i, (i + 1) % 1000) for i in range(1000)])
    assert hom_exists(C, even) is None
    assert hom_exists(C, odd_cycle(601)) is None
    looped = finite_graph(range(1203), [(0, 0)], directed=True)
    assert hom_exists(looped, finite_graph(range(1000), [], directed=True)) is None
    with pytest.raises(BudgetError):  # no odd closed walk in the source
        hom_exists(even, C)


def test_cycle_spectrum_examples():
    assert cycle_spectrum(odd_cycle(1)) == {5}
    square = finite_graph(range(4), [(i, (i + 1) % 4) for i in range(4)])
    assert cycle_spectrum(square) == {4}
    k4 = finite_graph(range(4), list(itertools.combinations(range(4), 2)))
    assert cycle_spectrum(k4) == {3, 4}
    # bipartite graphs have only even entries
    cube_edges = [
        (a, b)
        for a in range(8)
        for b in range(8)
        if a < b and bin(a ^ b).count("1") == 1
    ]
    cube = finite_graph(range(8), cube_edges)
    assert all(l % 2 == 0 for l in cycle_spectrum(cube))


def test_ka_spectra_monotone_over_subsets():
    subsets = []
    for r in range(4):
        subsets += [set(c) for c in itertools.combinations(range(3), r)]
    spectra = {frozenset(A): cycle_spectrum(ka_graph(sorted(A)).finite_core(), 40)
               for A in subsets}
    for A in subsets:
        for B in subsets:
            if A <= B:
                assert spectra[frozenset(A)] <= spectra[frozenset(B)]
    assert 16 in spectra[frozenset({1})] - spectra[frozenset({0})]
    assert spectra[frozenset()] == {4}


def test_gp_obstruction():
    d = parse_radix("2,(3)^inf")
    g0, g1 = gp_chain(d, 0), gp_chain(d, 1)
    rep = quotient_hom_obstruction(g0, g1, 2)
    assert rep.obstructed and rep.odd_girths == (3, 5)
    rep_same = quotient_hom_obstruction(g0, g0, 2)
    assert not rep_same.obstructed


def test_ka_obstruction_via_spectrum():
    rep = quotient_hom_obstruction(ka_graph([0, 1]), ka_graph([0]), 2)
    assert rep.obstructed and "16" in rep.reason
    back = quotient_hom_obstruction(ka_graph([0]), ka_graph([0, 1]), 2)
    assert not back.obstructed


def test_obstruction_reason_without_odd_girth():
    # a bipartite target prints "none" in the girth branch; a bipartite
    # source prints Python's "None" in the clear branch
    go, go34 = parse_family("graph-o:d=(3)^inf"), parse_family("graph-o:d=3,4,(3)^inf")
    rep = quotient_hom_obstruction(go, go34, 2)
    assert rep.obstructed and rep.odd_girths == (9, None)
    assert rep.reason == ("no continuous reduction compatible with level-2 data: "
                          "odd girths 9 vs none")
    back = quotient_hom_obstruction(go34, go, 2)
    assert not back.obstructed
    assert back.reason == "no obstruction found at level 2 (odd girths None vs 9)"
    same = quotient_hom_obstruction(go34, go34, 2)
    assert same.reason == "no obstruction found at level 2 (odd girths None vs None)"


def test_quotient_to_quotient_search():
    d3 = parse_radix("(3)^inf")
    q1 = quotient(parse_family("graph-o:d=(3)^inf"), 1)
    assert hom_exists(odd_cycle(0), q1) is not None
    # the level-2 quotient is a 9-cycle: the triangle cannot map into it
    q2 = quotient(parse_family("graph-o:d=(3)^inf"), 2)
    assert hom_exists(odd_cycle(0), q2) is None
    assert hom_exists(q2, q1) is not None  # 9-cycle wraps onto the triangle


def test_finite_graph_from_text():
    H = finite_graph_from_text("directed=0\n0 1\n1 2\n2 3\n3 4\n4 0\n5\n")
    assert H.vertices == ["0", "1", "2", "3", "4", "5"] and not H.directed
    assert H.edge_count() == 5
    assert hom_exists(H, odd_cycle(1)) is not None
    D = finite_graph_from_text("directed=1\na b\n")
    assert D.directed and D.edges == [("a", "b")]
    with pytest.raises(ValueError):
        finite_graph_from_text("0 1\n")
