"""Coloring construction, complete verification, exhaustive search and
return times."""

import random

import pytest

from clopen.colorings import (
    UndeterminedPrefixError,
    coloring_from_text,
    coloring_to_text,
    parity_coloring,
    return_parity_coloring,
    return_time,
    search_coloring,
    t_coloring,
    three_coloring_beta,
    verify_coloring,
)
from clopen.dynamics import parse_radix
from clopen.families import edges_at_level, go_graph, go_plus, parse_family
from clopen.quotients import ClopenColoring, ColoringError, TotalityError, odd_closed_walk, quotient
from test_dynamics import prefix_succ

R3 = parse_radix("(3)^inf")
R23 = parse_radix("2,(3)^inf")
R34 = parse_radix("3,4,(3)^inf")


def test_first_letter_three_coloring_of_odometer_graph():
    # parity of the first digit, with the top digit its own class
    mapping = {("0",): 0, ("1",): 1, ("2",): 2}
    c = ClopenColoring(level=1, colors=3, mapping=mapping)
    for bound in (1, 2, 3, 4):
        assert verify_coloring(go_graph(R3), c, bound).ok


def test_constant_coloring_is_rejected():
    mapping = {("0",): 0, ("1",): 0, ("2",): 0}
    c = ClopenColoring(level=1, colors=1, mapping=mapping)
    res = verify_coloring(go_graph(R3), c, 2)
    assert not res.ok and res.violation is not None


def test_t_predicate_coloring_verifies_with_parameters_to_ten():
    res = verify_coloring(parse_family("t"), t_coloring(), 10)
    assert res.ok and not res.complete and res.checked > 100


def test_parity_coloring_examples():
    c = parity_coloring(R34)
    assert c.level == 2
    assert verify_coloring(go_graph(R34), c, 4).ok
    c2 = parity_coloring(R23)
    assert c2.level == 1
    assert c2.mapping == {("0",): 0, ("1",): 1}
    assert verify_coloring(go_graph(R23), c2, 4).ok
    with pytest.raises(ColoringError):
        parity_coloring(R3)


def test_parity_coloring_for_every_radix_with_an_early_even_digit():
    for s in ("2,(3)^inf", "3,4,(3)^inf", "3,3,4,(3)^inf", "(4)^inf", "5,2,(3)^inf"):
        d = parse_radix(s)
        c = parity_coloring(d)
        assert verify_coloring(go_graph(d), c, 4).ok, s


def test_three_coloring_beta():
    g = go_plus(R23)
    c = three_coloring_beta(g)
    assert c.colors == 3 and c.level == 1
    assert verify_coloring(g, c, 4).ok
    # blocks alternate their first letter, which is what makes this work
    for l in range(3):
        for i in range(g.system.width(l)):
            assert g.system.block(l, i)[0] == str(i % 2)


def test_three_coloring_beta_rejects_bad_blocks():
    from clopen.families import graph_from_system, sturmian_block_system

    g = graph_from_system(sturmian_block_system("(3 - 1 sqrt 5)/2"), spec="x")
    with pytest.raises(ColoringError):
        three_coloring_beta(g)


def test_completeness_of_clopen_verification():
    """verify ok iff the quotient at max(L, bound) has no monochromatic
    edge, cross-checked both ways on random colorings."""
    rng = random.Random(41)
    for spec in ("go-plus:d=2,(3)^inf", "graph-o:d=(3)^inf", "gm", "k0"):
        g = parse_family(spec)
        level = 2
        q = quotient(g, level).undirected()
        for _ in range(20):
            k = rng.choice((2, 3))
            mapping = {v: rng.randrange(k) for v in q.vertices}
            c = ClopenColoring(level=level, colors=k, mapping=mapping,
                               two_sided=g.two_sided)
            mono = any(mapping[u] == mapping[v] for (u, v) in q.edges)
            assert verify_coloring(g, c, level).ok == (not mono), spec


def test_search_coloring_two_iff_no_odd_walk():
    for spec in (
        "go-plus:d=2,(3)^inf",
        "graph-o:d=(3)^inf",
        "graph-o:d=3,4,(3)^inf",
        "k0",
        "gm",
        "ka:A=0",
    ):
        g = parse_family(spec)
        for n in (1, 2):
            q = quotient(g, n)
            found = search_coloring(q, 2) is not None
            assert found == (odd_closed_walk(q) is None), (spec, n)


def test_search_coloring_triangle():
    q = quotient(go_graph(R3), 1)
    assert search_coloring(q, 2) is None
    c = search_coloring(q, 3)
    assert c is not None and verify_coloring(go_graph(R3), c, 3).ok


def test_search_coloring_k0_level4():
    q = quotient(parse_family("k0"), 4)
    assert search_coloring(q, 2) is None
    assert search_coloring(q, 3) is not None


def test_return_time_examples():
    assert return_time(R3, ("0", "0"), ("1", "0")) == 8
    assert return_time(R3, ("0", "0"), ("0", "0")) == 0
    with pytest.raises(UndeterminedPrefixError) as ei:
        return_time(R3, ("0", "0"), ("1",))
    assert ei.value.needed == 2


def test_return_time_cocycle():
    for d in (R3, R23, R34):
        C = ("0", "0")
        t = ("0",) * 4
        for _ in range(d.period(4)):
            nxt = prefix_succ(d, t)
            if t[: len(C)] != C:
                assert return_time(d, C, t) == return_time(d, C, nxt) + 1
            t = nxt


def stepped_return_time(d, C, x):
    """Oracle: step the odometer from x until its first |C| digits are C."""
    t = tuple(x)
    for l in range(d.period(len(C))):
        if t[: len(C)] == C:
            return l
        t = prefix_succ(d, t)
    raise AssertionError("no return within one period")


def prefixes(d, n):
    t = ("0",) * n
    for _ in range(d.period(n)):
        yield t
        t = prefix_succ(d, t)


@pytest.mark.parametrize("radix", ["(3)^inf", "2,(3)^inf", "3,4,(3)^inf", "2,5,(4)^inf"])
def test_return_time_against_stepping(radix):
    # every cylinder and every prefix at least as long, lengths <= 3
    d = parse_radix(radix)
    for c_len in (1, 2, 3):
        for C in prefixes(d, c_len):
            for x_len in range(c_len, 4):
                for x in prefixes(d, x_len):
                    assert return_time(d, C, x) == stepped_return_time(d, C, x)


def test_return_parity_proper_off_the_cylinder():
    d = R3
    C = ("0", "0")
    c = return_parity_coloring(d, C)
    g = go_graph(d)
    lev = edges_at_level(g, 3)
    checked = 0
    for (s, t) in lev.pairs:
        # skip edges touching C or its preimage
        if s[:2] == C or t[:2] == C:
            continue
        checked += 1
        assert c.color_of(s) != c.color_of(t)
    assert checked > 0


def test_coloring_file_round_trip():
    d = R34
    c = parity_coloring(d)
    text = coloring_to_text(c, "graph-o:d=3,4,(3)^inf")
    c2, family = coloring_from_text(text, d.alphabet())
    assert family == "graph-o:d=3,4,(3)^inf"
    assert c2.level == c.level and c2.colors == c.colors
    assert c2.mapping == c.mapping


def test_totality_error():
    c = ClopenColoring(level=1, colors=2, mapping={("0",): 0})
    with pytest.raises(TotalityError):
        verify_coloring(go_graph(R3), c, 1)


def test_predicate_coloring_constant_on_claimed_cylinders():
    c = t_coloring()
    # points sharing the defining cylinder (2k+2)(j+1)0^(k+1) share the color
    from clopen.words import UltWord

    for (k, j) in ((0, 0), (1, 2), (2, 1)):
        base = (str(2 * k + 2), str(j + 1)) + ("0",) * (k + 1)
        pts = [
            UltWord(base, ("1",)),
            UltWord(base + ("5",), ("0",)),
            UltWord(base + ("0", "7"), ("1",)),
        ]
        colors = {c(x) for x in pts}
        assert len(colors) == 1


def test_search_coloring_nine_cycle():
    q = quotient(go_graph(R3), 2)
    assert search_coloring(q, 2) is None
    assert search_coloring(q, 3) is not None


def test_search_coloring_deep_quotient_without_recursion():
    # gm level 6 has 2263 vertices, one search depth each: the search keeps
    # an explicit stack, so it stays inside the default recursion limit
    g = parse_family("gm")
    c = search_coloring(quotient(g, 6), 3)
    assert c is not None
    assert verify_coloring(g, c, 6).ok
