"""Subshift languages, forbidden factors, power freeness and
Cantor-Bendixson rank verification."""

import pytest

from clopen.dynamics import (
    fibonacci_limit_prefix,
    fibonacci_word,
    parse_quadratic,
)
from clopen.subshift_lang import (
    FinitePointSet,
    ForbiddenSet,
    ForbiddenSubshift,
    ForestNode,
    LimitForest,
    SturmianSubshift,
    SubshiftError,
    cb_rank,
    complexity,
    expand_fib_forbidden,
    forest_from_text,
    member,
    power_free_check,
    rank_forest,
    rank_point_alpha,
    rank_point_beta,
)
from clopen.words import BiWord, BudgetError, parse_bi

R_GOLDEN = parse_quadratic("(3 - 1 sqrt 5)/2")
R_OTHER = parse_quadratic("(7 - 3 sqrt 5)/2")


def test_member_examples():
    F = ForbiddenSet(["00", "111"])
    assert member(parse_bi("(01)^inf.(01)^inf"), F)
    assert not member(parse_bi("(0)^inf.(0)^inf"), ForbiddenSet(["00"]))
    w5 = fibonacci_word(5)
    assert member(BiWord(w5, (), w5), expand_fib_forbidden(0))
    assert not member(parse_bi("(01)^inf.(01)^inf"), expand_fib_forbidden(0))


def test_member_monotone_in_forbidden_set():
    b = parse_bi("(011)^inf.0(011)^inf")
    small = ForbiddenSet(["000"])
    big = ForbiddenSet(["000", "11"])
    if not member(b, small):
        assert not member(b, big)
    assert not member(b, big)  # 11 occurs
    assert member(b, small)


def test_expand_fib_forbidden():
    F = expand_fib_forbidden(0)
    assert len(F.words) == 8  # 00, 111 and six eighth powers
    assert ("0",) * 2 in F.words and ("1",) * 3 in F.words
    assert ("0", "1") * 8 in F.words
    with pytest.raises(BudgetError):
        expand_fib_forbidden(1)


def test_language_finite_point_set():
    fp = FinitePointSet([parse_bi("(01)^inf.(01)^inf")])
    assert fp.language(3) == {tuple("010"), tuple("101")}


def test_language_of_forbidden_subshift_small():
    # golden-mean-style shift: no 11; counts follow the Fibonacci recurrence
    sf = ForbiddenSubshift(["0", "1"], ForbiddenSet(["11"]))
    counts = complexity(sf, 8)
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55]
    # a letter that cannot extend biinfinitely is pruned away
    sf2 = ForbiddenSubshift(["0", "1"], ForbiddenSet(["10", "11"]))
    assert sf2.language(2) == {("0", "0")}


def test_forbidden_language_stops_at_the_word_budget():
    # 196,418 words of length 25 avoid 11, within the budget of 200,000;
    # the 317,811 of length 26 are refused
    sf = ForbiddenSubshift(["0", "1"], ForbiddenSet(["11"]))
    assert len(sf.language(25)) == 196_418
    with pytest.raises(BudgetError, match="more than 200000 words of length 26 "):
        sf.language(26)


def test_complexity_growth_bounds():
    specs = [
        SturmianSubshift(R_GOLDEN),
        FinitePointSet([parse_bi("(01)^inf.(01)^inf"), parse_bi("(01)^inf.1(01)^inf")]),
        ForbiddenSubshift(["0", "1"], ForbiddenSet(["11"])),
        ForbiddenSubshift(["0", "1"], expand_fib_forbidden(0)),
    ]
    for s in specs:
        counts = complexity(s, 10)
        for a, b in zip(counts, counts[1:]):
            assert a <= b <= 2 * a


def test_sturmian_complexity_is_n_plus_one():
    for r in (R_GOLDEN, R_OTHER):
        assert complexity(SturmianSubshift(r), 12) == list(range(2, 14))


def test_sturmian_complexity_near_zero_rotation():
    # r near 1/1000: a prefix window of 4(n+2)^2 letters shows only 1^n and
    # 0 1^(n-1), so a language read from it would count 2 at every n
    r = parse_quadratic("(1999 - 1 sqrt 5)/1997998")
    assert complexity(SturmianSubshift(r), 12) == list(range(2, 14))


def test_power_free():
    assert power_free_check(fibonacci_limit_prefix(500), 4) is None
    v, pos = power_free_check("0101", 2)
    assert v == ("0", "1") and pos == 0
    assert power_free_check(fibonacci_word(3), 4) is None
    # ok for k implies ok for larger k
    w = fibonacci_limit_prefix(200)
    assert power_free_check(w, 4) is None
    assert power_free_check(w, 5) is None and power_free_check(w, 6) is None


def test_cb_rank_k0():
    rep = cb_rank(rank_forest(0), 40)  # the two orbits of k0
    assert rep.rank == 2 and rep.verified


def test_cb_rank_single_finite_orbit():
    f = LimitForest([ForestNode("tri", parse_bi("(012)^inf.(012)^inf"), None)])
    rep = cb_rank(f, 20)
    assert rep.rank == 1 and rep.verified


def test_cb_rank_chain():
    rep = cb_rank(rank_forest(1), 60)
    assert rep.rank == 3 and rep.verified


def test_cb_rank_drops_by_one_when_leaves_removed():
    def leaves_removed(f):
        return LimitForest([n for n in f.nodes.values() if f.children(n.id)])

    f = rank_forest(1)
    assert f.height() == 3
    assert leaves_removed(f).height() == 2
    assert leaves_removed(leaves_removed(f)).height() == 1
    rep = cb_rank(leaves_removed(f), 40)
    assert rep.rank == 2 and rep.verified


def test_cb_rank_rejects_false_declarations():
    # a finite orbit cannot accumulate on anything
    f = LimitForest(
        [
            ForestNode("root", parse_bi("(01)^inf.1(01)^inf"), None),
            ForestNode("child", parse_bi("(01)^inf.(01)^inf"), "root"),
        ]
    )
    rep = cb_rank(f, 20)
    assert not rep.verified
    # the doubled-letter orbit does not accumulate on the 012-orbit
    f2 = LimitForest(
        [
            ForestNode("root", parse_bi("(012)^inf.(012)^inf"), None),
            ForestNode("child", parse_bi("(01)^inf.1(01)^inf"), "root"),
        ]
    )
    rep2 = cb_rank(f2, 20)
    assert not rep2.verified


def test_forest_file_round_trip():
    text = """
    node alpha0 orbit=(01)^inf.(01)^inf parent=root
    node beta0 orbit=(01)^inf.1(01)^inf parent=alpha0
    """
    f = forest_from_text(text)
    rep = cb_rank(f, 40)
    assert rep.rank == 2 and rep.verified
    with pytest.raises(SubshiftError):
        forest_from_text("node x orbit=(0)^inf.(0)^inf parent=missing")


def test_rank_points_match_block_construction():
    # the level-1 point written directly matches the block-stream form
    a1_stream = rank_point_beta(1)
    # its first letters: 1 11 01110101 ...
    assert a1_stream.window(0, 11) == tuple("11101110101")
    # the level-2 point opens with its marker followed by block 0 (also 11)
    a2 = rank_point_alpha(2)
    assert a2.window(0, 6) == tuple("111101")
