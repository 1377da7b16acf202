"""Exact differential oracles for the subshift layer: the closed-form floor,
the identity-based Sturmian coding, its growing code buffers, the run-scan
power check and sliced BlockWord windows, each against the definition it
replaced."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.dynamics import QuadraticReal, SturmianCoding, sturmian_code
from clopen.subshift_lang import SturmianSubshift, power_free_check
from clopen.words import BlockWord

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# small values, and values far beyond float range (~1.8e308)
ints = st.one_of(st.integers(-60, 60), st.integers(-10**400, 10**400))
discs = st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d)


def floor_by_bisection(v: QuadraticReal) -> int:
    """The former QuadraticReal.floor: bracket with an integer square root,
    then bisect with the exact comparison."""
    lo = (v.a - abs(v.b) * (math.isqrt(v.disc) + 1)) // v.c - 1
    hi = (v.a + abs(v.b) * (math.isqrt(v.disc) + 1)) // v.c + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if v.cmp(mid) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def code_by_frac(r, x, a, b):
    """The former sturmian_code: letter n is 0 iff frac(x + n*r) < r."""
    out = []
    for n in range(a, b + 1):
        y = x + r.scale(n)
        out.append("0" if (y - floor_by_bisection(y)).cmp(r) < 0 else "1")
    return tuple(out)


def power_by_slices(w, k):
    """The former power_free_check: every (length, position) by slices."""
    n = len(w)
    for ln in range(1, n // k + 1):
        for i in range(n - k * ln + 1):
            v = w[i : i + ln]
            if v * k == w[i : i + k * ln]:
                return (v, i)
    return None


@SETTINGS
@given(ints, ints, st.one_of(st.integers(1, 60), st.integers(1, 10**300)), discs)
def test_floor_satisfies_its_definition(a, b, c, disc):
    for v in (QuadraticReal(a, b, c, disc), QuadraticReal(a, -b, c, disc)):
        f = v.floor()
        assert v.cmp(f) >= 0 and v.cmp(f + 1) < 0, v


@st.composite
def rotations(draw):
    """An irrational r = frac(b*sqrt(D)) / c in (0, 1/2), b of either sign."""
    disc = draw(st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d))
    b = draw(st.integers(1, 30)) * draw(st.sampled_from((1, -1)))
    m = math.isqrt(b * b * disc)
    floor_b_sqrt = m if b > 0 else -m - 1
    return QuadraticReal(-floor_b_sqrt, b, draw(st.integers(2, 40)), disc)


@st.composite
def starts(draw, r):
    """A rational or a quadratic start point over r's discriminant."""
    a = draw(st.integers(-100, 100))
    b = draw(st.sampled_from((0, draw(st.integers(-9, 9)))))
    return QuadraticReal(a, b, draw(st.integers(1, 50)), r.disc)


@SETTINGS
@given(st.data())
def test_sturmian_code_matches_frac_definition(data):
    r = data.draw(rotations())
    x = data.draw(starts(r))
    a = data.draw(st.integers(-80, 80))
    b = a + data.draw(st.integers(0, 60))
    assert sturmian_code(r, x, a, b) == code_by_frac(r, x, a, b)


@SETTINGS
@given(st.data())
def test_coding_buffer_grows_both_ways(data):
    r = data.draw(rotations())
    x = data.draw(starts(r))
    code = SturmianCoding(r, x)
    for _ in range(data.draw(st.integers(1, 6))):
        a = data.draw(st.integers(-60, 60))
        b = a + data.draw(st.integers(0, 40))
        assert code.window(a, b) == sturmian_code(r, x, a, b)


@SETTINGS
@given(st.data())
def test_subshift_window_any_length_order(data):
    r = data.draw(rotations())
    x = data.draw(starts(r))
    lengths = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=6))
    for order in (sorted(lengths), sorted(lengths, reverse=True), lengths + lengths):
        s = SturmianSubshift(r, x)
        for ln in order:
            assert s.window(ln) == sturmian_code(r, x, 0, ln - 1)


@SETTINGS
@given(st.integers(2, 3).flatmap(
           lambda m: st.lists(st.sampled_from("012"[:m]), max_size=40)),
       st.integers(2, 4))
def test_power_free_check_matches_slice_search(letters, k):
    w = tuple(letters)
    assert power_free_check(w, k) == power_by_slices(w, k)


@SETTINGS
@given(st.lists(st.sampled_from("01"), min_size=1, max_size=4),
       st.lists(st.lists(st.sampled_from("01"), min_size=1, max_size=5), min_size=1),
       st.integers(-10, 10), st.integers(-30, 30), st.integers(-5, 40),
       st.integers(-15, 15))
def test_block_word_window_matches_letters(left, blocks, start, a, width, k):
    b = BlockWord(left, lambda j: tuple(blocks[j % len(blocks)]), start).shift(k)
    assert b.window(a, a + width) == tuple(b.letter(p) for p in range(a, a + width))
