"""Odometer, substitution, quadratic-arithmetic and periodicity tests.

Expected values for carry/borrow behaviour are frozen from a repeated-succ
oracle, and Sturmian letters from float evaluation at safe distances from the
interval endpoints.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from clopen.dynamics import (
    InvalidPointError,
    QuadraticReal,
    Radix,
    SturmianParameterError,
    fibonacci_len,
    fibonacci_limit_prefix,
    fibonacci_word,
    format_radix,
    odometer_iter,
    parse_quadratic,
    parse_radix,
    period_spectrum,
    periodic_point_period,
    prefix_of_value,
    prefix_value,
    sturmian_code,
)
from clopen.words import BiWord, UltWord, parse_bi, parse_ult

from test_subshift_oracles import sign_by_squares, sub
from test_words import prefix


R3 = parse_radix("(3)^inf")
R23 = parse_radix("2,(3)^inf")


# oracles: the +1-with-carry map and its borrow inverse, digit by digit, the
# general carry/borrow map on whole words for iterates of either sign, the
# same map on length-n prefixes, and the letter-to-word substitution whose
# iterates give the Fibonacci words


def drop(x, n):
    """The word x with its first n letters removed."""
    m = max(n, len(x.head))
    return UltWord(prefix(x, m)[n:], tuple(x.letter(m + k) for k in range(len(x.cycle))))


def max_word_from(d, j):
    """The word (d_j - 1)(d_{j+1} - 1)... as letters."""
    m = max(j, len(d.head))
    return UltWord(tuple(str(d.digit(k) - 1) for k in range(j, m)),
                   tuple(str(d.digit(m + k) - 1) for k in range(len(d.cycle))))


def odometer_succ(d, x):
    """The +1-with-carry map; wraps the all-maximal word to the zero word."""
    span = len(x.head) + len(d.head) + math.lcm(len(x.cycle), len(d.cycle))
    for n in range(span):
        if int(x.letter(n)) < d.digit(n) - 1:
            head = ("0",) * n + (str(int(x.letter(n)) + 1),)
            rest = drop(x, n + 1)
            return UltWord(head + rest.head, rest.cycle)
    return d.zero()


def odometer_pred(d, x):
    """Inverse of odometer_succ, by the mirrored borrow rule."""
    span = len(x.head) + len(d.head) + math.lcm(len(x.cycle), len(d.cycle))
    for n in range(span):
        if int(x.letter(n)) > 0:
            head = tuple(str(d.digit(j) - 1) for j in range(n))
            head += (str(int(x.letter(n)) - 1),)
            rest = drop(x, n + 1)
            return UltWord(head + rest.head, rest.cycle)
    return max_word_from(d, 0)


def odometer_carry(d, x, i):
    """The i-th iterate of x, i of either sign, by digitwise add with
    carries; a carry of +1 into an all-maximal tail leaves 0^inf, and a
    borrow from an all-zero tail leaves the maximal word."""
    def tail_is(j, value_of):
        span = j + len(x.head) + len(d.head) + math.lcm(len(x.cycle), len(d.cycle))
        return all(value_of(int(x.letter(k)), d.digit(k)) for k in range(j, span))

    carry, head, j = i, (), 0
    while carry != 0:
        if carry == 1 and tail_is(j, lambda v, b: v == b - 1):
            return UltWord(head, ("0",))
        if carry == -1 and tail_is(j, lambda v, b: v == 0):
            top = max_word_from(d, j)
            return UltWord(head + top.head, top.cycle)
        t = int(x.letter(j)) + carry
        head += (str(t % d.digit(j)),)
        carry = t // d.digit(j)
        j += 1
    rest = drop(x, j)
    return UltWord(head + rest.head, rest.cycle)


def prefix_succ(d, t):
    """Cyclic successor on length-|t| digit strings, the odometer on finite
    sequences, stepped digit by digit."""
    out = [int(a) for a in t]
    for j in range(len(out)):
        if out[j] < d.digit(j) - 1:
            out[j] += 1
            break
        out[j] = 0
    return tuple(str(v) for v in out)


FIB_SUBSTITUTION = {"0": ("1",), "1": ("0", "1")}


def substitute(images, w, k):
    """The k-th iterate of the substitution on the word w."""
    out = tuple(w)
    for _ in range(k):
        out = tuple(b for a in out for b in images[a])
    return out


def test_radix_grammar_round_trip():
    for s in ["(3)^inf", "2,(3)^inf", "2,5,(3)^inf", "3,4,(3)^inf", "2,(11,3)^inf"]:
        d = parse_radix(s)
        assert format_radix(d) == s
    assert parse_radix("2,3,(5)^rep") == parse_radix("2,3,(5)^inf")
    with pytest.raises(ValueError):
        parse_radix("2,3")
    with pytest.raises(ValueError):
        Radix([1], [3])


def test_radix_classes():
    assert not R3.in_class_two_then_odd
    assert R23.in_class_two_then_odd
    assert not parse_radix("3,4,(3)^inf").in_class_two_then_odd
    assert not parse_radix("2,(4)^inf").in_class_two_then_odd


def test_succ_examples():
    assert odometer_iter(R3, R3.zero(), 1) == parse_ult("1(0)^inf")
    assert odometer_iter(R23, parse_ult("1(0)^inf"), 1) == parse_ult("01(0)^inf")
    # the all-maximal word, off the orbit of 0^inf, wraps to 0^inf
    top = parse_ult("(2)^inf")
    assert odometer_succ(R3, top) == odometer_carry(R3, top, 1) == R3.zero()


def test_succ_rejects_invalid_points():
    with pytest.raises(InvalidPointError):
        odometer_iter(R3, parse_ult("3(0)^inf"), 1)
    with pytest.raises(InvalidPointError):
        odometer_iter(R23, parse_ult("(2)^inf"), 1)
    # valid digits, but off the forward orbit of 0^inf
    with pytest.raises(InvalidPointError):
        odometer_iter(R3, parse_ult("(2)^inf"), 1)
    with pytest.raises(InvalidPointError):
        odometer_iter(R3, R3.zero(), -1)


def test_iter_small_equals_repeated_succ():
    for d in (R3, R23, parse_radix("2,5,(3)^inf")):
        x = d.zero()
        y = d.zero()
        for i in range(1, 60):
            y = odometer_succ(d, y)
            assert odometer_iter(d, x, i) == y
        z = y
        for _ in range(59):
            z = odometer_pred(d, z)
        assert z == x
        assert odometer_carry(d, y, -59) == x


def test_iter_examples():
    assert odometer_iter(R3, R3.zero(), 3) == parse_ult("01(0)^inf")
    x = parse_ult("12(0)^inf")
    assert odometer_iter(R3, x, 1) == parse_ult("22(0)^inf")
    assert odometer_carry(R3, odometer_iter(R3, x, 1), -1) == x
    # full period at level l returns into the level-l cylinder of zero
    assert prefix(odometer_iter(R3, R3.zero(), 9), 2) == ("0", "0")


def test_iter_negative_from_zero():
    # backward iterates leave the forward orbit of 0^inf: the oracles' only
    assert odometer_carry(R3, R3.zero(), -1) == parse_ult("(2)^inf")
    assert odometer_carry(R23, R23.zero(), -1) == parse_ult("1(2)^inf")
    assert odometer_carry(R23, R23.zero(), -7) == odometer_pred(
        R23, odometer_carry(R23, R23.zero(), -6)
    )


def level_orbit(d, l):
    """The orbit of 0^(l+1) under the cyclic successor."""
    t = ("0",) * (l + 1)
    out = [t]
    for _ in range(d.period(l + 1) - 1):
        t = prefix_succ(d, t)
        out.append(t)
    return out


def test_level_orbit_example():
    assert level_orbit(R23, 1) == [
        ("0", "0"),
        ("1", "0"),
        ("0", "1"),
        ("1", "1"),
        ("0", "2"),
        ("1", "2"),
    ]
    assert level_orbit(R3, 0) == [("0",), ("1",), ("2",)]
    assert len(level_orbit(R3, 2)) == 27


def test_succ_on_prefixes_is_a_single_cycle():
    for d in (R3, R23, parse_radix("2,5,(3)^inf"), parse_radix("3,4,(3)^inf")):
        for l in range(1, 5):
            t = ("0",) * l
            seen = {t}
            for _ in range(d.period(l) - 1):
                t = prefix_succ(d, t)
                assert t not in seen
                seen.add(t)
            assert prefix_succ(d, t) == ("0",) * l
            assert len(seen) == d.period(l)


RADICES = [R3, R23, parse_radix("2,5,(4)^inf"), parse_radix("3,4,(3)^inf")]


@pytest.mark.parametrize("d", RADICES, ids=format_radix)
def test_prefix_of_value_inverts_prefix_value(d):
    # the n digits of v, least significant first, for every v < P_n
    for n in range(5):
        words = [prefix_of_value(d, v, n) for v in range(d.period(n))]
        assert [prefix_value(d, t) for t in words] == list(range(d.period(n)))
        assert all(len(t) == n for t in words)


@pytest.mark.parametrize("d", RADICES, ids=format_radix)
def test_prefix_of_value_is_the_orbit_of_zero_cut(d):
    # the odometer block s_l(i): the i-th iterate of 0^inf cut to l + 1
    # digits, through more than one period of the prefix
    for l in range(3):
        for i in range(3 * d.period(l + 1)):
            assert prefix_of_value(d, i, l + 1) == prefix(odometer_iter(d, d.zero(), i), l + 1)


@pytest.mark.parametrize("d", RADICES, ids=format_radix)
def test_iter_from_zero_matches_the_carry_oracle(d):
    # through three periods of the length-4 prefixes
    for i in range(3 * d.period(4)):
        assert odometer_iter(d, d.zero(), i) == odometer_carry(d, d.zero(), i)


def test_full_period_returns_to_zero_cylinder():
    for d in (R3, R23, parse_radix("2,5,(3)^inf")):
        for l in range(1, 5):
            y = odometer_iter(d, d.zero(), d.period(l))
            assert prefix(y, l) == ("0",) * l


def test_period_spectrum():
    assert period_spectrum(R23, 3) == [2, 6, 18]
    assert period_spectrum(parse_radix("2,5,(3)^inf"), 3) == [2, 10, 30]
    assert period_spectrum(R23, 3) != period_spectrum(parse_radix("2,5,(3)^inf"), 3)
    assert period_spectrum(R23, 3)[2 - 1] == 6


def test_substitution_morphism():
    rng = random.Random(23)
    tau = FIB_SUBSTITUTION
    for _ in range(100):
        u = tuple(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        v = tuple(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        assert substitute(tau, u + v, 1) == substitute(tau, u, 1) + substitute(
            tau, v, 1
        )


def test_substitution_powers_give_fibonacci_words():
    assert substitute(FIB_SUBSTITUTION, "1", 2) == ("1", "0", "1")
    assert substitute(FIB_SUBSTITUTION, "1", 0) == ("1",)
    for p in range(9):
        assert substitute(FIB_SUBSTITUTION, "1", p + 1) == fibonacci_word(p)


def test_fibonacci_recurrence_and_lengths():
    assert fibonacci_word(2) == tuple("01101")
    assert fibonacci_len(2) == 5
    for p in range(13):
        assert len(fibonacci_word(p)) == fibonacci_len(p)
        if p >= 2:
            assert fibonacci_word(p) == fibonacci_word(p - 2) + fibonacci_word(p - 1)
        # even length exactly when the index is divisible by 3
        assert (fibonacci_len(p) % 2 == 0) == (p % 3 == 0)
    assert 8 * fibonacci_len(5) == 168
    # frozen from the recurrence: 2,3,5,8,13,21,...,987,1597
    assert fibonacci_len(14) == 1597
    assert 8 * fibonacci_len(5) < fibonacci_len(14)


def test_fibonacci_len_equals_the_recurrence():
    a, b = 2, 3
    for p in range(300):
        assert fibonacci_len(p) == a
        a, b = b, a + b


def test_fibonacci_limit_prefixes_are_nested():
    a = fibonacci_limit_prefix(100)
    b = fibonacci_limit_prefix(400)
    assert b[:100] == a


def test_quadratic_parse_and_compare():
    # each value lies between k/100 and (k+1)/100 for k = floor(100 v)
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    assert repr(r) == "(3 - 1 sqrt 5)/2"
    assert r.scale(100).floor() == 38 and r.scale(2).floor() == 0
    s = parse_quadratic("(7 - 3 sqrt 5)/2")
    assert s.scale(100).floor() == 14 and s.scale(2).floor() == 0
    assert repr(parse_quadratic("(-4)/2")) == "(-2 + 0 sqrt 5)/1"


GOLDEN_RATIO_PART = "(3 - 1 sqrt 5)/2"  # ~0.382
HALF = "(1 + 0 sqrt 5)/2"


def minus(v: QuadraticReal, p: int, q: int = 1) -> QuadraticReal:
    """v - p/q; v + p/q is minus(v, -p, q)."""
    return sub(v, QuadraticReal(p, 0, q, v.disc))


def cmp_rational(v: QuadraticReal, p: int, q: int) -> int:
    """The sign of v - p/q, q > 0, from one floor: floor(q*v) < p exactly
    when v < p/q, and v = p/q exactly when q*v is the integer p."""
    qv = v.scale(q)
    if qv.floor() < p:
        return -1
    return 0 if qv.is_rational and qv.c == 1 and qv.a == p else 1


# value, rational operand, then the sign of their difference, equality, and
# the sum and difference built on the integer fields, as the constructor
# reduces them
@pytest.mark.parametrize("value,other,cmp,eq,plus,minus_", [
    (GOLDEN_RATIO_PART, 0, 1, False, "(3 - 1 sqrt 5)/2", "(3 - 1 sqrt 5)/2"),
    (GOLDEN_RATIO_PART, 1, -1, False, "(5 - 1 sqrt 5)/2", "(1 - 1 sqrt 5)/2"),
    (GOLDEN_RATIO_PART, -2, 1, False, "(-1 - 1 sqrt 5)/2", "(7 - 1 sqrt 5)/2"),
    (GOLDEN_RATIO_PART, Fraction(1, 2), -1, False, "(4 - 1 sqrt 5)/2", "(2 - 1 sqrt 5)/2"),
    (GOLDEN_RATIO_PART, Fraction(38, 100), 1, False,
     "(94 - 25 sqrt 5)/50", "(56 - 25 sqrt 5)/50"),
    (GOLDEN_RATIO_PART, Fraction(39, 100), -1, False,
     "(189 - 50 sqrt 5)/100", "(111 - 50 sqrt 5)/100"),
    (GOLDEN_RATIO_PART, Fraction(-7, 3), 1, False, "(-5 - 3 sqrt 5)/6", "(23 - 3 sqrt 5)/6"),
    (HALF, 0, 1, False, "(1 + 0 sqrt 5)/2", "(1 + 0 sqrt 5)/2"),
    (HALF, 1, -1, False, "(3 + 0 sqrt 5)/2", "(-1 + 0 sqrt 5)/2"),
    (HALF, Fraction(1, 2), 0, True, "(1 + 0 sqrt 5)/1", "(0 + 0 sqrt 5)/1"),
    (HALF, Fraction(39, 100), 1, False, "(89 + 0 sqrt 5)/100", "(11 + 0 sqrt 5)/100"),
    (HALF, Fraction(-7, 3), 1, False, "(-11 + 0 sqrt 5)/6", "(17 + 0 sqrt 5)/6"),
    ("(-4)/2", -2, 0, True, "(-4 + 0 sqrt 5)/1", "(0 + 0 sqrt 5)/1"),
    ("(-4)/2", Fraction(-2), 0, True, "(-4 + 0 sqrt 5)/1", "(0 + 0 sqrt 5)/1"),
])
def test_quadratic_rational_operands(value, other, cmp, eq, plus, minus_):
    v = parse_quadratic(value)
    p, q = Fraction(other).numerator, Fraction(other).denominator
    assert cmp_rational(v, p, q) == cmp and (cmp == 0) is eq
    assert sign_by_squares(minus(v, p, q)) == cmp
    assert repr(minus(v, -p, q)) == plus and repr(minus(v, p, q)) == minus_


def test_quadratic_never_equals_a_float():
    # no float enters: the constructor refuses one in every field, so no
    # value is ever a float's neighbour or equal to one
    for fields in ((0.5, 0, 1, 5), (1, 0.5, 2, 5), (1, 1, 2.0, 5), (1, 1, 2, 5.0)):
        with pytest.raises(TypeError):
            QuadraticReal(*fields)
    with pytest.raises(TypeError):
        parse_quadratic(HALF).scale(0.5)


def test_rotation_number_bounds_are_exact():
    # r = 0 and r = 1/2 exactly are rational; an irrational r within 10^-9
    # of either end falls on the side it lies on: tiny = (sqrt 5 - 2)/10^9
    e = 10**9
    for r, reason in ((QuadraticReal(0, 0, 1, 5), "irrational"),
                      (QuadraticReal(1, 0, 2, 5), "irrational"),
                      (QuadraticReal(2, -1, e, 5), "(0, 1/2)"),  # -tiny
                      (QuadraticReal(e // 2 - 2, 1, e, 5), "(0, 1/2)")):  # 1/2 + tiny
        with pytest.raises(SturmianParameterError, match=re.escape(reason)):
            sturmian_code(r, 0, 1)
    for r in (QuadraticReal(-2, 1, e, 5), QuadraticReal(e // 2 + 2, -1, e, 5)):
        assert len(sturmian_code(r, 0, 3)) == 4


def approx(v: QuadraticReal) -> float:
    return (v.a + v.b * math.sqrt(v.disc)) / v.c


def test_quadratic_floor_and_frac():
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    big = r.scale(13)  # ~4.97
    assert big.floor() == 4
    # frac(big) = big - 4 lies in [0, 1)
    assert sign_by_squares(minus(big, 4)) >= 0 and sign_by_squares(minus(big, 5)) < 0
    neg = r.scale(-3)  # ~-1.14
    assert neg.floor() == -2
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randrange(-50, 50)
        v = minus(r.scale(n), rng.randrange(-10, 10), 7)
        f = v.floor()
        assert f == math.floor(approx(v))  # far from integers for these inputs
        assert sign_by_squares(minus(v, f)) >= 0 and sign_by_squares(minus(v, f + 1)) < 0


def test_sturmian_endpoints_exact():
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    assert sturmian_code(r, 0, 1) == ("0", "1")


def test_sturmian_rejects_bad_parameters():
    with pytest.raises(SturmianParameterError):
        sturmian_code(QuadraticReal(1, 0, 3, 5), 0, 1)  # rational
    with pytest.raises(SturmianParameterError):
        sturmian_code(parse_quadratic("(1 + 1 sqrt 5)/2"), 0, 1)  # > 1/2


def test_sturmian_equivariance():
    # windows of the one coding of 0 agree wherever they overlap, whatever
    # their starts, negative ones included
    rng = random.Random(31)
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    for _ in range(10):
        a = rng.randrange(-50, 0)
        b = rng.randrange(0, 50)
        k = rng.randrange(1, 20)
        assert sturmian_code(r, a + k, b + k)[: b - a + 1 - k] == sturmian_code(r, a, b)[k:]


def test_sturmian_matches_float_oracle():
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    rf = approx(r)
    code = sturmian_code(r, -30, 30)
    # the cut points themselves: frac(0) = 0 lies in [0, r), frac(r) = r not
    assert code[30:32] == ("0", "1")
    for idx, n in enumerate(range(-30, 31)):
        if n in (0, 1):
            continue
        y = (n * rf) % 1.0
        assert min(abs(y - rf), y, 1 - y) > 1e-9  # oracle is safe here
        assert code[idx] == ("0" if y < rf else "1")


def test_periodic_point_period():
    assert periodic_point_period(parse_bi("(01)^inf.(01)^inf")) == 2
    assert periodic_point_period(parse_bi("(01)^inf.1(01)^inf")) is None
    w5 = fibonacci_word(5)
    b = BiWord(w5, (), w5)
    assert periodic_point_period(b) == 21
    # oracle: no smaller shift fixes the word
    for i in range(1, 21):
        assert b.shift(i) != b


def test_periodic_period_divides_word_length():
    rng = random.Random(37)
    for _ in range(200):
        w = tuple(rng.choice("01") for _ in range(rng.randrange(1, 9)))
        p = periodic_point_period(BiWord(w, (), w))
        assert p is not None and len(w) % p == 0


def test_sturmian_window_factor_count():
    r = parse_quadratic("(3 - 1 sqrt 5)/2")
    code = sturmian_code(r, 0, 2000)
    factors4 = {code[i : i + 4] for i in range(len(code) - 3)}
    assert len(factors4) == 5


def test_half_period_iterates_reach_the_midpoint_words():
    # after an odd half period the zero word reaches 1 (d_1-1)/2 ... 0^inf,
    # and after twice that plus one it reaches the all-maximal prefix
    for s in ("2,(3)^inf", "2,5,(3)^inf", "2,3,(5)^inf"):
        d = parse_radix(s)
        prod = 1
        for l in range(4):
            if l > 0:
                prod *= d.digit(l)
            n_l = (prod - 1) // 2
            mid = odometer_iter(d, d.zero(), 2 * n_l + 1)
            want_mid = ("1",) + tuple(str((d.digit(j) - 1) // 2) for j in range(1, l + 1))
            assert prefix(mid, l + 1) == want_mid, (s, l)
            top = odometer_iter(d, d.zero(), 4 * n_l + 1)
            want_top = tuple(str(d.digit(j) - 1) for j in range(l + 1))
            assert prefix(top, l + 1) == want_top, (s, l)
