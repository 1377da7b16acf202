"""Odometer arithmetic on mixed-radix spaces, Fibonacci words, exact floors
of quadratic irrationals and Sturmian codings, and periodicity of two-sided
words."""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .words import Alphabet, BiWord, UltWord, Word, numerals


class InvalidPointError(ValueError):
    """The word is not a point of the given digit space."""


class Radix:
    """Eventually periodic sequence of digit bounds d_j >= 2 (head + cycle),
    with its digit letters: ``letters[k]`` is the numeral of digit k, one
    string object that every word written in the radix shares."""

    def __init__(self, head: Sequence[int], cycle: Sequence[int]):
        self.head = tuple(int(d) for d in head)
        self.cycle = tuple(int(d) for d in cycle)
        if not self.cycle:
            raise ValueError("radix cycle must be nonempty")
        if any(d < 2 for d in self.head + self.cycle):
            raise ValueError("all digit bounds must be >= 2")
        self.letters = tuple(numerals(self.max_digit()))

    def digit(self, j: int) -> int:
        if j < len(self.head):
            return self.head[j]
        return self.cycle[(j - len(self.head)) % len(self.cycle)]

    def period(self, l: int) -> int:
        """Product of the first l digit bounds."""
        out = 1
        for j in range(l):
            out *= self.digit(j)
        return out

    @property
    def in_class_two_then_odd(self) -> bool:
        """First bound 2, all later bounds odd."""
        span = len(self.head) + len(self.cycle) + 1
        return self.digit(0) == 2 and all(
            self.digit(j) % 2 == 1 for j in range(1, span)
        )

    def max_digit(self) -> int:
        return max(self.head + self.cycle)

    def alphabet(self) -> Alphabet:
        return Alphabet(self.letters)

    def zero(self) -> UltWord:
        return UltWord((), ("0",))

    def __eq__(self, other):
        return (
            isinstance(other, Radix)
            and self.head == other.head
            and self.cycle == other.cycle
        )

    def __hash__(self):
        return hash((self.head, self.cycle))

    def __repr__(self):
        return "Radix(%s)" % format_radix(self)


def format_radix(d: Radix) -> str:
    parts = [str(v) for v in d.head]
    parts.append("(%s)^inf" % ",".join(str(v) for v in d.cycle))
    return ",".join(parts)


def parse_radix(s: str) -> Radix:
    """`2,3,(5)^inf` (also accepts the `^rep` suffix for the tail)."""
    s = s.strip()
    for suffix in ("^inf", "^rep"):
        if s.endswith(suffix):
            open_idx = s.rfind("(")
            if open_idx < 0 or not s[: -len(suffix)].endswith(")"):
                raise ValueError("bad radix %r" % s)
            head_str = s[:open_idx].rstrip(",")
            try:
                cycle = [int(t) for t in s[open_idx + 1 : -len(suffix) - 1].split(",")]
                head = [int(t) for t in head_str.split(",")] if head_str else []
            except ValueError:
                raise ValueError("radix digit bounds must be integers: %r" % s) from None
            return Radix(head, cycle)
    # a bare comma list denotes head digits repeated... reject instead: the
    # grammar always carries a parenthesized repeating tail
    raise ValueError("radix must end with (tail)^inf: %r" % s)


# ---------------------------------------------------------------------------
# odometer


def odometer_iter(d: Radix, x: UltWord, i: int) -> UltWord:
    """The i-th iterate, i >= 0, of a point x on the forward orbit of 0^inf.

    Such a point is a value v written in the radix d followed by 0^inf, and
    the odometer acts on it as +1, so the iterate is v + i written the same
    way."""
    if i < 0 or x.cycle != ("0",) or any(
        not a.isdigit() or int(a) >= d.digit(j) for j, a in enumerate(x.head)
    ):
        raise InvalidPointError("not the %d-th iterate of a point on the orbit of "
                                "0^inf: %r" % (i, x))
    v = prefix_value(d, x.head) + i
    digits = []  # up to the last nonzero one, where 0^inf takes over
    while v:
        v, digit = divmod(v, d.digit(len(digits)))
        digits.append(d.letters[digit])
    return UltWord(digits, ("0",))


def prefix_value(d: Radix, t: Word) -> int:
    """Mixed-radix value of a digit string: the sum of t_j * d_0 ... d_{j-1},
    its position in the cycle of length-|t| strings that starts at 0...0."""
    value = 0
    for j in reversed(range(len(t))):
        value = value * d.digit(j) + int(t[j])
    return value


@lru_cache(maxsize=None)
def _bounds(d: Radix, n: int) -> tuple:
    """(d_0, ..., d_{n-1}), read off `Radix.digit` once per radix and length."""
    return tuple(map(d.digit, range(n)))


def prefix_of_value(d: Radix, v: int, n: int) -> Word:
    """The n digits of v mod d_0 ... d_{n-1} in the radix d, least
    significant first: the inverse of prefix_value on length-n strings,
    written in the radix's own letters, so a word holds no string of its
    own."""
    letters, out = d.letters, []
    for bound in _bounds(d, n):
        v, digit = divmod(v, bound)
        out.append(letters[digit])
    return tuple(out)


def period_spectrum(d: Radix, l_max: int) -> list[int]:
    """[d_0 * ... * d_{l-1} for l = 1 .. l_max]."""
    return [d.period(l) for l in range(1, l_max + 1)]


# ---------------------------------------------------------------------------
# Fibonacci words


@lru_cache(maxsize=None)
def fibonacci_word(p: int) -> Word:
    """w_0 = 01, w_1 = 101, w_{p+2} = w_p w_{p+1}."""
    if p == 0:
        return ("0", "1")
    if p == 1:
        return ("1", "0", "1")
    return fibonacci_word(p - 2) + fibonacci_word(p - 1)


def fibonacci_len(p: int) -> int:
    """f_0 = 2, f_1 = 3, f_{p+2} = f_p + f_{p+1}, that is the Fibonacci
    number F(p + 3), by fast doubling in O(log p) multiplications:
    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    if p < 0:
        raise ValueError("p must be >= 0")
    a, b = 0, 1  # F(k), F(k+1) for k the leading bits of p + 3 read so far
    for bit in bin(p + 3)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def fibonacci_limit_prefix(n: int) -> Word:
    """First n letters of the one-sided limit of the reversed words w_p."""
    p = 0
    while fibonacci_len(p) < n:
        p += 1
    return tuple(reversed(fibonacci_word(p)))[:n]


# ---------------------------------------------------------------------------
# exact quadratic floors


def _floor_quadratic(a: int, b: int, c: int, disc: int) -> int:
    """floor((a + b*sqrt(disc)) / c) for c > 0 and non-square disc.

    With m = isqrt(b^2*disc), b*sqrt(disc) lies strictly between m and m+1
    when b > 0 (it is irrational), so its floor is m, and -m-1 when b < 0;
    adding the integer a and dividing by c > 0 keeps the floor."""
    m = math.isqrt(b * b * disc)
    if b < 0:
        m = -m - 1
    return (a + m) // c


class QuadraticReal:
    """(a + b*sqrt(disc)) / c with integer a, b, c > 0 and disc a positive
    non-square; its floor is exact."""

    __slots__ = ("a", "b", "c", "disc")

    def __init__(self, a: int, b: int, c: int, disc: int):
        if c == 0:
            raise ValueError("zero denominator")
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            raise ValueError("disc must be a positive non-square")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c, self.disc = a // g, b // g, c // g, disc

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def scale(self, n: int) -> "QuadraticReal":
        return QuadraticReal(self.a * n, self.b * n, self.c, self.disc)

    def floor(self) -> int:
        return _floor_quadratic(self.a, self.b, self.c, self.disc)

    def __repr__(self):
        return "(%d %s %d sqrt %d)/%d" % (
            self.a,
            "+" if self.b >= 0 else "-",
            abs(self.b),
            self.disc,
            self.c,
        )


def parse_quadratic(s: str) -> QuadraticReal:
    """`(p + q sqrt D)/s`, e.g. `(3 - 1 sqrt 5)/2`; p, q, D and s are
    integers."""
    s = s.strip()
    grammar = ValueError("expected '(p +- q sqrt D)/s': %r" % s)
    if not s.startswith("("):
        raise grammar
    close = s.rfind(")")
    inner = s[1:close]
    denom_part = s[close + 1 :].strip()
    if denom_part and not denom_part.startswith("/"):
        raise ValueError("bad denominator in %r" % s)
    toks = inner.split()
    # exactly the forms "p" | "q sqrt D" | "p + q sqrt D" | "p - q sqrt D"
    try:
        denom = int(denom_part[1:]) if denom_part else 1
        if len(toks) == 1:
            p, q, disc = int(toks[0]), 0, 5
        elif len(toks) == 3 and toks[1] == "sqrt":
            p, q, disc = 0, int(toks[0]), int(toks[2])
        elif len(toks) == 5 and toks[1] in ("+", "-") and toks[3] == "sqrt":
            p, q, disc = int(toks[0]), int(toks[2]), int(toks[4])
            q = -q if toks[1] == "-" else q
        else:
            raise grammar
    except ValueError:
        raise grammar from None
    return QuadraticReal(p, q, denom, disc)


# ---------------------------------------------------------------------------
# Sturmian coding


class SturmianParameterError(ValueError):
    pass


def check_rotation_number(r: QuadraticReal):
    """An irrational r lies in (0, 1/2) exactly when floor(2r) = 0, since 2r
    is then never an integer."""
    if r.is_rational:
        raise SturmianParameterError("rotation number must be irrational")
    if r.scale(2).floor() != 0:
        raise SturmianParameterError("rotation number must lie in (0, 1/2)")


def sturmian_code(r: QuadraticReal, a: int, b: int) -> Word:
    """Letters 0/1 of the rotation coding of 0 on window a..b (inclusive):
    position n is 0 exactly when frac(n*r) lies in [0, r).

    Coded by the mechanical-word identity (Lothaire, Algebraic Combinatorics
    on Words, ch. 2): letter n is 0 iff floor(n*r) > floor((n-1)*r).  It is
    exact with no edge case: frac(n*r) < r iff (n-1)*r < floor(n*r) iff
    floor((n-1)*r) < floor(n*r), the last step because floor(n*r) is an
    integer.  One exact integer floor per letter."""
    check_rotation_number(r)
    if a > b:
        raise ValueError("window must satisfy a <= b")
    # n*r = (n*ra + n*rb*sqrt(D)) / c, stepped from n = a - 1
    ra, rb, c, disc = r.a, r.b, r.c, r.disc
    ya, yb = (a - 1) * ra, (a - 1) * rb
    prev = _floor_quadratic(ya, yb, c, disc)
    out = []
    for _ in range(a, b + 1):
        ya += ra
        yb += rb
        cur = _floor_quadratic(ya, yb, c, disc)
        out.append("0" if cur > prev else "1")
        prev = cur
    return tuple(out)


# ---------------------------------------------------------------------------
# periodic points of the shift


def periodic_point_period(b: BiWord):
    """Minimal i > 0 with shift(b, i) == b, or None if b is aperiodic."""
    if b.core:
        return None
    p = len(b.right)
    return p if b.shift(p) == b else None
