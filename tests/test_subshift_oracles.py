"""Exact differential oracles for the subshift layer: the closed-form floor,
the floor-based rotation bound, the identity-based Sturmian coding, its
growing code buffers, the window-based Sturmian language, complexity read
off one language, the bit-parallel power check, sliced BiWord and BlockWord
windows, the text windows of the cb_rank edge probe and the text factors of
its isolation loop, the shift graphs' level pairs and the suffix-only
forbidden-factor test, each against the definition it replaced."""

import math
from functools import cmp_to_key
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clopen.dynamics import (
    QuadraticReal,
    SturmianParameterError,
    check_rotation_number,
    parse_quadratic,
    sturmian_code,
)
from clopen.families import parse_family
from clopen.subshift_lang import (
    FinitePointSet,
    ForbiddenSet,
    ForbiddenSubshift,
    SturmianSubshift,
    _probe_span,
    cb_rank,
    complexity,
    forest_from_text,
    power_free_check,
    rank_forest,
)
from clopen.words import BiWord, BlockWord, format_word, parse_bi

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# small values, and values far beyond float range (~1.8e308)
ints = st.one_of(st.integers(-60, 60), st.integers(-10**400, 10**400))
discs = st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d)


def sign_by_squares(v: QuadraticReal) -> int:
    """The sign of v: the signs of a and b, and a^2 against b^2 * disc when
    they differ."""
    a, b = v.a, v.b
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    lhs, rhs = a * a, b * b * v.disc
    if lhs == rhs:
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def sub(u: QuadraticReal, v: QuadraticReal) -> QuadraticReal:
    """u - v over the integer fields, for u and v of one discriminant."""
    return QuadraticReal(u.a * v.c - v.a * u.c, u.b * v.c - v.b * u.c, u.c * v.c, u.disc)


def integer(k: int, disc: int) -> QuadraticReal:
    return QuadraticReal(k, 0, 1, disc)


def cmp(u: QuadraticReal, v: QuadraticReal) -> int:
    """The exact comparison: the sign of u - v."""
    return sign_by_squares(sub(u, v))


def floor_by_bisection(v: QuadraticReal) -> int:
    """The floor by its definition: bracket with an integer square root,
    then bisect with the exact comparison."""
    lo = (v.a - abs(v.b) * (math.isqrt(v.disc) + 1)) // v.c - 1
    hi = (v.a + abs(v.b) * (math.isqrt(v.disc) + 1)) // v.c + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if cmp(v, integer(mid, v.disc)) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def code_by_frac(r, x, a, b):
    """The coding at x by its definition: letter n is 0 iff frac(x + n*r) < r."""
    out = []
    for n in range(a, b + 1):
        y = sub(x, r.scale(-n))
        frac = sub(y, integer(floor_by_bisection(y), y.disc))
        out.append("0" if cmp(frac, r) < 0 else "1")
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
    # f <= v < f + 1, by the exact comparison; then (a0 +- b*sqrt(disc))/c
    # for a0 next to +-b*sqrt(disc), among them values within 1/c of zero
    m = math.isqrt(b * b * disc)
    for v in (QuadraticReal(a, b, c, disc), QuadraticReal(a, -b, c, disc),
              *(QuadraticReal(a0, s, c, disc) for a0 in (m, m + 1, -m, -m - 1) for s in (b, -b))):
        f = v.floor()
        assert cmp(v, integer(f, disc)) >= 0 and cmp(v, integer(f + 1, disc)) < 0, v


@st.composite
def rotations(draw):
    """An irrational r = frac(b*sqrt(D)) / c in (0, 1/2), b of either sign."""
    disc = draw(st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d))
    b = draw(st.integers(1, 30)) * draw(st.sampled_from((1, -1)))
    m = math.isqrt(b * b * disc)
    floor_b_sqrt = m if b > 0 else -m - 1
    return QuadraticReal(-floor_b_sqrt, b, draw(st.integers(2, 40)), disc)


@SETTINGS
@given(rotations(), st.integers(-80, 80), st.integers(0, 80))
# the window the length-40 language reads, from position -39
@example(parse_quadratic("(3 - 1 sqrt 5)/2"), -39, 79)
def test_sturmian_code_matches_frac_definition(r, a, width):
    b = a + width
    assert sturmian_code(r, a, b) == code_by_frac(r, integer(0, r.disc), a, b)


@st.composite
def near_bounds(draw):
    """An irrational within 10^-9 of 0 or of 1/2, on either side: the end
    plus or minus frac(b*sqrt(D)) / c with c >= 10^9."""
    disc = draw(st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d))
    b = draw(st.integers(1, 10**6))
    c = draw(st.integers(10**9, 10**30))
    side = draw(st.sampled_from((1, -1)))
    # side * (b*sqrt(D) - m) / c, with m = floor(b*sqrt(D)), lies within 1/c
    # of 0 on the side of `side`
    a0, b0 = -math.isqrt(b * b * disc) * side, b * side
    if draw(st.booleans()):
        return QuadraticReal(a0, b0, c, disc)
    return QuadraticReal(c + 2 * a0, 2 * b0, 2 * c, disc)  # 1/2 plus it


@SETTINGS
@given(near_bounds())
def test_rotation_bound_by_one_floor_matches_the_comparisons(r):
    # 0 < r < 1/2 by exact comparison, against floor(2r) = 0
    inside = cmp(r, integer(0, r.disc)) > 0 and cmp(r.scale(2), integer(1, r.disc)) < 0
    try:
        check_rotation_number(r)
        refused = False
    except SturmianParameterError as e:
        assert str(e) == "rotation number must lie in (0, 1/2)"
        refused = True
    assert refused is not inside


def arc_language(r, n):
    """The language by arcs: sort the n + 1 cut points frac(-j*r), j = -1 ..
    n-1, by the exact comparison, and code each half-open arc between two
    consecutive cuts at its midpoint, the last arc closing at the first cut
    plus 1.  The coding at the midpoint x is the mechanical word: letter k
    is 0 iff floor(x + k*r) > floor(x + (k-1)*r)."""
    fracs = []
    for j in range(-1, n):
        v = r.scale(-j)
        fracs.append(sub(v, integer(v.floor(), r.disc)))
    cuts = sorted(fracs, key=cmp_to_key(cmp))
    words = set()
    for lo, hi in zip(cuts, cuts[1:] + [sub(cuts[0], integer(-1, r.disc))]):
        twice = sub(lo, hi.scale(-1))
        mid = QuadraticReal(twice.a, twice.b, 2 * twice.c, r.disc)
        floors = [sub(mid, r.scale(-k)).floor() for k in range(-1, n)]
        words.add(tuple("0" if f1 > f0 else "1" for f0, f1 in zip(floors, floors[1:])))
    return words


def window_language(r, n, length):
    """The length-n factors of the first `length` letters of the coding at
    0, a subset of the language that equals it once the window is long
    enough for the rotation."""
    buf = sturmian_code(r, 0, length - 1)
    return {buf[i : i + n] for i in range(length - n + 1)}


def test_arc_language_matches_the_window_language():
    # a window of 4(n+2)^2 letters is long enough for the first two
    # rotations; the third, near 1/1000, needs a longer one; the library's
    # language, read off one window of 2n letters, is the same set
    for spec, n_max, length in (("(3 - 1 sqrt 5)/2", 40, None),
                                ("(7 - 3 sqrt 5)/2", 20, None),
                                ("(1999 - 1 sqrt 5)/1997998", 12, 20000)):
        r = parse_quadratic(spec)
        s = SturmianSubshift(r)
        for n in range(1, n_max + 1):
            lang = s.language(n)
            assert lang == window_language(r, n, length or 4 * (n + 2) ** 2), (spec, n)
            assert lang == arc_language(r, n), (spec, n)
            assert len(lang) == n + 1


@SETTINGS
@given(rotations(), st.integers(0, 40))
def test_window_language_equals_the_arc_language(r, n):
    lang = SturmianSubshift(r).language(n)
    assert lang == (arc_language(r, n) if n else {()})


@pytest.mark.parametrize("s,n_max", [
    (SturmianSubshift(parse_quadratic("(3 - 1 sqrt 5)/2")), 40),
    (SturmianSubshift(parse_quadratic("(7 - 3 sqrt 5)/2")), 40),
    (SturmianSubshift(parse_quadratic("(1999 - 1 sqrt 5)/1997998")), 40),
] + [(ForbiddenSubshift(["0", "1"], ForbiddenSet(words.split(","))), 20)
     for words in ("11", "11,000", "00,11", "010", "000,111")] + [
    (FinitePointSet([parse_bi("(01)^inf.(01)^inf"), parse_bi("(01)^inf.1(01)^inf"),
                     parse_bi("(0)^inf.1,0,1,1,(0,0,1)^inf")]), 20),
], ids=["golden", "other", "near-zero", "no-11", "no-11-000", "no-00-11", "no-010",
        "no-000-111", "points"])
def test_complexity_counts_each_language(s, n_max):
    # one language read down by dropping last letters, against every length's
    # own language; {00, 11} leaves the two points of (01)^inf, {000, 111} and
    # {010} leave languages that grow, and n_max = 0 asks for nothing
    assert complexity(s, n_max) == [len(s.language(n)) for n in range(1, n_max + 1)]
    assert complexity(s, 0) == []


@SETTINGS
@given(st.data())
def test_arc_language_is_n_plus_one_factors_of_the_coding(data):
    # every word a window shows is in the language, which has n + 1 words
    r = data.draw(rotations())
    n = data.draw(st.integers(1, 12))
    lang = SturmianSubshift(r).language(n)
    assert len(lang) == n + 1
    assert window_language(r, n, 200) <= lang


WIDE = tuple(str(i) for i in range(300))


@st.composite
def power_words(draw):
    """A word over 2 or 3 letters; or one with all 300 letters of WIDE, so
    that each letter code takes two bytes, split by a part over a few of
    them, where powers occur.  Codes are given in order of first occurrence,
    so those of "0", "1", "256" and "257" can differ in one byte only, and a
    run of zero bytes can start inside a letter slot."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.sampled_from("012"[:draw(st.integers(2, 3))]),
                                   max_size=40)))
    pool = draw(st.lists(st.sampled_from(("0", "1", "256", "257") + WIDE), min_size=1,
                         max_size=3))
    body = draw(st.lists(st.sampled_from(pool), max_size=40))
    cut = draw(st.integers(0, len(body)))
    return tuple(body[:cut]) + WIDE + tuple(body[cut:])


@SETTINGS
@given(power_words(), st.integers(2, 4))
# codes 0x0001 ("0") and 0x0101 ("256") differ in their high byte alone: the
# first run of two zero bytes starts inside the slot of the first "256"
@example(WIDE + ("0", "256", "256"), 2)
def test_power_free_check_matches_slice_search(w, k):
    assert power_free_check(w, k) == power_by_slices(w, k)


def test_power_free_check_three_byte_codes():
    # 70,000 distinct letters take three bytes each; the 10,000th power of
    # ("b", "c") starts right after them
    w = tuple(map(str, range(70_000))) + ("b", "c") * 10_000
    assert power_free_check(w, 10_000) == (("b", "c"), 70_000)
    assert power_free_check(w[:-1], 10_000) is None


@SETTINGS
@given(st.lists(st.sampled_from("01"), min_size=1, max_size=4),
       st.lists(st.sampled_from("01"), max_size=5),
       st.lists(st.sampled_from("01"), min_size=1, max_size=4),
       st.integers(-10, 10), st.integers(-30, 30), st.integers(-5, 40))
def test_bi_word_window_matches_letters(left, core, right, start, a, width):
    # any (a, b), empty and reversed windows and windows inside one tail included
    b = BiWord(left, core, right, start)
    assert b.window(a, a + width) == tuple(b.letter(p) for p in range(a, a + width))


def window_by_letters(x, a, b):
    """The former windows: one letter per coordinate."""
    return tuple(x.letter(p) for p in range(a, b))


def orbit(node, span):
    """The former ForestNode.orbit: one shifted point per parameter k, the
    whole finite orbit of a shift-periodic base, else -span <= k <= span."""
    p = node.period()
    return [node.base.shift(k) for k in (range(p) if p is not None else range(-span, span + 1))]


def edge_details_by_shifts(forest, D):
    """The former cb_rank edge probe: one shifted point per parameter k."""
    out = {}
    for node in forest.nodes.values():
        if node.parent is None:
            continue
        if node.period() is not None:
            out[node.id, node.parent] = (False, "finite families cannot accumulate on anything")
            continue
        parent = forest.nodes[node.parent]
        parent_windows = {window_by_letters(x, -D, D) for x in orbit(parent, 4 * D + 8)}
        span = _probe_span(node, D)
        pos = sum(window_by_letters(node.base.shift(k), -D, D) in parent_windows
                  for k in range(D + 1, span))
        neg = sum(window_by_letters(node.base.shift(-k), -D, D) in parent_windows
                  for k in range(D + 1, span))
        out[node.id, node.parent] = (pos + neg >= 3 and max(pos, neg) > 0,
                                     "%d matching windows beyond the resolution (+%d/-%d)"
                                     % (pos + neg, pos, neg))
    return out


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("D", [5, 12, 40])
def test_cb_rank_edge_hits_match_shifted_points(n, D):
    forest = rank_forest(n)
    assert cb_rank(forest, D).edge_checks == edge_details_by_shifts(forest, D)
    for node in forest.nodes.values():
        assert list(node.windows(D + 3, -D, D)) == [
            window_by_letters(x, -D, D) for x in orbit(node, D + 3)]


def factors_by_tuples(node, m, span):
    """The former factor sets of the cb_rank isolation loop: letter tuples,
    a BiWord's from BiWord.factors, a BlockWord's from its [-span, span)
    window."""
    if isinstance(node.base, BiWord):
        return node.base.factors(m)
    buf = node.base.window(-span, span)
    return {buf[i : i + m] for i in range(len(buf) - m + 1)}


def node_details_by_tuples(forest, D):
    """The former cb_rank isolation loop, on sets of letter tuples."""
    out = {}
    others = {}
    for node in forest.nodes.values():
        desc = forest.descendants(node.id)
        others[node] = [o for o in forest.nodes.values()
                        if o.id != node.id and o.id not in desc]
        if not others[node]:
            out[node.id] = (True, "no non-descendant families")
    open_nodes = {node: _probe_span(node, D) for node in others if others[node]}
    for m in range(1, D + 1):
        for node, span in list(open_nodes.items()):
            mine = factors_by_tuples(node, m, span).difference(
                *(factors_by_tuples(o, m, span) for o in others[node]))
            if mine:
                out[node.id] = (True, "separating factor %s" % format_word(min(mine)))
                del open_nodes[node]
    for node in open_nodes:
        out[node.id] = (False, "no separating factor of length <= %d" % D)
    return out


# a shift-periodic child (its edge fails) beside a periodic root, and
# multi-character letters whose least separating factor as letters, a,a, is
# not the least under a character map that reads bb first (as the even
# resolutions do, from the ring's window at -D)
PERIODIC_FOREST = """\
node alpha0 orbit=(01)^inf.(01)^inf parent=root
node beta0 orbit=(01)^inf.1(01)^inf parent=alpha0
node gamma orbit=(001)^inf.(001)^inf parent=alpha0
node delta orbit=(0011)^inf.(0011)^inf parent=root
"""
LETTERS_FOREST = """\
node ring orbit=(bb,a)^inf.(bb,a)^inf parent=root
node pair orbit=(bb,a)^inf.bb,bb,a,a,(bb,a)^inf parent=ring
"""


@pytest.mark.parametrize("D", [1, 2, 5, 12, 40])
@pytest.mark.parametrize("forest", [0, 1, 2, 3, 4, "periodic", "letters"])
def test_cb_rank_matches_the_tuple_probes(forest, D):
    f = (rank_forest(forest) if isinstance(forest, int)
         else forest_from_text(PERIODIC_FOREST if forest == "periodic" else LETTERS_FOREST))
    rep = cb_rank(f, D)
    assert rep.node_checks == node_details_by_tuples(f, D)
    assert rep.edge_checks == edge_details_by_shifts(f, D)
    if forest == "letters" and D > 1:
        assert rep.node_checks["pair"] == (True, "separating factor aa")


def shift_edges_by_points(forest, bound, n):
    """The former shift-graph stream: per point x of each node's orbit, its
    shift y by one, and the level-n pair (x.window(-n, n), y.window(-n, n))."""
    for node in forest.nodes.values():
        for x in orbit(node, bound):
            y = x.shift(1)
            yield x.window(-n, n), y.window(-n, n), (x, y)


@pytest.mark.parametrize("spec", ["k0"] + ["rank-subshift:n=%d" % n for n in range(4)])
@pytest.mark.parametrize("oriented", ["", ":oriented"])
def test_shift_graph_windows_match_shifted_points(spec, oriented):
    # pairs in stream order, and each thunk's points compared by a window
    # wider than the level's on both sides of the origin
    g = parse_family(spec + oriented)
    for n in range(6):
        bound = g.saturation(n)
        stream = zip_longest(g.generate(bound, n), shift_edges_by_points(g.forest, bound, n))
        for (s, t, points), (s0, t0, xy) in stream:
            assert (s, t) == (s0, t0)
            assert [p.window(-n - 16, n + 16) for p in points()] == [
                p.window(-n - 16, n + 16) for p in xy]


class RescanSubshift(ForbiddenSubshift):
    """The former ForbiddenSubshift: _avoids rescans every window of w."""

    def _avoids(self, w):
        for m in {len(f) for f in self.F.words}:
            if any(w[i : i + m] in self.F.words for i in range(len(w) - m + 1)):
                return False
        return True


@SETTINGS
@given(st.integers(2, 3).flatmap(lambda m: st.tuples(
           st.just("012"[:m]),
           st.lists(st.text("012"[:m], min_size=1, max_size=5), max_size=5))))
def test_forbidden_language_matches_full_rescan(case):
    letters, words = case
    F = ForbiddenSet(words)
    new, old = ForbiddenSubshift(letters, F), RescanSubshift(letters, F)
    for n in range(8):
        assert new.language(n) == old.language(n), (words, n)


@SETTINGS
@given(st.lists(st.sampled_from("01"), min_size=1, max_size=4),
       st.lists(st.lists(st.sampled_from("01"), min_size=1, max_size=5), min_size=1),
       st.integers(-10, 10), st.integers(-30, 30), st.integers(-5, 40),
       st.integers(-15, 15))
def test_block_word_window_matches_letters(left, blocks, start, a, width, k):
    b = BlockWord(left, lambda j: tuple(blocks[j % len(blocks)]), start).shift(k)
    assert b.window(a, a + width) == tuple(b.letter(p) for p in range(a, a + width))
