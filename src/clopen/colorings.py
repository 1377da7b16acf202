"""Construction and verification of explicit continuous colorings, finite
coloring search on quotients, and return-time colorings."""

from __future__ import annotations

from collections.abc import Callable

from .dynamics import Radix, prefix_of_value, prefix_value
from .families import QuotientGraph, SymbolicGraph, finite_graph
from .homs import hom_exists
from .quotients import ClopenColoring, ColoringError, quotient
from .words import Alphabet, BudgetError, UltWord, Word, format_word, parse_prefix


class Violation:
    def __init__(self, edge, colors):
        self.edge = edge
        self.colors = colors

    def __repr__(self):
        return "Violation(%r -> colors %r)" % (self.edge, self.colors)


class VerifyResult:
    def __init__(self, ok: bool, violation: Violation | None, complete: bool,
                 checked: int, bound: int):
        self.ok = ok
        self.violation = violation
        self.complete = complete
        self.checked = checked
        self.bound = bound

    def describe(self) -> str:
        mode = "complete" if self.complete else "bounded sweep"
        if self.ok:
            return "ok (%s, %d edges checked, bound %d)" % (mode, self.checked, self.bound)
        return "violation %r (%s)" % (self.violation, mode)


def verify_coloring(g: SymbolicGraph, c, bound: int) -> VerifyResult:
    """Check properness of a coloring against the family's edges.

    A ClopenColoring at level L is checked on the level max(L, bound)
    quotient, which is complete: the coloring is proper on the whole graph iff
    no quotient edge is monochromatic.  A predicate coloring, a function from
    points to colors, is checked on the level-0 stream of edges with
    parameters up to `bound` only, and the result says so."""
    if isinstance(c, ClopenColoring):
        n = max(c.level, bound)
        q = quotient(g, n).undirected()
        vs, checked = q.vertices, 0
        for s, row in zip(vs, q.index()):
            for t in map(vs.__getitem__, row):
                cs, ct = c.color_of(s), c.color_of(t)
                checked += 1
                if cs == ct:
                    return VerifyResult(False, Violation((q.label(s), q.label(t)), (cs, ct)),
                                        True, checked, n)
        return VerifyResult(True, None, True, checked, n)
    count = 0
    for (_, _, points) in g.generate(bound):
        x, y = points()
        cx, cy = c(x), c(y)
        count += 1
        if cx == cy:
            return VerifyResult(False, Violation((x, y), (cx, cy)), False, count, bound)
    return VerifyResult(True, None, False, count, bound)


# ---------------------------------------------------------------------------
# the explicit colorings


def parity_coloring(d: Radix) -> ClopenColoring:
    """2-coloring by the parity of the odometer index below the first even
    digit bound d_j0; proper for the odometer graph because the period
    P = d_0 ... d_j0 there is even.  Rejected when every bound is odd (no
    such coloring exists).

    It is the return parity to the zero cylinder of length j0 + 1: the
    return time (-val(t)) mod P has the parity of val(t), since P is even."""
    span = len(d.head) + len(d.cycle)
    j0 = None
    for j in range(span):
        if d.digit(j) % 2 == 0:
            j0 = j
            break
    if j0 is None:
        raise ColoringError(
            "all digit bounds are odd: the odometer graph has no clopen "
            "2-coloring"
        )
    return return_parity_coloring(d, ("0",) * (j0 + 1))


def three_coloring_beta(g: SymbolicGraph) -> ClopenColoring:
    """Level-1 3-coloring of a block family: marker class, first letter 0,
    first letter 1.  Requires block i of every level to start with the letter
    matching the parity of i, checked on block levels 0..5; rejected with a
    counterexample otherwise."""
    if g.system is None:
        raise ColoringError("family %s does not expose blocks" % g.spec)
    for l in range(6):
        for i in range(g.system.width(l)):
            want = str(i % 2)
            got = g.system.block(l, i)[0]
            if got != want:
                raise ColoringError(
                    "block hypothesis fails at level %d index %d: first "
                    "letter %r, expected %r" % (l, i, got, want)
                )
    mapping = {("c",): 0, ("0",): 1, ("1",): 2}
    return ClopenColoring(level=1, colors=3, mapping=mapping,
                          alphabet=g.alphabet_for(1))


def t_coloring() -> Callable[[UltWord], int]:
    """The clopen 2-coloring of the Baire-space family: class 1 holds the
    points starting with 0 and the cylinders (2k+2)(j+1)0^{k+1}."""

    def fn(x) -> int:
        a = x.letter(0)
        if a == "0":
            return 1
        if not a.isdecimal():
            raise ColoringError("t-coloring is defined on omega^omega: first "
                                "letter %r is not a numeral" % a)
        first = int(a)
        if first >= 2 and first % 2 == 0:
            k = (first - 2) // 2
            second = x.letter(1)
            if second.isdigit():
                j = int(second) - 1
                if 0 <= j <= 2 * k and all(
                    x.letter(2 + m) == "0" for m in range(k + 1)
                ):
                    return 1
        return 0

    return fn


# ---------------------------------------------------------------------------
# coloring search


def search_coloring(q: QuotientGraph, k: int) -> ClopenColoring | None:
    """Exhaustive search for a proper k-coloring of the quotient, or None as
    an absence certificate.

    A proper k-coloring is a homomorphism into the complete graph K_k, so
    this is ``hom_exists(q.undirected(), K_k)``: vertices in depth-first
    preorder, seeds in the order (-degree, alphabet order), since the
    quotient's vertex ids are in alphabet order, and colors tried ascending.  The coloring is the
    first solution in that order, which forward checking does not change.

    For k = 2 the same search takes linear time.  K_2 is bipartite, so a
    non-bipartite or looped quotient is refused by odd girth before any
    search.  On a bipartite one, every vertex after its component's first
    has an assigned neighbour in depth-first preorder, so forward checking
    leaves it one color and no domain empties: each component's first
    vertex gets color 0 and the rest is forced, with no backtracking."""
    if k < 1 or k > 6:
        raise BudgetError("color count must be between 1 and 6")
    if len(q.index()) > 10**5:
        raise BudgetError("quotient too large for exhaustive search")
    q = q.undirected()
    mapping = hom_exists(q, finite_graph(range(k), [(i, j) for i in range(k) for j in range(i)]))
    if mapping is None:
        return None
    return ClopenColoring(level=q.level, colors=k, mapping=mapping,
                          alphabet=q.alphabet, two_sided=q.two_sided)


# ---------------------------------------------------------------------------
# return times


class UndeterminedPrefixError(ColoringError):
    def __init__(self, needed: int):
        super().__init__(
            "prefix too short to determine the return time; need length >= %d"
            % needed
        )
        self.needed = needed


def return_time(d: Radix, C: Word, x: Word) -> int:
    """r_C(x): least l >= 0 with the l-th odometer iterate of x entering the
    cylinder C.  The odometer acts on the first |C| digits as +1 on their
    mixed-radix value modulo P = d_0 ... d_{|C|-1}, so this is
    (val(C) - val(x|C|)) mod P."""
    if not C:
        raise ColoringError("cylinder must be nonempty")
    if len(x) < len(C):
        raise UndeterminedPrefixError(len(C))
    n = len(C)
    return (prefix_value(d, C) - prefix_value(d, x[:n])) % d.period(n)


def return_parity_coloring(d: Radix, C: Word) -> ClopenColoring:
    """The coloring prefix -> parity of its return time to C, at level |C|."""
    C = tuple(C)
    level = len(C)
    prefixes = (prefix_of_value(d, v, level) for v in range(d.period(level)))
    mapping = {t: return_time(d, C, t) % 2 for t in prefixes}
    return ClopenColoring(level=level, colors=2, mapping=mapping,
                          alphabet=d.alphabet())


# ---------------------------------------------------------------------------
# coloring files


def coloring_to_text(c: ClopenColoring, family: str) -> str:
    head = "level=%d colors=%d family=%s" % (c.level, c.colors, family)
    if c.two_sided:
        head += " kind=window"
    lines = [head]
    for v, col in sorted(c.mapping.items()):
        label = format_word(v, c.alphabet) if v else "<empty>"
        lines.append("%s %d" % (label, col))
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str, alphabet: Alphabet | None = None):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ColoringError("empty coloring file")
    pairs = [tok.split("=", 1) for tok in lines[0].split()]
    header = dict(p for p in pairs if len(p) == 2)
    try:
        level, colors = int(header["level"]), int(header["colors"])
    except (KeyError, ValueError):
        level = None
    if len(header) < len(pairs) or level is None:
        raise ColoringError("coloring header must be level=L colors=K [family=F]"
                            " [kind=window]: %r" % lines[0])
    mapping = {}
    for ln in lines[1:]:
        try:
            pref, col = ln.rsplit(None, 1)
            col = int(col)
        except ValueError:
            raise ColoringError("coloring line must be PREFIX COLOR: %r" % ln) from None
        mapping[() if pref == "<empty>" else parse_prefix(pref, alphabet)] = col
    c = ClopenColoring(level=level, colors=colors, mapping=mapping,
                       alphabet=alphabet,
                       two_sided=header.get("kind") == "window")
    return c, header.get("family", "")
