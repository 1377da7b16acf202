"""Forbidden-factor subshifts, factor languages and complexity, power
freeness, and resolution-bounded Cantor-Bendixson ranks of symbolically
presented countable compacta."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .dynamics import (
    QuadraticReal,
    check_rotation_number,
    fibonacci_len,
    periodic_point_period,
    sturmian_code,
)
from .words import BiWord, BlockWord, BudgetError, Word, format_word, parse_bi


class SubshiftError(ValueError):
    pass


# the most words a forbidden set's stage or a forbidden-factor language of
# one length may hold
_WORD_BUDGET = 200_000


# ---------------------------------------------------------------------------
# forbidden factors


class ForbiddenSet:
    """Finite set of forbidden words; M is the longest forbidden length."""

    def __init__(self, words: Iterable):
        self.words = frozenset(map(tuple, words))
        if any(len(w) == 0 for w in self.words):
            raise SubshiftError("the empty word cannot be forbidden")
        self.max_len = max((len(w) for w in self.words), default=0)

    def __repr__(self):
        return "ForbiddenSet(%d words, max length %d)" % (len(self.words), self.max_len)


def member(b: BiWord, F: ForbiddenSet) -> bool:
    """True iff no factor of b lies in F; complete because factor sets of
    eventually periodic words are computed exactly."""
    lengths = sorted({len(w) for w in F.words})
    for m in lengths:
        if b.factors(m) & F.words:
            return False
    return True


def expand_fib_forbidden(p: int) -> ForbiddenSet:
    """The stage-p forbidden set: 00, 111, and all eighth powers w^8 with
    0 < 8|w| < f(9p+5), refused over the word budget of 200000."""
    limit = fibonacci_len(9 * p + 5)
    max_w = (limit - 1) // 8
    k = max_w + 1  # the stage forbids 2^k - 2 power words
    # 2^k - 2 > 200000 exactly when k reaches the bit length of 200002
    if k >= (_WORD_BUDGET + 2).bit_length():
        count = ("2^%d - 2" % k if k.bit_length() <= 64
                 else "2^k - 2 (k of %d bits)" % k.bit_length())
        raise BudgetError("stage %d needs %s power words, over the budget of %d"
                          % (p, count, _WORD_BUDGET))
    words = [("0", "0"), ("1", "1", "1")]
    for ln in range(1, max_w + 1):
        for i in range(2**ln):
            w = tuple(format(i, "0%db" % ln))
            words.append(w * 8)
    return ForbiddenSet(words)


# ---------------------------------------------------------------------------
# subshift presentations and languages


class ForbiddenSubshift:
    """All biinfinite words avoiding F: the language is computed exactly from
    the de-Bruijn-style transition graph pruned to its biinfinite part.
    Refused once the words held for one length pass the word budget: the
    language of {11} has 196,418 words of length 25 and 317,811 of length
    26, and the graph of one run 0^k has 2^(k-1) vertices."""

    def __init__(self, letters: Sequence[str], F: ForbiddenSet):
        self.letters = tuple(letters)
        self.F = F
        self._lengths = sorted({len(f) for f in F.words})
        self._pruned: set | None = None

    def _avoids(self, ext: Word) -> bool:
        """Whether ext avoids F, given that ext[:-1] does: only a suffix of
        ext can be a new factor.  (A length m > |ext| tests ext itself,
        which the length |ext| already tests.)"""
        return not any(ext[-m:] in self.F.words for m in self._lengths)

    def _vertices(self) -> set:
        """F-avoiding words of length max(M-1, 1) that extend to biinfinite
        F-avoiding words (prune until every vertex has a predecessor and a
        successor)."""
        if self._pruned is not None:
            return self._pruned
        L = max(self.F.max_len - 1, 1)
        verts = set()
        stack = [()]
        while stack:
            w = stack.pop()
            if len(w) == L:
                verts.add(w)
                _check_budget(verts, L)
                continue
            for a in self.letters:
                nxt = w + (a,)
                if self._avoids(nxt):
                    stack.append(nxt)
        while True:
            with_succ = set()
            with_pred = set()
            for w in verts:
                for a in self.letters:
                    ext = w + (a,)
                    if self._avoids(ext) and ext[1:] in verts:
                        with_succ.add(w)
                        with_pred.add(ext[1:])
            keep = verts & with_succ & with_pred
            if keep == verts:
                break
            verts = keep
        self._pruned = verts
        return verts

    def language(self, n: int) -> set:
        if n == 0:
            return {()} if self._vertices() else set()
        verts = self._vertices()
        L = max(self.F.max_len - 1, 1)
        if n <= L:
            return {w[i : i + n] for w in verts for i in range(L - n + 1)}
        words = set(verts)
        for m in range(L + 1, n + 1):
            nxt = set()
            for w in words:
                for a in self.letters:
                    ext = w + (a,)
                    if self._avoids(ext) and ext[-L:] in verts:
                        nxt.add(ext)
                _check_budget(nxt, m)
            words = nxt
        return words


def _check_budget(words: set, n: int):
    if len(words) > _WORD_BUDGET:
        raise BudgetError("more than %d words of length %d avoid the forbidden words, "
                          "over the budget" % (_WORD_BUDGET, n))


class SturmianSubshift:
    """Factors of the rotation coding by an irrational r, exact from one
    window of the coding of 0.

    Letter k of the coding at y is 0 exactly when frac(y + k*r) lies in
    [0, r), that is when y lies in the half-open arc [frac(-k*r),
    frac(-(k-1)*r)) of the circle.  So the n letters at y are constant on
    each half-open arc between consecutive cut points frac(-j*r), j = -1 ..
    n-1, its left end included; these are n + 1 distinct points since r is
    irrational.  Every arc has an interior and every orbit of an irrational
    rotation is dense, so every arc's word occurs in every coding, and the
    language of length n is the n + 1 arc words.  The word of the arc whose
    left end is frac(-j*r) is the coding there, which is the coding of 0
    read from position -j: the window of the coding of 0 at positions
    -j .. n-1-j.  So the language is the n + 1 length-n windows of the
    coding of 0 on positions 1-n .. n."""

    def __init__(self, r: QuadraticReal):
        check_rotation_number(r)
        self.r = r

    def language(self, n: int) -> set:
        if n == 0:
            return {()}
        code = sturmian_code(self.r, 1 - n, n)
        return {code[i : i + n] for i in range(n + 1)}


class FinitePointSet:
    """Explicit list of eventually periodic points; language is exact."""

    def __init__(self, points: Sequence[BiWord]):
        self.points = list(points)
        if not self.points:
            raise SubshiftError("need at least one point")

    def language(self, n: int) -> set:
        out: set = set()
        for p in self.points:
            out |= p.factors(n)
        return out


# the subshift presentations; each gives its factor language by language(n)
Subshift = ForbiddenSubshift | SturmianSubshift | FinitePointSet


def complexity(s: Subshift, n_max: int) -> list[int]:
    """The factor counts of lengths 1..n_max, from the one language of
    length n_max: every factor of a subshift extends to the right (a Sturmian
    window continues along the coding, the pruned graph has a successor at
    every vertex, a point's factor continues along the point), so the
    length-(n - 1) factors are exactly the length-n ones without their last
    letter."""
    if n_max < 1:
        return []
    words = s.language(n_max)
    counts = [len(words)]
    for _ in range(n_max - 1):
        words = {w[:-1] for w in words}
        counts.append(len(words))
    return counts[::-1]


# ---------------------------------------------------------------------------
# power freeness


def power_free_check(w, k: int):
    """None when no nonempty v has v^k as a factor of w; otherwise the pair
    (v, position) of the leftmost shortest violation: the least |v|, then
    the least position.

    Each letter is coded once as a fixed-width byte string whose value is
    at least 1, and the codes of w are read as one integer X, letter 0 most
    significant.  For each period l ascending, letter slot j of
    X ^ (X >> 8*width*l) is zero exactly when j >= l and w[j] == w[j-l]: a
    slot j < l xors a nonzero code with 0.  v^k with |v| = l starts at i
    exactly when the (k-1)*l slots from i+l on are all zero, so the first
    width-aligned run of that many zero slots gives the least i for the
    least l."""
    if k < 2:
        raise SubshiftError("power must be >= 2")
    w = tuple(w)
    letters = dict.fromkeys(w)
    width = (len(letters).bit_length() + 7) // 8
    code = {a: c.to_bytes(width, "big") for c, a in enumerate(letters, 1)}
    data = b"".join(map(code.__getitem__, w))
    x = int.from_bytes(data, "big")
    for ln in range(1, len(w) // k + 1):
        diff = (x ^ (x >> 8 * width * ln)).to_bytes(len(data), "big")
        zeros = bytes(width * (k - 1) * ln)
        pos = diff.find(zeros)
        while pos > 0 and pos % width:  # a run that starts inside a slot
            pos = diff.find(zeros, pos - pos % width + width)
        if pos >= 0:
            i = pos // width - ln
            return (w[i : i + ln], i)
    return None


# ---------------------------------------------------------------------------
# Cantor-Bendixson ranks of declared limit forests


class ForestNode:
    """An orbit family: the finite orbit of a shift-periodic base point, or
    the full shift orbit of an infinite-orbit base point."""

    def __init__(self, node_id: str, base, parent: str | None):
        self.id = node_id
        self.base = base  # BiWord or BlockWord
        self.parent = parent  # node id or None for roots
        # the least shift period of a shift-periodic base, else None
        self.period = periodic_point_period(base) if isinstance(base, BiWord) else None

    def shifts(self, span: int) -> range:
        """The shifts k whose points base.shift(k) walk the orbit: the whole
        finite orbit, k < period, when the base is shift-periodic; else
        -span <= k <= span."""
        p = self.period
        return range(p) if p is not None else range(-span, span + 1)

    def windows(self, span: int, a: int, b: int):
        """The [a, b) windows of the orbit's points, in the order of
        shifts(span) and one at a time, as slices of one window of the base:
        base.shift(k).window(a, b) is base.window(k + a, k + b)."""
        ks = self.shifts(span)
        buf = self.base.window(ks.start + a, ks.stop - 1 + b)
        return (buf[i : i + b - a] for i in range(len(ks)))


class LimitForest:
    """Nodes with parent links meaning "the child family accumulates on the
    parent family"; verification is resolution-bounded.  `ancestors[id]`
    holds the ids above a node, parent first, read off its parent links once
    here, where a link back into the walk is refused as a cycle."""

    def __init__(self, nodes: Sequence[ForestNode]):
        self.nodes = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise SubshiftError("duplicate node ids")
        for n in nodes:
            if n.parent is not None and n.parent not in self.nodes:
                raise SubshiftError("unknown parent %r" % n.parent)
        self.ancestors = {}
        for n in nodes:
            up, p = [], n.parent
            while p is not None:
                if p == n.id or p in up:
                    raise SubshiftError("parent links contain a cycle")
                up.append(p)
                p = self.nodes[p].parent
            self.ancestors[n.id] = tuple(up)

    def height(self) -> int:
        return 1 + max(map(len, self.ancestors.values()))


def _text(base, a: int, b: int, code: dict) -> str:
    """base.window(a, b) as one string, one character per letter: code maps
    each letter to its character, and a letter it lacks takes the next one,
    so two texts are equal exactly when their letter tuples are."""
    parts = []
    for c in range(a, b, 1024):  # in pieces, so that no long letter tuple is held
        word = base.window(c, min(c + 1024, b))
        for x in dict.fromkeys(word):
            code.setdefault(x, chr(len(code)))
        parts.append("".join(map(code.__getitem__, word)))
    return "".join(parts)


def _family_factors(node: ForestNode, text: str, m: int, D: int) -> set:
    # a factor set is shift-invariant, and exact for an eventually periodic
    # base, whose text runs D letters past both cycles where
    # BiWord.factors(m) reads m
    cut = D - m if isinstance(node.base, BiWord) else 0
    return {text[i : i + m] for i in range(cut, len(text) - cut - m + 1)}


class CBReport:
    def __init__(self, rank: int, resolution: int, edge_checks, node_checks,
                 verified: bool):
        self.rank = rank
        self.resolution = resolution
        self.edge_checks = edge_checks  # (child, parent) -> (ok, detail)
        self.node_checks = node_checks  # node -> (ok, detail)
        self.verified = verified

    def describe(self) -> str:
        status = "verified at resolution %d" % self.resolution if self.verified \
            else "declared, unverified at resolution %d" % self.resolution
        lines = ["rank %d (%s)" % (self.rank, status)]
        for (child, parent), (ok, detail) in sorted(self.edge_checks.items()):
            lines.append("  edge %s -> %s: %s (%s)"
                         % (child, parent, "pass" if ok else "FAIL", detail))
        for node, (ok, detail) in sorted(self.node_checks.items()):
            lines.append("  node %s isolation: %s (%s)"
                         % (node, "pass" if ok else "FAIL", detail))
        return "\n".join(lines)


def cb_rank(forest: LimitForest, resolution: int = 40) -> CBReport:
    """Rank = forest height; the verification checks, at the given resolution
    D, that (i) each child family really accumulates on its parent: at least
    three of its [-D, D) windows at shifts k with D < |k| <= the probe span,
    on either side, are windows of the parent's points at the shifts
    `parent.shifts(4D + 8)` (the report gives the count on each side), and
    (ii) each node carries a factor of length <= D that no non-descendant
    family contains: no family other than the node whose `ancestors` lack
    it.

    Each family is read once per probe as one text, one character per
    letter from a map shared by the whole call, and its windows and factors
    are slices of that text; only a separating factor is decoded back to
    letters, and the least one is taken as letters."""
    edge_checks = {}
    node_checks = {}
    D = resolution
    code: dict = {}  # letter -> its character in every text of this call
    for node in forest.nodes.values():
        if node.parent is None:
            continue
        parent = forest.nodes[node.parent]
        if node.period is not None:
            edge_checks[(node.id, node.parent)] = (
                False,
                "finite families cannot accumulate on anything",
            )
            continue
        # the [-D, D) windows of the parent's orbit points, as ForestNode.windows
        ks = parent.shifts(4 * D + 8)
        text = _text(parent.base, ks.start - D, ks.stop - 1 + D, code)
        parent_windows = {text[i : i + 2 * D] for i in range(len(ks))}
        # the node's at the shifts -span..span, of which |k| <= D are skipped
        span = _probe_span(node, D) - 1
        text = _text(node.base, -span - D, span + D, code)
        hits_neg = sum(text[i : i + 2 * D] in parent_windows for i in range(span - D))
        hits_pos = sum(text[i : i + 2 * D] in parent_windows
                       for i in range(span + D + 1, 2 * span + 1))
        del parent_windows, text  # so that no two probes hold their windows at once
        ok = hits_pos + hits_neg >= 3
        edge_checks[(node.id, node.parent)] = (
            ok,
            "%d matching windows beyond the resolution (+%d/-%d)"
            % (hits_pos + hits_neg, hits_pos, hits_neg),
        )
    # isolation, one factor length m at a time for every open node, so that
    # each family's length-m factor set is built once per probe span, from
    # one text per probe span
    others = {}
    for node in forest.nodes.values():
        others[node] = [o for o in forest.nodes.values()
                        if o.id != node.id and node.id not in forest.ancestors[o.id]]
        if not others[node]:
            node_checks[node.id] = (True, "no non-descendant families")
    open_nodes = {node: _probe_span(node, D) for node in others if others[node]}
    texts = {}  # (node, span) -> its text
    for m in range(1, D + 1):
        factors = {}  # (node, span) -> its length-m factors
        for node, span in list(open_nodes.items()):
            for x in [node] + others[node]:
                if (x, span) not in texts:
                    b = x.base
                    texts[x, span] = (
                        _text(b, b.start - len(b.left) - D, b.end + len(b.right) + D, code)
                        if isinstance(b, BiWord) else _text(b, -span, span, code))
                if (x, span) not in factors:
                    factors[x, span] = _family_factors(x, texts[x, span], m, D)
            mine = factors[node, span].difference(
                *(factors[o, span] for o in others[node]))
            if mine:
                letters = list(code)
                least = min(tuple(letters[ord(c)] for c in f) for f in mine)
                node_checks[node.id] = (True, "separating factor %s" % format_word(least))
                del open_nodes[node]
    for node in open_nodes:
        node_checks[node.id] = (False, "no separating factor of length <= %d" % D)
    verified = all(ok for ok, _ in edge_checks.values()) and all(
        ok for ok, _ in node_checks.values()
    )
    return CBReport(forest.height(), D, edge_checks, node_checks, verified)


def _probe_span(node: ForestNode, D: int) -> int:
    """How far to shift when probing: enough to pass several block boundaries
    of a lazily generated tail, linear for eventually periodic points."""
    base = node.base
    if isinstance(base, BiWord):
        return 4 * D + 8 + len(base.core) + len(base.left) + len(base.right)
    return 40 * D + 200


# ---------------------------------------------------------------------------
# built-in forests and the forest file format


def rank_block(m: int, j: int) -> Word:
    """Level-m block j: level 0 blocks are all 01; at level m+1 block 0 is 11
    and block j+1 is (01)^(j+1) 11 followed by the level-m blocks 0..j+1."""
    if m == 0:
        return ("0", "1")
    if j == 0:
        return ("1", "1")
    out = ("0", "1") * j + ("1", "1")
    for k in range(j + 1):
        out += rank_block(m - 1, k)
    return out


def rank_point_alpha(m: int) -> BiWord | BlockWord:
    """(01)-periodic to the left; 11 then the level-(m-1) blocks to the right."""
    if m == 0:
        return BiWord(("0", "1"), (), ("0", "1"))
    if m == 1:
        return BiWord(("0", "1"), ("1", "1"), ("0", "1"))
    return BlockWord(
        ("0", "1"),
        lambda j: ("1", "1") if j == 0 else rank_block(m - 1, j - 1),
        start=0,
    )


def rank_point_beta(m: int) -> BiWord | BlockWord:
    """Like alpha_{m+1} but with a single 1 before the block stream."""
    if m == 0:
        return BiWord(("0", "1"), ("1",), ("0", "1"))
    return BlockWord(
        ("0", "1"),
        lambda j: ("1",) if j == 0 else rank_block(m, j - 1),
        start=0,
    )


def rank_forest(n: int) -> LimitForest:
    """The chain alpha_0 <- alpha_1 <- ... <- alpha_n <- beta_n."""
    nodes = []
    for m in range(n + 1):
        nodes.append(
            ForestNode(
                "alpha%d" % m,
                rank_point_alpha(m),
                None if m == 0 else "alpha%d" % (m - 1),
            )
        )
    nodes.append(ForestNode("beta%d" % n, rank_point_beta(n), "alpha%d" % n))
    return LimitForest(nodes)


def forest_from_text(text: str) -> LimitForest:
    """Lines `node <id> orbit=<biword> parent=<id|root>`; the orbit of the
    given base point is finite exactly when the point is shift-periodic."""
    nodes = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if len(toks) != 4 or toks[0] != "node":
            raise SubshiftError("bad forest line %r" % ln)
        node_id = toks[1]
        if not toks[2].startswith("orbit="):
            raise SubshiftError("bad forest line %r" % ln)
        base = parse_bi(toks[2][len("orbit=") :])
        if not toks[3].startswith("parent="):
            raise SubshiftError("bad forest line %r" % ln)
        parent = toks[3][len("parent=") :]
        nodes.append(ForestNode(node_id, base, None if parent == "root" else parent))
    if not nodes:
        raise SubshiftError("forest has no node lines (node <id> orbit=<biword> parent=<id|root>)")
    return LimitForest(nodes)
