"""Constructors for the concrete symbolic graph families, each exposing exact
level-n edge enumeration.

A SymbolicGraph is an edge generator: `generate(bound, n)` streams the
finitely many primitive directed edges whose clause parameters are at most
`bound`, complete for the level-n projections (block graphs skip the edges
that only repeat a projection, see `graph_from_system`), as (s, t, points).
s and t are the level-n projections, length-n prefixes or symmetric windows
for two-sided families, read off the family's own arithmetic: the clause
families (`gm`, `gdelta`, `t`, the block graphs and `ka`) write each point
as a head, a run and a repeated tail for `_edge` to cut, the odometer
families write an orbit index in the radix, and the shift families slice
both from one window of each forest node's base (`ForestNode.windows`;
`cb rank` reads it as text); `points()` builds the two exact points.
`edges_at_level(g, n)` interns the alphabet keys of the projections below
the saturation bound B(n), holding each distinct pair as one int, and
returns the level quotient on the sorted keys, joined into one string, with
its integer index, which `quotient()` keeps as it is; `first_edges` walks
the stream again for the points behind chosen pairs.  Stability under
enlarging the bound is a runtime-checkable property.

Families over an infinite numeral alphabet (`gm`, `gdelta`, `t`) are capped
at the letters reachable below B(n): their generators hand `_edge` the
level's alphabet, fixed by B(n) whatever the bound, and an edge with a
letter outside it has no projections (None).  Numeral letters come from
`numerals`, and odometer digits from the radix's `letters`, which are the
same objects, so every word shares the alphabet's letter objects.

`QuotientGraph` is the one finite graph type: a level quotient, an odd
cycle, a finite core, a complete graph or a graph read from a file, held
as its integer index; a quotient's letter tuples, decoded from its keys,
and every graph's vertex pairs are derived on request.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import groupby, islice

from .dynamics import (
    Radix,
    check_rotation_number,
    format_radix,
    odometer_iter,
    parse_quadratic,
    parse_radix,
    prefix_of_value,
    sturmian_code,
)
from .subshift_lang import rank_block, rank_forest
from .words import (Alphabet, BudgetError, UltWord, Word, format_ult, format_word, numerals,
                    parse_ult)


class FamilyError(ValueError):
    pass


class QuotientGraph:
    """A finite graph: a level-n quotient of a family, whose vertices are its
    length-n prefixes in alphabet order, or an odd cycle, a finite core, a
    complete graph or a graph read from a file, whose vertices keep their
    first-seen order.  Vertex i is ``vertex(i)``.  The graph is its integer
    index: ``index()[i]`` lists the ids of i's out-neighbours, ascending, an
    undirected edge held at both ends and a self-loop once.  `edges_at_level`
    builds a quotient's index, its rows tuples, on its words' sorted
    `Alphabet.key` strings, held joined as one string `keys` of n characters
    per word, 2n on a two-sided family, and `finite_graph` every other one;
    the letter tuples of `vertices` and the vertex pairs of `edges` are
    derived on request."""

    def __init__(self, level, vertices, adj, directed, alphabet=None,
                 two_sided=False, keys=None):
        self.level = level
        self._vertices, self._keys = vertices, keys
        self._adj = adj
        self.directed = directed
        self.alphabet = alphabet
        self.two_sided = two_sided

    @property
    def vertices(self) -> list:
        """The vertex words, a quotient's keys decoded on first request."""
        if self._keys is not None:
            self._vertices, self._keys = list(map(self.vertex, range(len(self._adj)))), None
        return self._vertices

    def vertex(self, i: int):
        """Vertex i, decoding only its own key while the words are keys."""
        if self._keys is None:
            return self._vertices[i]
        w = 2 * self.level if self.two_sided else self.level
        return self.alphabet.word(self._keys[i * w:(i + 1) * w])

    @property
    def edges(self) -> list:
        """The edges as vertex pairs, sorted by the ids of their ends."""
        vs = self.vertices
        return [(vs[i], vs[j]) for i, a in enumerate(self._adj) for j in a]

    pairs = edges  # a level quotient's pairs, as `edges_at_level`'s callers name them

    def undirected(self) -> QuotientGraph:
        """The underlying undirected graph, on the same vertex ids."""
        if not self.directed:
            return self
        return QuotientGraph(self.level, self._vertices, _symmetric(self._adj), False,
                             self.alphabet, self.two_sided, self._keys)

    def index(self) -> list:
        """The integer index: ``adj[i]`` the ascending ids of i's out-neighbours."""
        return self._adj

    def edge_count(self) -> int:
        """The number of edges, an undirected one counted once."""
        count = sum(map(len, self._adj))
        if self.directed:
            return count
        loops = sum(i in a for i, a in enumerate(self._adj))
        return (count - loops) // 2 + loops

    def label(self, v) -> str:
        """A prefix in its alphabet's letters, a two-sided window split at
        its centre; a vertex of a graph without an alphabet as ``str(v)``."""
        if self.alphabet is None:
            return str(v)
        s = format_word(v, self.alphabet)
        if self.two_sided and self.level:
            mid = len(v) // 2
            joint = "," if "," in s else ""
            s = (format_word(v[:mid], self.alphabet) + joint + "." + joint
                 + format_word(v[mid:], self.alphabet))
        return s if s else "<empty>"

    def distinct_edges(self) -> list:
        """The edges, an undirected one once from its lower id."""
        vs = self.vertices
        return [(vs[i], vs[j]) for i, a in enumerate(self._adj) for j in a
                if self.directed or i <= j]


def _symmetric(adj) -> list:
    """The ascending neighbour lists of the undirected closure of `adj`."""
    out = [set(a) for a in adj]
    for i, a in enumerate(adj):
        for j in a:
            out[j].add(i)
    return [sorted(a) for a in out]


def finite_graph(vertices: Iterable, edges: Iterable, directed: bool = False) -> QuotientGraph:
    """The graph on `vertices`, in first-seen order, with `edges`; an edge on
    an unknown vertex is an error."""
    ids: dict = {}
    for v in vertices:
        ids.setdefault(v, len(ids))
    adj = [set() for _ in ids]
    for (u, v) in edges:
        if u not in ids or v not in ids:
            raise FamilyError("edge (%r, %r) references unknown vertex" % (u, v))
        adj[ids[u]].add(ids[v])
    adj = [sorted(a) for a in adj] if directed else _symmetric(adj)
    return QuotientGraph(None, list(ids), adj, directed)


def odd_cycle(p: int) -> QuotientGraph:
    """The symmetric cycle on 2p+3 vertices."""
    if p < 0:
        raise FamilyError("p must be >= 0")
    n = 2 * p + 3
    return finite_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------


class EdgeStream:
    """The edges of one `generate(bound, level)` call.  Each pass runs the
    family's generator afresh, so no pass holds more than its current edge;
    the length is one counting pass."""

    def __init__(self, run: Callable[[], Iterator]):
        self._run = run

    def __iter__(self) -> Iterator:
        return self._run()

    def __len__(self) -> int:
        return sum(1 for _ in self)


class SymbolicGraph:
    """A graph family on a zero-dimensional space, presented by a saturating
    edge generator.

    generate(bound, level) streams primitive directed edges (clause order,
    parameters up to `bound`, complete for projections at the given level)
    as (s, t, points), see the module docstring; the graph itself is the
    symmetrization unless `directed` is set.  Points are UltWords (one-sided
    spaces), or BiWords/BlockWords (two-sided subshifts), in which case level
    n reads the symmetric window [-n, n).

    A family may cut its walk to the edges a level-n projection can tell
    apart, but only for n >= 1.  At level 0 it yields every edge with
    parameters up to `bound`, since a predicate sweep (`verify_coloring`)
    checks each edge's points there.  Level 0 has the single pair ((), ()),
    so `edges_at_level` and `first_edges` read the level-0 stream only up
    to the first edge that projects, which no cut ever skipped.

    A two-sided family carries its `forest`, the LimitForest whose orbits
    it walks and whose Cantor-Bendixson rank `cb rank` verifies; a block
    family carries its BlockSystem as `system`.
    """

    def __init__(
        self,
        spec: str,
        alphabet_for: Callable[[int], Alphabet],
        generate: Callable[[int, int], Iterator],
        saturation: Callable[[int], int],
        forest=None,
        compact: bool = True,
        point_set: str = "",
        system: BlockSystem | None = None,
        finite_core: Callable[[], QuotientGraph] | None = None,
    ):
        self.spec = spec
        self.alphabet_for = alphabet_for
        self._generate = generate
        self.saturation = saturation
        self.directed = False  # `parse_family` sets it for an `:oriented` spec
        self.forest = forest
        self.compact = compact
        self.point_set = point_set
        self.system = system
        self.finite_core = finite_core
        self.args: dict = {}  # the spec's arguments as `parse_family` read them

    def generate(self, bound: int, level: int = 0) -> EdgeStream:
        return EdgeStream(lambda: self._generate(bound, level))

    @property
    def two_sided(self) -> bool:
        return self.forest is not None

    def __repr__(self):
        return "SymbolicGraph(%s)" % self.spec


def edges_at_level(g: SymbolicGraph, n: int, bound: int | None = None) -> QuotientGraph:
    """The level-n quotient: exactly { (x|n, y|n) : (x, y) edge of g } below
    the saturation bound, with the letter cap fixed by B(n) even when the
    bound is enlarged.

    Each word's alphabet key is interned as an id when first seen, and each
    distinct pair is held as one int, ``i << 32 | j`` for the ids of its
    words, an undirected pair once with i <= j.  The keys are sorted and
    joined into the quotient's one key string, and the pairs, re-coded by
    rank with an undirected pair also swapped and sorted, are cut into the
    ascending neighbour tuples of the index.  Each table is freed before the
    next one is built."""
    if n < 0:
        raise FamilyError("level must be >= 0")
    alphabet = g.alphabet_for(n)
    key, ids = alphabet.key, {}
    pack = lambda i, j: i << 32 | j if g.directed or i <= j else j << 32 | i
    stream = g.generate(g.saturation(n) if bound is None else bound, n)
    if not n:  # the one pair ((), ()), read off the first edge that has it
        stream = islice((e for e in stream if e[0] is not None), 1)
    seen = {pack(ids.setdefault(key(s), len(ids)), ids.setdefault(key(t), len(ids)))
            for (s, t, _) in stream if s is not None}
    keys = sorted(ids)
    old = [ids[k] for k in keys]  # the id of each rank
    del ids
    adj, rank = [()] * len(keys), [0] * len(keys)
    keys = "".join(keys)
    for r, i in enumerate(old):
        rank[i] = r
    del old
    codes = [rank[c >> 32] << 32 | rank[c & 0xFFFFFFFF] for c in seen]
    del seen, rank
    if not g.directed:  # an undirected pair at both ends, a self-loop once
        codes += [(c & 0xFFFFFFFF) << 32 | c >> 32 for c in codes if c >> 32 != c & 0xFFFFFFFF]
    codes.sort()
    for i, run in groupby(codes, lambda c: c >> 32):
        adj[i] = tuple(c & 0xFFFFFFFF for c in run)
    return QuotientGraph(n, None, adj, g.directed, alphabet, g.two_sided, keys)


def first_edges(g: SymbolicGraph, n: int, pairs: Iterable, bound: int | None = None) -> dict:
    """pair -> the first edge of `edges_at_level`'s stream that projects
    onto it, for each of the given level-n pairs, a swapped edge (y, x)
    included when g is undirected: one more pass of the stream, ended once
    every pair is found, that builds the points of those edges only."""
    want, found = set(pairs), {}
    for (s, t, points) in g.generate(g.saturation(n) if bound is None else bound, n):
        if (s, t) in want and (s, t) not in found:
            found[s, t] = points()
        if not g.directed and (t, s) in want and (t, s) not in found:
            found[t, s] = points()[::-1]
        if len(found) == len(want):
            break
    return found


def _edge(n: int, x: tuple, y: tuple, allowed: set | None = None) -> tuple:
    """(s, t, points) of an edge of one-sided points, each point given as
    (head, run, times, tail), the word head run^times tail^inf: its n-prefix
    is read without writing out the run, and `points()` builds both words.
    An edge with a letter outside `allowed` has no projections."""
    points = lambda: tuple(UltWord(h + (a,) * k, (c,)) for (h, a, k, c) in (x, y))
    for (h, a, k, c) in (x, y) if allowed is not None else ():
        if not (allowed.issuperset(h) and c in allowed and (a in allowed or not k)):
            return None, None, points
    s, t = ((h[:n] + (a,) * min(k, n - len(h)) + (c,) * n)[:n] for (h, a, k, c) in (x, y))
    return s, t, points


# ---------------------------------------------------------------------------
# the level-indexed approximations of odd cycles on the Baire-like space
# ({c, a, abar} union numerals)^omega; level k walks through 2k+3 classes


def _c(k):
    return ("c",) * k


# the numerals of gm's and gdelta's level-n alphabet stop at B(n), so that
# enlarging the bound cannot smuggle in capped letters
def _gm_saturation(n: int) -> int:
    return 2 * (n + 2) + 1


def _gm_alphabet(n: int) -> Alphabet:
    return Alphabet(numerals(_gm_saturation(n) + 1) + ["c", "a", "abar"])


def gm() -> SymbolicGraph:
    """Graph whose level-k part approximates the odd cycle on 2k+3 points;
    the space is not compact (numeral letters are unbounded).

    `generate(bound, level)` walks the run length j + 1 only up to
    max(n - 1, 1), where n = level >= 1.  The cut is exact: for j >= n - 2 every point of every clause
    has the same n-prefix as at j = n - 2 with the same k and i, and the j
    loop is outside the i loop, so each skipped edge repeats a pair that an
    earlier edge already gave; the level-n pairs and each pair's first edge
    are unchanged."""

    def generate(bound: int, level: int) -> Iterator:
        cap = set(_gm_alphabet(level).letters)
        num = numerals(2 * bound + 2)
        for k in range(bound + 1):
            K = num[k]
            for j in range(min(bound, max(level - 2, 0) if level else bound) + 1):
                yield _edge(level, (_c(k + 1), "a", j + 1, "abar"), ((K,), "0", j + 1, "abar"),
                            cap)
                for i in range(2 * k + 1):
                    yield _edge(level, ((K,), num[i], j + 1, "a"),
                                ((K,), num[i + 1], j + 1, "abar"), cap)
                yield _edge(level, ((K,), num[2 * k + 1], j + 1, "a"),
                            (_c(k + 1), "abar", j + 1, "a"), cap)

    return SymbolicGraph(
        spec="gm",
        alphabet_for=_gm_alphabet,
        generate=generate,
        saturation=_gm_saturation,
        compact=False,
        point_set="({c,a,abar} u omega)^omega",
    )


def gdelta(delta: UltWord) -> SymbolicGraph:
    """The copy of the gm-style graph whose level-k block is present exactly
    when delta(k) = 1; lives on a countable closed subspace."""
    if not delta.letters_used() <= {"0", "1"}:
        raise FamilyError("delta must be a 0/1 word")

    def generate(bound: int, level: int) -> Iterator:
        cap = set(_gm_alphabet(level).letters)
        num = numerals(2 * bound + 2)
        for k in range(bound + 1):
            if delta.letter(k) != "1":
                continue
            K = num[k]
            for j in range(bound + 1):
                yield _edge(level, (_c(k + 1) + ("0", num[j]), "a", 0, "a"),
                            ((K,), "0", j + 2, "abar"), cap)
                for i in range(2 * k + 1):
                    yield _edge(level, ((K, num[i]), "0", j + 1, "a"),
                                ((K, num[i + 1]), "0", j + 1, "abar"), cap)
                yield _edge(level, ((K, num[2 * k + 1]), "0", j + 1, "a"),
                            (_c(k + 1) + ("1", num[j]), "a", 0, "abar"), cap)

    return SymbolicGraph(
        spec="gdelta:delta=%s" % format_ult(delta),
        alphabet_for=_gm_alphabet,
        generate=generate,
        saturation=_gm_saturation,
        # infinitely many blocks force unbounded first letters
        compact="1" not in delta.cycle,
        point_set="P_delta (block k present iff delta(k)=1)",
    )


def t_graph() -> SymbolicGraph:
    """The countable graph on the Baire space whose level-n quotients all have
    odd closed walks although a clopen 2-coloring exists; the space is not
    compact, which is exactly why the level criterion is not conclusive."""

    def alphabet_for(n: int) -> Alphabet:
        return Alphabet(numerals(saturation(n) + 1))

    def saturation(n: int) -> int:
        return 2 * (n + 2) + 2

    def generate(bound: int, level: int) -> Iterator:
        cap = set(alphabet_for(level).letters)
        num = numerals(2 * bound + 3)
        for k in range(bound + 1):
            two_k2 = num[2 * k + 2]
            yield _edge(level, ((), "0", 2 * k + 1, "1"), ((two_k2,), "0", 0, "0"), cap)
            for i in range(2 * k + 1):
                yield _edge(level, ((two_k2, num[i]), "0", k, "1"),
                            ((two_k2, num[i + 1]), "0", 0, "0"), cap)
            yield _edge(level, ((two_k2, num[2 * k + 1]), "0", k, "1"),
                        ((), "0", 2 * k + 2, "1"), cap)

    return SymbolicGraph(
        spec="t",
        alphabet_for=alphabet_for,
        generate=generate,
        saturation=saturation,
        compact=False,
        point_set="omega^omega",
    )


# ---------------------------------------------------------------------------
# block graphs built from a dynamical system


# the most chain blocks, summed over block levels 0..L, that a Sturmian
# system's saturation bound L may ask a level walk to read: the rotation
# number near 1/1000 in the tests needs L = 1000, about 10^6 blocks, at level 2
_CHAIN_BLOCK_BUDGET = 10**7


class BlockSystem:
    """Supplies the words s_l(i) used as block labels, the half-lengths n_l,
    and for a periodic system `period(n)`: a period in i of every s_l(i) cut
    to n letters.  Each block is a prefix of the block at i one level up.
    A system without a period is Sturmian: s_l(i) is the factor of length
    l + 1 at i of the coding of the orbit of 0 by an irrational rotation r,
    and n_l = l."""

    def __init__(self, block, half_lengths, alphabet_base, period=None):
        self.block = block  # (l, i) -> Word of length l+1
        self.half_lengths = half_lengths  # l -> n_l
        self.alphabet_base = alphabet_base  # list of digit letters
        self.period = period

    def width(self, l: int) -> int:
        return 2 * self.half_lengths(l) + 2

    def check_chains(self, n: int, last: int) -> None:
        """Raises BudgetError when a Sturmian level-n walk through chains
        0..last would read more than `_CHAIN_BLOCK_BUDGET` blocks: chain l
        has width 2l + 2, so chains 0..L hold (L + 1)(L + 2)."""
        if self.period is None and (last + 1) * (last + 2) > _CHAIN_BLOCK_BUDGET:
            raise BudgetError("the level-%d pairs need the chains past block level %d, "
                              "over the budget of 10^7 chain blocks" % (n, last - 1))

    def saturation(self, n: int) -> int:
        """The block levels whose chains give every level-n pair: max(n, 1)
        for a periodic system, and for a Sturmian one the first L >= n - 1
        by which chains n - 1..L have read every factor, as follows.

        From block level l >= n - 1 on, a level-n prefix of an endpoint lies
        inside its block or reads c^n, so chain l gives (c^n, s_(n-1)(0)),
        the pair of each factor s_n(i), i <= 2l, read as its first and last
        n letters, and (s_(n-1)(2l+1), c^n).  A later chain thus adds a pair
        only with a factor of length n + 1 or an n-factor at an odd position
        not read before.  The coding has exactly m + 1 factors of length m
        (Morse-Hedlund), and each occurs at positions of both parities,
        since the points jr and (2k+1)r are dense in the circle and each
        factor codes an arc.  So all n + 2 and n + 1 of them are read by some
        L, and no chain past L gives a new pair.

        The level-n walk reads chains 0..L, and `check_chains` refuses an L
        past the chain block budget.  A rotation number near a rational of
        small denominator repeats short factors for long stretches, so its
        L can reach the hundreds of thousands at level 1."""
        if self.period is not None:
            return max(n, 1)
        factors, ends, l, start = set(), set(), max(n - 1, 0), 0
        while True:
            self.check_chains(n, l)
            factors.update(self.block(n, i) for i in range(start, self.width(l) - 1))
            ends.add(self.block(n - 1, self.width(l) - 1))
            if len(factors) == n + 2 and len(ends) == n + 1:
                return l
            start, l = self.width(l) - 1, l + 1


def odometer_block_system(d: Radix) -> BlockSystem:
    if not d.in_class_two_then_odd:
        raise FamilyError("odometer blocks need first bound 2 and odd later bounds")

    def block(l: int, i: int) -> Word:
        # the i-th iterate of 0^inf is i written with carries in the radix d,
        # followed by 0^inf, so its first l + 1 digits are those of i
        return prefix_of_value(d, i, l + 1)

    return BlockSystem(
        block=block,
        # n_l = (d_1 * ... * d_l - 1) / 2, the bound d_0 = 2 left out
        half_lengths=lambda l: (d.period(l + 1) // 2 - 1) // 2,
        alphabet_base=list(d.letters),
        # the i-th iterate cut to n digits repeats with period d_0 * ... * d_(n-1)
        period=d.period,
    )


def sturmian_block_system(r_spec: str) -> BlockSystem:
    """The blocks of the rotation by r: s_l(i) is the factor of length l + 1
    at position i of the coding of the orbit of 0."""
    r = parse_quadratic(r_spec)
    check_rotation_number(r)
    code: list = []  # the coding at 0 from position 0, extended on demand

    def block(l: int, i: int) -> Word:
        if i + l >= len(code):
            code.extend(sturmian_code(r, len(code), i + l))
        return tuple(code[i : i + l + 1])

    return BlockSystem(
        block=block,
        half_lengths=lambda l: l,
        alphabet_base=["0", "1"],
    )


class _ChainBlocks:
    """s_l(i) by index i, built on each read and not kept."""

    def __init__(self, block: Callable[[int, int], Word], l: int):
        self.block, self.l = block, l

    def __getitem__(self, i: int) -> Word:
        return self.block(self.l, i)


def graph_from_system(system: BlockSystem, spec: str,
                      chain: int | None = None) -> SymbolicGraph:
    """The degree-<=1 graph whose level-l part chains the blocks s_l(0),...,
    s_l(2n_l+1) between two marker points, approximating an odd cycle.

    By default every level l >= 0 has one chain.  With chain=p the graph is
    member p of the descending chain: only levels l >= p remain, and each
    level has one chain per marker word d^(j+1), j <= bound, written after
    every block, so that the closure carries a cycle of length 2 n_p + 3.

    `generate(bound, level)` walks each chain only as far as an n-letter
    prefix (n = level >= 1) can see.  The cuts are exact: every edge they skip
    projects onto a pair that an edge emitted earlier gave, so the level-n
    pairs and each pair's first edge are those of the full walk.

    - Middle of a chain: edge i joins s_l(i) D a^(i+1) abar^inf to
      s_l(i+1) D abar^(i+2) a^inf.  For i > n the runs fill the rest of both
      prefixes, so the pair depends only on s_l(i) and s_l(i+1) cut to n
      letters, which repeat with period(n).  Index i >= period(n) + n + 1
      thus repeats index i - period(n) > n of the same chain, and the walk
      stops at min(lam - 1, period(n) + n + 1).
    - Start of a Sturmian chain: for l >= n and l > p, edge i < lam_(l-1) - 1
      of chain l projects onto (s_l(i), s_l(i+1)) cut to n letters, and so
      does edge i of chain l - 1, since l - 1 >= n - 1 and each block is a
      prefix of the one above it.  Chain l walks its middle from index
      lam_(l-1) - 1 on.  An odometer chain starts at 0, as the periodic
      cut already bounds it.
    - Markers: every endpoint is an (l+1)-letter word followed by D, so a
      prefix reads at most n - l - 1 marker letters, and every marker longer
      than d^max(n - l - 1, 1) projects its chain exactly as that marker
      does.  Block level l walks only the first max(n - l - 1, 1) markers."""
    marked = chain is not None
    first = chain or 0
    alphabet = Alphabet(system.alphabet_base + ["c", "a", "abar"] + (["d"] if marked else []))

    def generate(bound: int, level: int) -> Iterator:
        system.check_chains(level, first + bound)  # a given bound as well as B(n)
        markers = [("d",) * (j + 1) for j in range(bound + 1)] if marked else [()]
        for l in range(first, first + bound + 1):
            lam = system.width(l)
            if not level:
                middle = range(lam - 1)
            elif system.period is not None:
                middle = range(min(lam - 1, system.period(level) + level + 1))
            else:
                middle = range(system.width(l - 1) - 1 if first < l and level <= l else 0,
                               lam - 1)
            if level:  # each block once per level, shared by every marker
                s = {i: system.block(l, i) for i in {0, *middle, middle.stop, lam - 1}}
            else:  # a sweep of the whole chain builds each block as it reads it
                s = _ChainBlocks(system.block, l)
            for D in markers[: max(level - l - 1, 1) if level else None]:
                yield _edge(level, (_c(l + 1) + D, "a", 1, "abar"), (s[0] + D, "abar", 1, "a"))
                for i in middle:
                    yield _edge(level, (s[i] + D, "a", i + 1, "abar"),
                                (s[i + 1] + D, "abar", i + 2, "a"))
                yield _edge(level, (s[lam - 1] + D, "a", lam, "abar"),
                            (_c(l + 1) + D, "abar", 1, "a"))

    return SymbolicGraph(
        spec=spec,
        alphabet_for=lambda n: alphabet,
        generate=generate,
        saturation=system.saturation,
        compact=True,
        point_set="closure of the %sblock graph projection" % ("marked " if marked else ""),
        system=system,
    )


def go_plus(d: Radix) -> SymbolicGraph:
    """Block graph of the odometer with the default schedule."""
    return graph_from_system(
        odometer_block_system(d), spec="go-plus:d=%s" % format_radix(d)
    )


def gp_chain(d: Radix, p: int) -> SymbolicGraph:
    """Member p of the descending chain: the odometer block graph with only
    block levels l >= p, every block doubled behind a marker letter 'd'."""
    if p < 0:
        raise FamilyError("p must be >= 0")
    return graph_from_system(odometer_block_system(d),
                             spec="gp:d=%s,p=%d" % (format_radix(d), p), chain=p)


# ---------------------------------------------------------------------------


def _orbit_edges(d: Radix, indices: Iterable[int], n: int) -> Iterator:
    """The edges (x_i, x_{i+1}) of the odometer orbit of the zero word for
    the increasing indices i given.  x_i is i written in the radix d, so its
    n-prefix is `prefix_of_value(d, i, n)`, and the points are iterates of
    the zero word, built on demand."""
    at, t = None, None
    for i in indices:
        s = t if i == at else prefix_of_value(d, i, n)
        at, t = i + 1, prefix_of_value(d, i + 1, n)
        yield s, t, lambda i=i: (odometer_iter(d, d.zero(), i), odometer_iter(d, d.zero(), i + 1))


def go_graph(d: Radix) -> SymbolicGraph:
    """Graph induced by the odometer itself on the digit space: edges join
    each point to its successor.  B(n) = max(n, 1) is complete: the level-n
    pair of edge i depends only on i mod P_n, and P_B(n) >= P_n."""
    alphabet = d.alphabet()

    def generate(bound: int, level: int) -> Iterator:
        return _orbit_edges(d, range(d.period(bound)), level)

    return SymbolicGraph(
        spec="graph-o:d=%s" % format_radix(d),
        alphabet_for=lambda n: alphabet,
        generate=generate,
        saturation=lambda n: max(n, 1),
        compact=True,
        point_set="full digit space",
    )


# ---------------------------------------------------------------------------
# restrictions of the odometer graph to countable orbit pieces


class OrbitIndexSet:
    """Decidable subset of omega with a finite description: a finite part,
    arithmetic progressions, and interval schemes: 0 and the intervals
    [3^(l+2), 3^(l+2) + 3^l) for l drawn from a described set."""

    def __init__(self, finite=(), progressions=(), scheme_levels=None):
        self.finite = frozenset(int(i) for i in finite)
        self.progressions = tuple((int(a), int(b)) for (a, b) in progressions)
        if any(b <= 0 for (_, b) in self.progressions):
            raise FamilyError("progression step must be positive")
        self.scheme_levels = scheme_levels  # OrbitIndexSet or None

    def least_from(self, i: int) -> int | None:
        """The least element >= i, None when there is none."""
        out = [f for f in self.finite if f >= i]
        # a + ceil((i - a) / b) * b past a
        out += [a if i <= a else a - (a - i) // b * b for (a, b) in self.progressions]
        if self.scheme_levels is not None:
            l = self.scheme_levels.least_from(_interval_past(i))
            if i <= 0 or l is not None:  # 0 is in every scheme set
                out.append(0 if i <= 0 else max(i, 3 ** (l + 2)))
        return min(out, default=None)

    def describe(self) -> str:
        parts = []
        if self.finite:
            parts.append("{%s}" % ",".join(str(i) for i in sorted(self.finite)))
        for (a, b) in self.progressions:
            parts.append("%d+%dk" % (a, b))
        if self.scheme_levels is not None:
            parts.append("sa{%s}" % self.scheme_levels.describe())
        return "|".join(parts) if parts else "{}"


def _interval_past(i: int) -> int:
    """The level l of the first scheme interval [9 * 3^l, 10 * 3^l) that
    ends past i."""
    l = 0
    while 10 * 3**l <= i:
        l += 1
    return l


def parse_index_set(s: str) -> OrbitIndexSet:
    """`{0,9}` | `1+2k` | `sa{{0,2}}` | `5` | unions joined with `|`; inside
    sa{...} the same grammar describes the level set."""
    s = s.strip()
    finite: set[int] = set()
    progressions = []
    scheme = None
    depth = 0
    parts, cur = [], ""
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "|" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if part.startswith("sa{") and part.endswith("}"):
            scheme = parse_index_set(part[3:-1])
            continue
        try:
            if part.startswith("{") and part.endswith("}"):
                inner = part[1:-1].strip()
                if inner:
                    finite |= {int(t) for t in inner.split(",")}
            elif "+" in part and part.endswith("k"):
                a, b = part[:-1].split("+")
                progressions.append((int(a), int(b)))
            else:
                finite.add(int(part))
        except ValueError:
            raise FamilyError("index set parts are N, {a,b}, a+bk or sa{...}, "
                              "joined by '|': %r" % part) from None
    return OrbitIndexSet(finite, progressions, scheme)


def restricted_orbit_graph(d: Radix, S: OrbitIndexSet) -> SymbolicGraph:
    """Edges join the i-th and (i+1)-st iterates of the zero word, for i in S.

    The bound is an index: `generate(bound, level)` walks the i <= bound in
    S.  The level-n pair of edge i is that of i mod P_n = d_0 ... d_(n-1),
    the value of the n-prefix of x_i, so B(n) need only pass an index of
    every residue S reaches: its finite part, P_n terms of each progression,
    and the scheme intervals up to the first one of 3^l >= P_n indices,
    which holds every residue; with no such level, up to the last one.

    The walk below B(n) leaves a scheme interval after P_n consecutive
    indices: they hold every residue mod P_n, so every later index of the
    interval repeats a pair whose first edge came earlier, and the level-n
    pairs and each pair's first edge are those of the whole walk.  A level-0
    walk keeps every index, see `SymbolicGraph`."""
    alphabet = d.alphabet()

    def saturation(n: int) -> int:
        out = max(S.finite, default=0)
        for (a, b) in S.progressions:
            out = max(out, a + b * d.period(n))
        levels = S.scheme_levels
        l = levels.least_from(0) if levels is not None else None
        while l is not None:
            out = max(out, 3 ** (l + 2) + 3**l)
            l = levels.least_from(l + 1) if 3**l < d.period(n) else None
        return out

    def indices(bound: int, period: int | None) -> Iterator[int]:
        i, run = S.least_from(0), 1  # run: the consecutive indices up to i
        while i is not None and i <= bound:
            yield i
            nxt = i + 1
            if period is not None and run >= period:
                l = _interval_past(i)
                if 9 * 3**l <= i:  # leave i's interval
                    nxt = 10 * 3**l
            j = S.least_from(nxt)
            run = run + 1 if j == i + 1 else 1
            i = j

    def generate(bound: int, level: int) -> Iterator:
        return _orbit_edges(d, indices(bound, d.period(level) if level else None), level)

    return SymbolicGraph(
        spec="orbit:d=%s,S=%s" % (format_radix(d), S.describe()),
        alphabet_for=lambda n: alphabet,
        generate=generate,
        saturation=saturation,
        compact=True,
        point_set="closure of a restricted orbit",
    )


# ---------------------------------------------------------------------------
# two-sided subshift families


def _shift_graph(spec: str, forest, saturation: Callable[[int], int],
                 point_set: str) -> SymbolicGraph:
    """Graph of the shift on the orbits of a declared forest: an edge joins
    each point base.shift(k) of a node's orbit walk (`ForestNode.shifts`,
    -bound..bound for an aperiodic base) to its shift by one, in forest
    order.  The level-n pair of shift k is read off the (2n + 1)-letter
    window w = [k - n, k + n] as (w[:-1], w[1:]), each node's windows
    sliced from one window of its base by `ForestNode.windows`; `points()`
    builds the two shifted points."""
    alphabet = Alphabet(["0", "1"])

    def generate(bound: int, level: int) -> Iterator:
        for node in forest.nodes.values():
            base = node.base
            for k, w in zip(node.shifts(bound), node.windows(bound, -level, level + 1)):
                yield w[:-1], w[1:], lambda k=k, base=base: (base.shift(k), base.shift(k + 1))

    return SymbolicGraph(
        spec=spec,
        alphabet_for=lambda n: alphabet,
        generate=generate,
        saturation=saturation,
        forest=forest,
        compact=True,
        point_set=point_set,
    )


def k0_graph() -> SymbolicGraph:
    """Graph of the shift on the union of the 2-periodic orbit and the orbit
    of the word with a single doubled letter: the forest rank_forest(0)."""
    return _shift_graph("k0", rank_forest(0), lambda n: 2 * n + 4,
                        "two shift orbits in {0,1}^Z")


def rank_subshift(n: int) -> SymbolicGraph:
    """Countable subshift of rank n+2: orbits of alpha_0..alpha_n and beta_n,
    the forest rank_forest(n)."""
    if not (0 <= n <= 4):
        raise FamilyError("rank parameter must be between 0 and 4")

    def saturation(level: int) -> int:
        # past this many shifts, every window already occurred: the block
        # stream repeats all narrow patterns within the first few blocks
        pos = 2
        for j in range(2 * level + 5):
            pos += len(rank_block(max(n, 1), j))
        return pos + 2 * level

    return _shift_graph("rank-subshift:n=%d" % n, rank_forest(n), saturation,
                        "countable subshift of rank %d" % (n + 2))


# ---------------------------------------------------------------------------
# the power-set embedding family


def ka_graph(A: Sequence[int]) -> SymbolicGraph:
    """Graph of a homeomorphism of a countable compact space whose finite
    cycles have lengths 4 and 4*2^(a+1) for a in A.

    Each point is (head, letter), the word head letter^inf, and the edges
    are clauses in this order: the 4-cycle of constant words, the two fixed
    edges of the spine through 4^inf, the spine at depths m = 0..bound, and
    the even cycle for each a in A.  `finite_core` reads the same clauses
    without the spine, whose orbit is infinite.

    B(n) = max(n - 1, 0) is exact.  A spine edge at depth m runs from a word
    that starts with e^(m+1) to one that starts with (e+1 mod 4)^m, so for
    m >= n its level-n pair is (e^n, (e+1 mod 4)^n), which the constant
    4-cycle yields first: no pair and no first representative needs depth n
    or more.  At depth n - 1 >= 1 the edge 3^n 2 0^inf -> 0^(n-1) 3 0^inf
    gives the pair (3^n, 0^(n-1) 3), which no other clause gives."""
    A = sorted(set(int(a) for a in A))
    if len(A) > 4 or any(a > 4 or a < 0 for a in A):
        raise FamilyError("A must be a set of at most 4 levels, each between 0 and 4")
    num = numerals(5)
    alphabet, cyc = Alphabet(num), num[:4] * 2  # cyc[e + k] is the letter e + k mod 4

    def clauses(depth: int | None) -> Iterator:
        """Each edge as its two points (head, letter); no spine if depth is None."""
        for e in range(4):
            yield ((), cyc[e]), ((), cyc[e + 1])
        if depth is not None:
            yield ((), num[4]), ((num[0],), num[1])
            yield ((num[3], num[2]), num[0]), ((), num[4])
            for m in range(depth + 1):
                for e in range(4):
                    E, F, G, D = cyc[e:e + 4]  # e, e + 1, e + 2 and e - 1
                    run, image = (E,) * (m + 1), (F,) * (m + 1)
                    # 3^(m+1) 0 1^inf goes to 0^(m+2) 1^inf
                    yield (run + (F,), num[1]), (image + (F if e == 3 else G,), num[1])
                    if e != 3:
                        yield (run + (D,), num[0]), (image + (E,), num[0])
                    elif m >= 1:  # 3^(m+1) 2 0^inf goes to 0^m 3 0^inf
                        yield (run + (D,), num[0]), (image[1:] + (E,), num[0])
        for a in A:
            blocks = [tuple(num[int(b)] for b in format(j, "0%db" % (a + 1)))
                      for j in range(2 ** (a + 1))]
            for j, s in enumerate(blocks):
                for e in range(4):
                    E, F, G = cyc[e:e + 3]
                    t = blocks[(j + 1) % len(blocks)] if e == 3 else s  # 3 moves to the next block
                    yield ((E,) * (a + 2) + (F,) + s, num[2]), ((F,) * (a + 2) + (G,) + t, num[2])

    def generate(bound: int, level: int) -> Iterator:
        for (h, c), (k, d) in clauses(bound):
            yield _edge(level, (h, c, 0, c), (k, d, 0, d))

    def finite_core() -> QuotientGraph:
        edges = [tuple(format_ult(UltWord(h, (c,))) for (h, c) in e) for e in clauses(None)]
        return finite_graph(sorted({v for e in edges for v in e}), edges)

    return SymbolicGraph(
        spec="ka:A=%s" % ",".join(str(a) for a in A),
        alphabet_for=lambda n: alphabet,
        generate=generate,
        saturation=lambda n: max(n - 1, 0),
        compact=True,
        point_set="countable compact subset of 5^omega",
        finite_core=finite_core,
    )


# ---------------------------------------------------------------------------
# family spec strings


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("integer expected: %r" % text) from None


# each family's arguments, as its usage error names them, and its constructor
_FAMILIES = {
    "gm": ({}, gm), "gdelta": ({"delta": "WORD"}, gdelta), "go-plus": ({"d": "RADIX"}, go_plus),
    "graph-o": ({"d": "RADIX"}, go_graph), "t": ({}, t_graph), "k0": ({}, k0_graph),
    "rank-subshift": ({"n": "N"}, rank_subshift), "gp": ({"d": "RADIX", "p": "N"}, gp_chain),
    "orbit": ({"d": "RADIX", "S": "INDEXSET"}, restricted_orbit_graph),
    "ka": ({"A": "N,..."}, ka_graph),
    "sturmian": ({"r": "QUADRATIC"}, lambda r: graph_from_system(sturmian_block_system(r),
                                                                "sturmian:r=" + r)),
}
# how an argument of each kind is read
_READERS = {
    "WORD": parse_ult, "RADIX": parse_radix, "N": _integer, "INDEXSET": parse_index_set,
    "N,...": lambda text: [_integer(t) for t in text.split(",")] if text else [],
    "QUADRATIC": str,
}


def parse_family(spec: str) -> SymbolicGraph:
    """A SymbolicGraph from its spec string; a trailing `:oriented` selects
    the primitive orientation.  Finite graph specs (`odd-cycle:p=N`,
    `file:PATH`, `FAMILY@LEVEL`) are the CLI's.  A missing, unknown or
    unreadable argument is an error that names the family's arguments; an
    index set keeps its own grammar error."""
    spec = spec.strip()
    oriented = spec.endswith(":oriented")
    name, _, argstr = spec.removesuffix(":oriented").partition(":")
    if name not in _FAMILIES:
        raise FamilyError("unknown family %r" % name)
    takes, build = _FAMILIES[name]
    usage = "%s takes %s; " % (name, ",".join(map("=".join, takes.items())) or "no arguments")
    args = _parse_args(argstr, usage)
    wrong = ["unknown argument " + k for k in args if k not in takes]
    wrong += ["missing " + k for k in takes if k not in args]
    if wrong:
        raise FamilyError(usage + wrong[0])
    values = []
    for key, kind in takes.items():
        try:
            values.append(_READERS[kind](args[key]))
        except FamilyError:
            raise
        except ValueError as e:
            raise FamilyError(usage + str(e)) from None
    g = build(*values)
    g.args = dict(zip(takes, values))
    if oriented:  # one direction per generated pair, by the generator's clause order
        g.directed, g.spec = True, g.spec + ":oriented"
    return g


def _parse_args(argstr: str, usage: str) -> dict:
    """key=value pairs separated by commas, where values may contain commas
    (a new key starts only at `name=`); text before any key is a `usage` error."""
    args: dict[str, str] = {}
    if not argstr:
        return args
    key = None
    for tok in argstr.split(","):
        head, eq, rest = tok.partition("=")
        if eq and head.isidentifier():
            key = head
            args[key] = rest
        else:
            if key is None:
                raise FamilyError(usage + "key=value expected: %r" % argstr)
            args[key] += "," + tok
    return args
