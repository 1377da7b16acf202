"""Exact eventually periodic words over finite alphabets.

Letters are short string tokens ("0", "1", "c", "abar", ...), words are
tuples of letters.  One-sided words are a finite head followed by a repeating
cycle; two-sided words additionally carry a repeating left cycle and remember
where coordinate 0 sits.  Every value is canonicalized on construction, so
equality and hashing are structural.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

Letter = str
Word = tuple  # tuple of letters


class WordError(ValueError):
    """Malformed word, alphabet or word expression."""


class BudgetError(RuntimeError):
    """A search or enumeration would exceed its fixed size budget."""


def primitive_root(w: Word) -> Word:
    """Shortest u with w == u * k."""
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[:p] * (n // p):
            return w[:p]
    return w


def _rot_left(w: Word) -> Word:
    return w[1:] + w[:1]


def _rot_right(w: Word) -> Word:
    return w[-1:] + w[:-1]


def _cyclic(cycle: Word, offset: int, n: int) -> Word:
    """n letters of cycle·cycle·..., the first being cycle[offset % |cycle|];
    empty when n <= 0."""
    o = offset % len(cycle)
    return (cycle * ((o + n - 1) // len(cycle) + 1))[o : o + max(n, 0)]


class Alphabet:
    """Ordered finite list of letter tokens; the order is used for sorting,
    walk tie-breaking and DOT labels."""

    def __init__(self, letters: Iterable[Letter]):
        self.letters: tuple[Letter, ...] = tuple(letters)
        if not self.letters:
            raise WordError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise WordError("alphabet has duplicate letters")
        self._code = {a: chr(i) for i, a in enumerate(self.letters)}

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def key(self, word: Sequence[Letter]) -> str:
        """Sort key for words, by letter order: one character per letter,
        its index as a code point, so keys compare as the index tuples do."""
        try:
            return "".join(map(self._code.__getitem__, word))
        except KeyError as e:
            raise WordError("letter %r not in alphabet" % e.args) from None

    def word(self, key: str) -> Word:
        """The word with this `key`, in the alphabet's own letter objects."""
        return tuple(map(self.letters.__getitem__, map(ord, key)))

    def __repr__(self):
        return "Alphabet(%s)" % (",".join(self.letters))


def numerals(n: int) -> list[Letter]:
    """The letters "0", ..., str(n - 1), interned: the same string objects
    on every call and as the literals "0", "1", ..., so words built from
    them share their letters."""
    return [sys.intern(str(i)) for i in range(n)]


# ---------------------------------------------------------------------------
# one-sided words


class UltWord:
    """Eventually periodic one-sided word head·cycle·cycle·...

    Canonical form: the cycle is primitive and the head is shortest (its last
    letter differs from the cycle letter that would be aligned with it), so
    two UltWords denote the same sequence iff they are equal.
    """

    __slots__ = ("head", "cycle")

    def __init__(self, head, cycle):
        head = list(head)
        cycle = primitive_root(tuple(cycle))
        if not cycle:
            raise WordError("cycle must be nonempty")
        while head and head[-1] == cycle[-1]:
            head.pop()
            cycle = _rot_right(cycle)
        self.head: Word = tuple(head)
        self.cycle: Word = cycle

    def __eq__(self, other):
        return (
            isinstance(other, UltWord)
            and self.head == other.head
            and self.cycle == other.cycle
        )

    def __hash__(self):
        return hash((self.head, self.cycle))

    def letter(self, i: int) -> Letter:
        if i < 0:
            raise WordError("one-sided words have no negative coordinates")
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def letters_used(self) -> set:
        return set(self.head) | set(self.cycle)

    def __repr__(self):
        return "UltWord(%s)" % format_ult(self)


# ---------------------------------------------------------------------------
# two-sided words

# A BiWord stores (left, core, right, start): the core occupies coordinates
# [start, start+|core|), the right cycle repeats from the core end on (letter
# at p is right[(p - end) % |right|]) and the left cycle repeats backwards
# below the core (letter at p is left[(p - start) % |left|]).  Canonical form
# trims the core maximally into both cycles and, when the core empties, slides
# the seam as far left as it goes; fully periodic words are re-anchored at 0.


class BiWord:
    """Eventually periodic two-sided word ...left·left·core·right·right...
    with an origin; coordinate 0 defaults to the first core letter."""

    __slots__ = ("left", "core", "right", "start")

    def __init__(self, left, core, right, start: int = 0):
        left = primitive_root(tuple(left))
        right = primitive_root(tuple(right))
        core = list(core)
        if not left or not right:
            raise WordError("both cycles must be nonempty")

        # trim the core into the right cycle, then into the left cycle
        while core and core[-1] == right[-1]:
            core.pop()
            right = _rot_right(right)
        while core and core[0] == left[0]:
            core.pop(0)
            start += 1
            left = _rot_left(left)

        if not core:
            same = all(
                left[(p - start) % len(left)] == right[(p - start) % len(right)]
                for p in range(-(len(left) * len(right)), len(left) * len(right))
            )
            if same:
                # fully periodic: re-anchor the unique cycle at coordinate 0
                cyc = tuple(right[(p - start) % len(right)] for p in range(len(right)))
                left = right = primitive_root(cyc)
                start = 0
            else:
                # slide the seam left while both patterns agree just below it
                while left[-1] == right[-1]:
                    start -= 1
                    left = _rot_right(left)
                    right = _rot_right(right)

        self.left: Word = left
        self.core: Word = tuple(core)
        self.right: Word = right
        self.start: int = start

    def __eq__(self, other):
        return (
            isinstance(other, BiWord)
            and self.left == other.left
            and self.core == other.core
            and self.right == other.right
            and self.start == other.start
        )

    def __hash__(self):
        return hash((self.left, self.core, self.right, self.start))

    @property
    def end(self) -> int:
        return self.start + len(self.core)

    def letter(self, p: int) -> Letter:
        if p < self.start:
            return self.left[(p - self.start) % len(self.left)]
        if p < self.end:
            return self.core[p - self.start]
        return self.right[(p - self.end) % len(self.right)]

    def window(self, a: int, b: int) -> Word:
        """Letters at coordinates a <= p < b: the left-cycle part, the core
        slice and the right-cycle part."""
        s, e = self.start, self.end
        return (_cyclic(self.left, a - s, min(b, s) - a)
                + self.core[max(a - s, 0) : max(min(b, e) - s, 0)]
                + _cyclic(self.right, max(a, e) - e, b - max(a, e)))

    def shift(self, k: int) -> "BiWord":
        """The word w with w(i) = self(i+k)."""
        return BiWord(self.left, self.core, self.right, self.start - k)

    def factors(self, m: int) -> set:
        """Exactly the set of length-m factors (both tails are periodic, so a
        bounded window around the core suffices)."""
        if m < 0:
            raise WordError("factor length must be >= 0")
        if m == 0:
            return {()}
        a = self.start - len(self.left) - m
        b = self.end + len(self.right) + m
        buf = self.window(a, b)
        return {buf[i : i + m] for i in range(len(buf) - m + 1)}

    def __repr__(self):
        return "BiWord(%s)" % format_bi(self)


class BlockWord:
    """Two-sided word with a periodic left tail and a lazily generated right
    tail made of concatenated finite blocks.

    Used for points whose right tail is an infinite block concatenation and
    not eventually periodic.  Supports exact window queries at any finite
    resolution; it has no canonical form, so comparisons are window-based.
    """

    __slots__ = ("left", "blocks", "start", "_buf", "_nblocks")

    def __init__(self, left, blocks: Callable[[int], Word], start: int = 0,
                 _shared=None):
        self.left: Word = primitive_root(tuple(left))
        self.blocks = blocks
        self.start = start
        if _shared is not None:
            self._buf, self._nblocks = _shared
        else:
            self._buf, self._nblocks = [], [0]

    def letter(self, p: int) -> Letter:
        if p < self.start:
            return self.left[(p - self.start) % len(self.left)]
        i = p - self.start
        while len(self._buf) <= i:
            blk = tuple(self.blocks(self._nblocks[0]))
            if not blk:
                raise WordError("block generator produced an empty block")
            self._buf.extend(blk)
            self._nblocks[0] += 1
        return self._buf[i]

    def window(self, a: int, b: int) -> Word:
        """Letters at positions a..b-1: the periodic left part cut from the
        repeated cycle, the rest sliced from the materialised tail."""
        left = _cyclic(self.left, a - self.start, min(b, self.start) - a)
        if b <= self.start:
            return left
        self.letter(b - 1)  # materialise the tail up to b - 1
        return left + tuple(self._buf[max(a - self.start, 0) : b - self.start])

    def shift(self, k: int) -> "BlockWord":
        # the block tail stays anchored where it was; only the origin moves
        return BlockWord(self.left, self.blocks, self.start - k,
                         _shared=(self._buf, self._nblocks))

    def __repr__(self):
        return "BlockWord(start=%d)" % self.start


# ---------------------------------------------------------------------------
# text grammar
#
# one-sided:  u(v)^inf           e.g.  01(10)^inf
# two-sided:  (u)^inf t.s(v)^inf e.g.  (01)^inf.1(01)^inf,  (01)^inf1.(01)^inf
#
# Letters are single characters unless the word's text holds a comma
# anywhere, in which case the letters of every part are its comma-separated
# tokens (needed for letters like "abar" or numerals >= 10); a word with a
# multi-character letter is written with at least one comma, as in
# `(abar,)^inf`.  A prefix parsed over an Alphabet (`parse_prefix`) also
# accepts comma-free strings of multi-character letters via greedy longest
# match.


def _letters(part: str, text: str) -> Word:
    """The letters of one part of a word's text."""
    if "," in text:
        return tuple(tok for tok in part.split(",") if tok != "")
    return tuple(part)


def _needs_commas(parts: Iterable[Word], alphabet: Alphabet | None = None) -> bool:
    # serialization must stay parseable over the alphabet: once any letter
    # token of the alphabet is multi-character, every word uses commas
    if alphabet is not None and any(len(a) > 1 for a in alphabet):
        return True
    return any(len(a) > 1 for part in parts for a in part)


def _fmt(part: Word, commas: bool) -> str:
    return ",".join(part) if commas else "".join(part)


def _comma_once(text: str, commas: bool) -> str:
    """A text written with commas holds one: else a comma closes the first
    cycle, as in `(abar,)^inf`, so the parser splits at commas."""
    if commas and "," not in text:
        return text.replace(")^inf", ",)^inf", 1)
    return text


def format_ult(w: UltWord) -> str:
    commas = _needs_commas([w.head, w.cycle])
    head = _fmt(w.head, commas)
    cyc = "(%s)^inf" % _fmt(w.cycle, commas)
    return _comma_once(head + "," + cyc if head and commas else head + cyc, commas)


def parse_ult(s: str) -> UltWord:
    s = s.strip()
    if not s.endswith(")^inf"):
        raise WordError("one-sided word must end with (cycle)^inf: %r" % s)
    open_idx = s.rfind("(")
    if open_idx < 0:
        raise WordError("missing '(' in %r" % s)
    cyc = _letters(s[open_idx + 1 : -len(")^inf")], s)
    return UltWord(_letters(s[:open_idx], s), cyc)


def format_bi(b: BiWord) -> str:
    # render cycles re-anchored so the left one ends just before the printed
    # core and the right one starts just after it; the dot marks coordinate 0
    commas = _needs_commas([b.left, b.core, b.right])
    pre = b.window(b.start, 0) if b.start < 0 else ()
    post = b.window(0, b.end) if b.end > 0 else ()
    left_anchor = min(b.start, 0)
    right_anchor = max(b.end, 0)
    lcyc = tuple(b.letter(left_anchor - len(b.left) + i) for i in range(len(b.left)))
    rcyc = tuple(b.letter(right_anchor + i) for i in range(len(b.right)))
    out = "(%s)^inf" % _fmt(lcyc, commas)
    if pre:
        out += ("," if commas else "") + _fmt(pre, commas)
    out += "."
    if post:
        out += _fmt(post, commas) + ("," if commas else "")
    out += "(%s)^inf" % _fmt(rcyc, commas)
    return _comma_once(out, commas)


def parse_bi(s: str) -> BiWord:
    s = s.strip()
    if not s.startswith("("):
        raise WordError("two-sided word must start with (cycle)^inf: %r" % s)
    close = s.find(")^inf")
    if close < 0:
        raise WordError("missing ')^inf' in %r" % s)
    left = _letters(s[1:close], s)
    rest = s[close + len(")^inf") :]
    dot = rest.find(".")
    if dot < 0:
        raise WordError("missing '.' (origin) in %r" % s)
    pre = _letters(rest[:dot], s)
    tail = rest[dot + 1 :]
    if not tail.endswith(")^inf"):
        raise WordError("two-sided word must end with (cycle)^inf: %r" % s)
    open_idx = tail.rfind("(")
    right = _letters(tail[open_idx + 1 : -len(")^inf")], s)
    post = _letters(tail[:open_idx], s)
    return BiWord(left, pre + post, right, start=-len(pre))


def format_word(w: Word, alphabet: Alphabet | None = None) -> str:
    return ",".join(w) if _needs_commas([w], alphabet) else "".join(w)


def parse_prefix(s: str, alphabet: Alphabet | None = None) -> Word:
    s = s.strip()
    if "," in s or alphabet is None or all(len(a) == 1 for a in alphabet):
        return _letters(s, s)
    out = []
    i = 0
    toks = sorted(alphabet.letters, key=len, reverse=True)
    while i < len(s):
        for tok in toks:
            if s.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            raise WordError("cannot tokenize %r over %r" % (s, alphabet))
    return tuple(out)
