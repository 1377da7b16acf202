"""Word representation tests: canonical forms checked against a brute-force
"materialize a long window" oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clopen.words import (
    Alphabet,
    BiWord,
    UltWord,
    WordError,
    format_bi,
    format_ult,
    numerals,
    parse_bi,
    parse_prefix,
    parse_ult,
)


def unroll(head, cycle, n):
    """Oracle: first n letters of head·cycle·cycle·..."""
    out = list(head)
    while len(out) < n:
        out.extend(cycle)
    return tuple(out[:n])


def prefix(w, n):
    """Oracle: the first n letters of the UltWord w."""
    return unroll(w.head, w.cycle, n)


def bi_window(left, core, right, start, a, b):
    """Oracle: letters of ...left·core·right... on [a, b) with core at start."""
    out = []
    for p in range(a, b):
        if p < start:
            out.append(left[(p - start) % len(left)])
        elif p < start + len(core):
            out.append(core[p - start])
        else:
            out.append(right[(p - start - len(core)) % len(right)])
    return tuple(out)


def test_canonicalization_idempotent_and_value_preserving():
    rng = random.Random(11)
    for _ in range(300):
        head = tuple(rng.choice("012") for _ in range(rng.randrange(0, 6)))
        cycle = tuple(rng.choice("012") for _ in range(rng.randrange(1, 5)))
        w = UltWord(head, cycle)
        again = UltWord(w.head, w.cycle)
        assert (again.head, again.cycle) == (w.head, w.cycle)
        assert prefix(w, 30) == unroll(head, cycle, 30)


def test_eq_one_sided():
    assert parse_ult("0(10)^inf") == parse_ult("01(01)^inf")
    # non-primitive presentation normalizes
    assert UltWord("", "00") == UltWord("", "0")
    assert parse_ult("0(1)^inf") != parse_ult("1(0)^inf")


def test_eq_matches_long_unroll():
    rng = random.Random(3)
    for _ in range(300):
        h1 = tuple(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        c1 = tuple(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        h2 = tuple(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        c2 = tuple(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        w1, w2 = UltWord(h1, c1), UltWord(h2, c2)
        # 20 letters decide equality for these sizes (oracle)
        same = unroll(h1, c1, 20) == unroll(h2, c2, 20)
        assert (w1 == w2) == same


def test_factors_trivial_cases():
    assert parse_bi("(01)^inf.(01)^inf").factors(2) == {("0", "1"), ("1", "0")}
    assert parse_bi("(01)^inf.1(01)^inf").factors(2) == {
        ("0", "1"),
        ("1", "0"),
        ("1", "1"),
    }


def test_factors_monotone():
    w = parse_bi("(001)^inf.11(01)^inf")
    for m in (1, 2, 3, 4, 5):
        big = w.factors(m)
        small = w.factors(m - 1)
        for word in big:
            assert word[:-1] in small and word[1:] in small


def test_shift_examples():
    b = parse_bi("(01)^inf.(01)^inf")
    assert b.shift(2) == b
    assert b.shift(1) != b
    d = parse_bi("(01)^inf.1(01)^inf")
    s = d.shift(1)
    assert s.letter(-1) == "1"
    assert format_bi(s) == "(01)^inf1.(01)^inf"
    assert d.shift(5).shift(-5) == d


def test_shift_group_law():
    rng = random.Random(13)
    words = [
        parse_bi("(01)^inf.1(01)^inf"),
        parse_bi("(0)^inf.100(1)^inf"),
        parse_bi("(011)^inf10.(0)^inf"),
    ]
    for b in words:
        for _ in range(40):
            j = rng.randrange(-16, 17)
            k = rng.randrange(-16, 17)
            assert b.shift(j).shift(k) == b.shift(j + k)


def test_shift_matches_window_oracle():
    rng = random.Random(17)
    for _ in range(200):
        left = tuple(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        core = tuple(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        right = tuple(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        start = rng.randrange(-5, 6)
        b = BiWord(left, core, right, start)
        assert b.window(-12, 12) == bi_window(left, core, right, start, -12, 12)
        k = rng.randrange(-8, 9)
        s = b.shift(k)
        assert s.window(-8, 8) == bi_window(left, core, right, start, -8 + k, 8 + k)


def test_biword_equality_iff_windows_agree():
    rng = random.Random(19)
    mk = lambda: BiWord(
        tuple(rng.choice("01") for _ in range(rng.randrange(1, 4))),
        tuple(rng.choice("01") for _ in range(rng.randrange(0, 4))),
        tuple(rng.choice("01") for _ in range(rng.randrange(1, 4))),
        rng.randrange(-4, 5),
    )
    for _ in range(400):
        b1, b2 = mk(), mk()
        # 40 coordinates decide equality at these sizes (oracle)
        same = b1.window(-20, 20) == b2.window(-20, 20)
        assert (b1 == b2) == same, (b1, b2)


def test_round_trip_text_grammar():
    for s in [
        "01(10)^inf",
        "(0)^inf",
        "0110(100)^inf",
        "c,a,(abar,c)^inf",
        "c,a,(abar)^inf",
        "(abar,)^inf",
    ]:
        w = parse_ult(s)
        assert parse_ult(format_ult(w)) == w
    for s in [
        "(01)^inf.1(01)^inf",
        "(01)^inf1.(01)^inf",
        "(0)^inf.(1)^inf",
        "(01)^inf10.(10)^inf",
        "(abar,)^inf.(c)^inf",
    ]:
        b = parse_bi(s)
        assert parse_bi(format_bi(b)) == b


def test_multicharacter_letters_round_trip():
    ab = Alphabet(["0", "1", "c", "a", "abar"])
    w = UltWord(("c", "a"), ("abar",))
    assert format_ult(w) == "c,a,(abar)^inf"
    assert parse_ult("c,a,(abar)^inf") == w
    # a text with a comma anywhere splits every part at its commas, and a
    # comma-free text into single characters, so a word with a
    # multi-character letter is written with a comma, closing its first
    # cycle when it has no other; a prefix over an alphabet is tokenized by
    # greedy longest match, as coloring files are read
    w = UltWord(("c", "a"), ("abar", "c"))
    assert parse_ult("c,a,(abar,c)^inf") == w
    assert parse_ult(format_ult(w)) == w
    w = UltWord((), ("abar",))
    assert format_ult(w) == "(abar,)^inf" and parse_ult("(abar,)^inf") == w
    assert parse_ult("(abar)^inf") == UltWord((), ("a", "b", "a", "r"))
    b = BiWord(("abar",), (), ("c",))
    assert format_bi(b) == "(abar,)^inf.(c)^inf" and parse_bi(format_bi(b)) == b
    assert parse_prefix("c,a,abar", ab) == parse_prefix("caabar", ab) == ("c", "a", "abar")
    assert parse_prefix("abara", ab) == ("abar", "a")


# letters of one to three characters, none of them a character of the grammar
LETTERS = st.text(alphabet="abc01", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(LETTERS, max_size=4), st.lists(LETTERS, min_size=1, max_size=4),
       st.lists(LETTERS, max_size=4), st.lists(LETTERS, min_size=1, max_size=4),
       st.integers(-5, 5))
def test_text_round_trips_words_of_any_letters(head, cycle, core, right, start):
    w = UltWord(head, cycle)
    assert parse_ult(format_ult(w)) == w
    b = BiWord(cycle, core, right, start)
    assert parse_bi(format_bi(b)) == b


def test_alphabet_validation():
    with pytest.raises(WordError):
        Alphabet([])
    with pytest.raises(WordError):
        Alphabet(["0", "0"])
    ab = Alphabet(["c", "0", "1"])
    assert ab.key(("0", "c")) == "\x01\x00"


def test_alphabet_key_orders_words_as_index_tuples():
    # multi-character letters ("10", "abar") sort by alphabet position, not
    # by their characters, and a word sorts before its extensions
    ab = Alphabet(numerals(11) + ["c", "a", "abar"])
    assert len(ab.letters) >= 12 and "10" in ab and "abar" in ab
    words = [w for n in range(4) for w in itertools.product(ab.letters, repeat=n)]
    by_index = sorted(words, key=lambda w: tuple(ab.letters.index(a) for a in w))
    assert sorted(words, key=ab.key) == by_index
    assert len({ab.key(w) for w in words}) == len(words)
    # a key decodes back to its word, in the alphabet's own letter objects
    for w in words:
        back = ab.word(ab.key(w))
        assert back == w and all(a is ab.letters[ab.letters.index(a)] for a in back)
    with pytest.raises(WordError, match="'b' not in alphabet"):
        ab.key(("0", "b"))
