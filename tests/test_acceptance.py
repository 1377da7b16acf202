"""Acceptance criteria, each a finite instance of one of the headline facts,
all exact (zero tolerance).  Criterion 11 re-runs every module invariant
suite in a subprocess.

One PASS/FAIL line per criterion is printed by the conftest hook; run
`pytest tests/test_acceptance.py` (add -q for just the lines)."""

import itertools
import subprocess
import sys
from pathlib import Path

from clopen.colorings import parity_coloring, search_coloring, t_coloring, verify_coloring
from clopen.dynamics import (
    fibonacci_len,
    fibonacci_limit_prefix,
    fibonacci_word,
    parse_quadratic,
    parse_radix,
    period_spectrum,
    periodic_point_period,
)
from clopen.families import gp_chain, ka_graph, odd_cycle, parse_family
from clopen.homs import cycle_spectrum, hom_exists, quotient_hom_obstruction
from clopen.quotients import Bipartite, decide_level, quotient, scan
from clopen.subshift_lang import (
    SturmianSubshift,
    cb_rank,
    complexity,
    expand_fib_forbidden,
    member,
    power_free_check,
    rank_forest,
)
from clopen.words import BiWord


def test_c01_odd_cycle_basis():
    """homs between odd cycles exist exactly downward, and the cycles are
    3-chromatic exactly."""
    for p in range(5):
        for q in range(5):
            found = hom_exists(odd_cycle(q), odd_cycle(p)) is not None
            assert found == (q >= p), (p, q)
    for p in range(5):
        q = odd_cycle(p)
        assert search_coloring(q, 2) is None
        assert search_coloring(q, 3) is not None


def test_c02_block_graph_criterion():
    """the odometer block graph fails the level test at every level, starting
    from the marker triangle."""
    g = parse_family("go-plus:d=2,(3)^inf")
    report = scan(g, 4)
    assert [e["verdict"] for e in report["levels"]] == ["odd-walk"] * 4
    witness = report["levels"][0]["witness"]
    assert witness["length"] == 3
    assert set(witness["vertices"]) == {"c", "0", "1"}


def test_c03_odometer_graph_dichotomy():
    """all-odd bounds: odd walks with girths 3, 9, 27, 81; an even bound
    yields a level-2 clopen 2-coloring matching the index parity."""
    g = parse_family("graph-o:d=(3)^inf")
    report = scan(g, 4)
    assert [e["verdict"] for e in report["levels"]] == ["odd-walk"] * 4
    assert [e["oddGirth"] for e in report["levels"]] == [3, 9, 27, 81]

    d = parse_radix("3,4,(3)^inf")
    g2 = parse_family("graph-o:d=3,4,(3)^inf")
    res = decide_level(g2, 2)
    assert isinstance(res, Bipartite)
    par = parity_coloring(d)
    assert par.level == 2
    assert verify_coloring(g2, par, 4).ok
    # the found coloring is the parity coloring up to a global swap
    found = res.coloring.mapping
    flip = found[("0", "0")] != par.mapping[("0", "0")]
    assert all(found[v] == (par.mapping[v] ^ 1 if flip else par.mapping[v])
               for v in found)


def test_c04_compactness_is_necessary():
    """the Baire-space family has odd walks at every level yet carries a
    clopen 2-coloring; the report flags the missing compactness."""
    g = parse_family("t")
    report = scan(g, 4)
    assert [e["verdict"] for e in report["levels"]] == ["odd-walk"] * 4
    assert not report["compact"]
    assert "not compact" in report["headline"]
    check = verify_coloring(g, t_coloring(), 10)
    assert check.ok and not check.complete


def test_c05_fibonacci_subshift():
    """length and parity laws, the growth inequality, membership of the
    21-periodic word, fourth-power freeness, and the minimal odd period."""
    for p in range(13):
        assert len(fibonacci_word(p)) == fibonacci_len(p)
        assert (fibonacci_len(p) % 2 == 0) == (p % 3 == 0)
    assert 8 * fibonacci_len(5) == 168
    # the recurrence (2, 3, 5, ...) puts 1597 at index 14, witnessing
    # 8 f_5 < f_14; the briefed figure 1364 follows from a mis-seeded
    # recurrence starting at 1 and contradicts the length law above
    assert fibonacci_len(14) == 1597
    assert 8 * fibonacci_len(5) < fibonacci_len(14)

    w5 = fibonacci_word(5)
    w5z = BiWord(w5, (), w5)
    assert member(w5z, expand_fib_forbidden(0))
    assert power_free_check(fibonacci_limit_prefix(500), 4) is None
    assert periodic_point_period(w5z) == 21
    assert all(w5z.shift(i) != w5z for i in range(1, 21))


def test_c06_descending_chain():
    """quotient odd girth strictly increases along the chain, and the
    obstruction report says so."""
    d = parse_radix("2,(3)^inf")
    g0, g1 = gp_chain(d, 0), gp_chain(d, 1)
    from clopen.quotients import odd_closed_walk

    assert odd_closed_walk(quotient(g0, 1)).length == 3
    assert odd_closed_walk(quotient(g1, 2)).length == 5
    rep = quotient_hom_obstruction(g0, g1, 2)
    assert rep.obstructed
    assert rep.odd_girths == (3, 5)
    assert "no continuous reduction" in rep.reason


def test_c07_sturmian_complexity():
    """factor counts are n+1 for n <= 12 at two exactly represented rotation
    numbers, from the exact language of the n+1 arcs between cut points."""
    for spec in ("(3 - 1 sqrt 5)/2", "(7 - 3 sqrt 5)/2"):
        s = SturmianSubshift(parse_quadratic(spec))
        assert complexity(s, 12) == [n + 1 for n in range(1, 13)]


def test_c08_doubled_letter_subshift():
    """rank 2 verified at resolution 40; odd walks at levels 1-4; a proper
    3-coloring of the level-4 quotient exists."""
    rep = cb_rank(rank_forest(0), 40)  # the two orbits of k0
    assert rep.rank == 2 and rep.verified
    g = parse_family("k0")
    report = scan(g, 4)
    assert [e["verdict"] for e in report["levels"]] == ["odd-walk"] * 4
    q4 = quotient(g, 4)
    assert search_coloring(q4, 3) is not None
    assert search_coloring(q4, 2) is None


def test_c09_period_spectra():
    """the spectra of the two digit sequences differ at position 2."""
    s1 = period_spectrum(parse_radix("2,(3)^inf"), 3)
    s2 = period_spectrum(parse_radix("2,5,(3)^inf"), 3)
    assert s1 == [2, 6, 18]
    assert s2 == [2, 10, 30]
    assert s1[1] == 6 and s2[1] == 10 and s1 != s2


def test_c10_power_set_embedding():
    """cycle spectra of the finite cores are monotone in the level set, and
    the 16-cycle separates the singletons."""
    subsets = []
    for r in range(4):
        subsets += [frozenset(c) for c in itertools.combinations(range(3), r)]
    spectra = {A: cycle_spectrum(ka_graph(sorted(A)).finite_core(), 40)
               for A in subsets}
    for A in subsets:
        for B in subsets:
            if A <= B:
                assert spectra[A] <= spectra[B]
    assert 16 in spectra[frozenset({1})]
    assert 16 not in spectra[frozenset({0})]


def test_c11_invariant_suites():
    """every module's invariant suite runs green over its stated ranges."""
    here = Path(__file__).parent
    files = [
        "test_words.py",
        "test_dynamics.py",
        "test_families.py",
        "test_quotients.py",
        "test_colorings.py",
        "test_subshift_lang.py",
        "test_homs.py",
        "test_cli.py",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--no-header", "-p", "no:cacheprovider"]
        + [str(here / f) for f in files],
        capture_output=True,
        text=True,
        cwd=str(here.parent),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
