"""CLI surface: subcommands, exit codes, determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clopen.cli import FAMILY_GRAMMAR, build_parser, main
from clopen.families import parse_family
from golden_corpus import (
    COLORING,
    CORPUS,
    GO34,
    GOLDEN,
    GP1,
    RETURN_PARITY,
    SCAN_JSON,
    STURMIAN,
    SUBSHIFT_TEXT,
    write_inputs,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scan_text_and_expectation(capsys):
    code, out, _ = run(capsys, "scan", "--family", "go-plus:d=2,(3)^inf",
                       "--levels", "4", "--expect", "odd-walk")
    assert code == 0
    assert "chi_c >= 3" in out
    code, _, err = run(capsys, "scan", "--family", "go-plus:d=2,(3)^inf",
                       "--levels", "4", "--expect", "bipartite")
    assert code == 1 and "MISMATCH" in err


def test_scan_json_deterministic(capsys):
    args = ("scan", "--family", "graph-o:d=(3)^inf", "--levels", "3",
            "--format", "json", "--no-timing")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert [e["oddGirth"] for e in payload["levels"]] == [3, 9, 27]
    assert all("millis" not in e for e in payload["levels"])


def test_decide_bipartite_and_color_roundtrip(tmp_path, capsys):
    colf = tmp_path / "c.txt"
    code, out, _ = run(capsys, "decide", "--family", "graph-o:d=3,4,(3)^inf",
                       "--level", "2", "--expect", "bipartite",
                       "--color-out", str(colf))
    assert code == 0 and colf.exists()
    code, out, _ = run(capsys, "color", "verify",
                       "--family", "graph-o:d=3,4,(3)^inf",
                       "--coloring", str(colf), "--bound", "4",
                       "--expect", "ok")
    assert code == 0 and out.startswith("ok")


def test_color_build_verify_roundtrip(tmp_path, capsys):
    colf = tmp_path / "p.txt"
    code, _, _ = run(capsys, "color", "build", "--family",
                     "graph-o:d=3,4,(3)^inf", "--kind", "parity",
                     "--out", str(colf))
    assert code == 0
    code, out, _ = run(capsys, "color", "verify", "--family",
                       "graph-o:d=3,4,(3)^inf", "--coloring", str(colf),
                       "--bound", "4", "--expect", "ok")
    assert code == 0


@pytest.mark.parametrize("kind", [("parity",), ("return-parity", "--cylinder", "13")])
def test_color_build_reads_the_radix_of_an_oriented_spec(capsys, kind):
    # the radix comes from the one parse of the spec, which strips :oriented;
    # only the header's family differs from the plain spec's output
    build = ("color", "build", "--kind") + kind + ("--family",)
    code, plain, _ = run(capsys, *build, "graph-o:d=3,4,(3)^inf")
    assert code == 0
    code, oriented, _ = run(capsys, *build, "graph-o:d=3,4,(3)^inf:oriented")
    assert code == 0
    head, _, mapping = oriented.partition("\n")
    assert head.endswith(" family=graph-o:d=3,4,(3)^inf:oriented")
    assert mapping == plain.partition("\n")[2] and mapping


def test_color_search(capsys):
    code, out, _ = run(capsys, "color", "search", "--family", "k0",
                       "--level", "4", "--colors", "3", "--expect", "found")
    assert code == 0
    code, out, _ = run(capsys, "color", "search", "--family", "k0",
                       "--level", "4", "--colors", "2", "--expect", "absent")
    assert code == 0


def test_color_verify_predicate(capsys):
    code, out, _ = run(capsys, "color", "verify", "--family", "t",
                       "--predicate", "t-coloring", "--bound", "10",
                       "--expect", "ok")
    assert code == 0 and "bounded sweep" in out


def test_subshift_commands(capsys):
    code, out, _ = run(capsys, "subshift", "member",
                       "--word", "(10101101)^inf.(10101101)^inf",
                       "--fib-p", "0", "--expect", "member")
    assert code == 0
    code, out, _ = run(capsys, "subshift", "complexity",
                       "--sturmian", "(3 - 1 sqrt 5)/2", "--nmax", "12")
    assert code == 0 and out.strip() == "2,3,4,5,6,7,8,9,10,11,12,13"
    code, out, _ = run(capsys, "subshift", "powerfree", "--fib-prefix", "500",
                       "--power", "4", "--expect", "ok")
    assert code == 0
    code, out, _ = run(capsys, "subshift", "lang", "--points",
                       "(01)^inf.(01)^inf", "--n", "3")
    assert code == 0 and "2 words" in out


def test_cb_rank_command(tmp_path, capsys):
    code, out, _ = run(capsys, "cb", "rank", "--family", "k0",
                       "--resolution", "40", "--expect-rank", "2")
    assert code == 0 and "verified" in out
    forest = tmp_path / "f.txt"
    forest.write_text(
        "node a orbit=(01)^inf.(01)^inf parent=root\n"
        "node b orbit=(01)^inf.1(01)^inf parent=a\n"
    )
    code, out, _ = run(capsys, "cb", "rank", "--forest", str(forest),
                       "--resolution", "40", "--expect-rank", "2")
    assert code == 0


def test_hom_and_spectrum_and_obstruct(capsys):
    code, out, _ = run(capsys, "hom", "--source", "odd-cycle:p=1",
                       "--target", "odd-cycle:p=0", "--expect", "found")
    assert code == 0
    code, out, _ = run(capsys, "hom", "--source", "odd-cycle:p=0",
                       "--target", "odd-cycle:p=1", "--expect", "absent")
    assert code == 0
    code, out, _ = run(capsys, "spectrum", "--family", "ka:A=1")
    assert code == 0 and out.strip() == "4,16"
    code, out, _ = run(capsys, "obstruct", "--g1", "gp:d=2,(3)^inf,p=0",
                       "--g2", "gp:d=2,(3)^inf,p=1", "--level", "2",
                       "--expect", "obstructed")
    assert code == 0


def test_hom_against_quotient(capsys):
    code, out, _ = run(capsys, "hom", "--source", "odd-cycle:p=0",
                       "--target", "graph-o:d=(3)^inf@1", "--expect", "found")
    assert code == 0


def test_hom_decides_before_search(capsys):
    # both bipartite, 108 source vertices: the connected source order finds
    # the map at once (the former order did not finish in 20 s)
    from clopen.cli import _finite_graph
    from test_oracles import is_hom

    source, target = GO34 + "@4", GO34 + "@2"
    code, out, _ = run(capsys, "hom", "--source", source, "--target", target,
                       "--expect", "found")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "found:"
    G, H = _finite_graph(source), _finite_graph(target)
    g_vertex, h_vertex = ({q.label(v): v for v in q.vertices} for q in (G, H))
    mapping = {g_vertex[u]: h_vertex[w]
               for u, w in (ln.strip().split(" -> ") for ln in lines[1:])}
    assert len(G.vertices) == 108 and is_hom(mapping, G, H)
    # odd girth 729 below 2187: refused before the size budget (729 x 2187
    # vertices) applies
    code, out, err = run(capsys, "hom", "--source", "graph-o:d=(3)^inf@6",
                         "--target", "graph-o:d=(3)^inf@7")
    assert (code, out, err) == (0, "absent: exhaustive search found no homomorphism\n", "")


def test_quotient_dot_and_family_show(capsys):
    code, out, _ = run(capsys, "quotient", "--family", "graph-o:d=(3)^inf",
                       "--level", "1", "--format", "dot")
    assert code == 0 and out.startswith("graph")
    code, out, _ = run(capsys, "family", "show", "--family", "gm", "--level", "1")
    assert code == 0 and "alphabet" in out


def test_bad_family_exits_2(capsys):
    code, _, err = run(capsys, "scan", "--family", "bogus", "--levels", "2")
    assert code == 2 or "bogus" in err
    # orbit index sets outside their grammar name it, not Python's int()
    for S, part in (("sa{0,2}", "0,2"), ("x", "x"), ("{1,,2}", "{1,,2}")):
        spec = "orbit:d=(3)^inf,S=" + S
        code, out, err = run(capsys, "family", "show", "--family", spec, "--level", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: unknown or malformed family %r (index set parts "
                              "are N, {a,b}, a+bk or sa{...}, joined by '|': %r)\n"
                              % (spec, part))
    # a missing, unknown or non-integer argument names the family's arguments
    for spec, reason in [
        ("graph-o:d=2,x,(3)^inf",
         "graph-o takes d=RADIX; radix digit bounds must be integers: '2,x,(3)^inf'"),
        ("graph-o:d=(3,)^inf", "graph-o takes d=RADIX; radix digit bounds must be integers: "
                               "'(3,)^inf'"),
        ("gp:d=2,(3)^inf,p=x", "gp takes d=RADIX,p=N; integer expected: 'x'"),
        ("rank-subshift:n=x", "rank-subshift takes n=N; integer expected: 'x'"),
        ("ka:A=0,x", "ka takes A=N,...; integer expected: 'x'"),
        ("ka:A=-1", "A must be a set of at most 4 levels, each between 0 and 4"),
        ("gp:d=2,(3)^inf", "gp takes d=RADIX,p=N; missing p"),
        ("orbit:S=sa{0}", "orbit takes d=RADIX,S=INDEXSET; missing d"),
        ("graph-o:d=(3)^inf,q=1", "graph-o takes d=RADIX; unknown argument q"),
        ("gm:x=1", "gm takes no arguments; unknown argument x"),
        ("gp:2,(3)^inf", "gp takes d=RADIX,p=N; key=value expected: '2,(3)^inf'"),
    ]:
        code, out, err = run(capsys, "family", "show", "--family", spec, "--level", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: unknown or malformed family %r (%s)\n"
                              % (spec, reason))


def test_family_grammar_lists_only_family_specs():
    # the first line lists family specs, each of which parses, with and
    # without the :oriented suffix; finite graph specs have a line of their own
    families, graphs = FAMILY_GRAMMAR.split("\n")
    specs = families.split(": ", 1)[1].rsplit(" (suffix", 1)[0].split(" | ")
    assert len(specs) == 11 and "gm" in specs
    for spec in specs:
        parse_family(spec)
        assert parse_family(spec + ":oriented").directed
    assert graphs.endswith(": odd-cycle:p=N | file:PATH | FAMILY@LEVEL")


# every leaf of the command tree
SUBCOMMAND_PATHS = [
    ("family", "show"), ("quotient",), ("decide",), ("scan",),
    ("color", "build"), ("color", "verify"), ("color", "search"),
    ("subshift", "member"), ("subshift", "lang"), ("subshift", "complexity"),
    ("subshift", "powerfree"), ("cb", "rank"), ("hom",), ("spectrum",), ("obstruct",),
]
USAGE_ERRORS = [
    (),  # no command
    ("bogus",),
    ("sca",),  # a prefix of a command is no command
    ("-x", "scan"),
    ("color",),  # no nested command
    ("color", "bogus"),
    ("scan", "--levels", "2"),  # missing --family
    ("quotient", "--family", "gm", "--level", "x"),
    ("scan", "--family", "gm", "--levels", "2", "--bogus"),
]


def exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as ei:
        parse(list(argv))
    out = capsys.readouterr()
    return ei.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [("--help",), ("family", "--help"), ("color", "--help"),
                                  ("subshift", "--help"), ("cb", "--help")]
                         + [path + ("--help",) for path in SUBCOMMAND_PATHS], ids=" ".join)
def test_help_equals_the_full_parser(capsys, argv):
    # main builds the arguments of the named command only
    full = exit_and_output(capsys, build_parser().parse_args, argv)
    assert full[0] == 0 and full[1].startswith("usage: clopen")
    assert exit_and_output(capsys, main, argv) == full


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "empty")
def test_usage_errors_equal_the_full_parser(capsys, argv):
    full = exit_and_output(capsys, build_parser().parse_args, argv)
    assert full[:2] == (2, "") and full[2].startswith("usage: clopen")
    assert exit_and_output(capsys, main, argv) == full


@pytest.mark.parametrize("argv,code,name", [
    (("--help",), 0, "help-clopen.txt"),
    (("scan", "--help"), 0, "help-scan.txt"),
    (("color", "search", "--help"), 0, "help-color-search.txt"),
    (("bogus",), 2, "usage-bogus.txt"),
    (("scan", "--levels", "2"), 2, "usage-scan-levels-2.txt"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_help_and_usage_errors_match_golden(argv, code, name):
    # a fresh process at a fixed width, against text recorded while every
    # message of the parser went through gettext: the two tests above compare
    # main with build_parser, which share one message hook
    proc = subprocess.run([sys.executable, "-m", "clopen.cli", *argv],
                          env=subprocess_env(COLUMNS="80"), capture_output=True, text=True,
                          timeout=60)
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        (code, golden, "") if code == 0 else (code, "", golden))


def test_one_command_parser_has_no_other_arguments(capsys):
    code, _, err = exit_and_output(capsys, build_parser("scan").parse_args,
                                   ("hom", "--source", "odd-cycle:p=1", "--target", "k0@1"))
    assert code == 2 and "unrecognized arguments: --source" in err


def subprocess_env(**extra):
    """The environment for a `clopen` subprocess: this checkout's `src`
    first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_scan_orbit_with_a_long_scheme_interval_finishes():
    # sa{{0,14}} holds the interval [3^16, 3^16 + 3^14), which each level's
    # bound passes; the walk leaves it after P_n indices, so the scan takes
    # a fraction of a second, where walking all 3^14 did not finish level 1
    # in 20 s
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "clopen.cli", "scan", "--family", "orbit:d=(3)^inf,S=sa{{0,14}}",
         "--levels", "4", "--format", "json", "--no-timing"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    levels = json.loads(proc.stdout)["levels"]
    assert [(e["edgeCount"], e["oddGirth"]) for e in levels] == [(3**n, 3**n) for n in range(1, 5)]


@pytest.mark.parametrize("forbidden,nmax,length", [("11", 28, 26), ("0" * 30, 1, 29)],
                         ids=["fibonacci", "thirty-zeros"])
def test_forbidden_language_past_the_word_budget_exits_2(forbidden, nmax, length):
    # {11} has 317,811 words of length 26, and one run 0^30 has 2^29 words
    # of length 29 to enumerate before its first length: both are refused
    # at 200,000 words of one length, within the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "clopen.cli", "subshift", "complexity", "--forbidden", forbidden,
         "--nmax", str(nmax)], env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: more than 200000 words of length %d avoid the forbidden "
                           "words, over the budget\n" % length)


NEAR_QUARTER = "sturmian:r=(0 + 1 sqrt 1000003)/4000"


@pytest.mark.parametrize("argv,past", [
    (["scan", "--family", NEAR_QUARTER, "--levels", "3"], 3160),
    (["quotient", "--family", NEAR_QUARTER, "--level", "1", "--bound", "100000"], 99999),
    (["family", "show", "--family", NEAR_QUARTER, "--level", "1", "--bound", "100000"], 99999),
], ids=["scan", "quotient-bound", "family-show-bound"])
def test_sturmian_saturation_past_the_chain_block_budget_exits_2(argv, past):
    # r = sqrt(1000003)/4000 lies within 4 * 10^-7 of 1/4: the level-1 pairs
    # need block level 333,335, some 10^11 chain blocks, where the scan ran
    # for more than 150 s; it is refused at block level 3161, past 10^7 blocks.
    # An explicit --bound of 10^5 asks for chains 0..10^5, some 10^10 blocks,
    # where the walk ran past a 10-s timeout; the same check refuses it
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "clopen.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the level-1 pairs need the chains past block level %d, "
                           "over the budget of 10^7 chain blocks\n" % past)


@pytest.mark.parametrize("argv,out", [
    (["decide", "--family", "gp:d=2,(3)^inf,p=12", "--level", "0"],
     "gp:d=2,(3)^inf,p=12 level 0: odd-walk\n  odd closed walk: <empty> <empty>\n"),
    (["quotient", "--family", "go-plus:d=2,(3)^inf", "--level", "0", "--bound", "13"],
     "go-plus:d=2,(3)^inf level 0: 1 vertices, 1 edges\n  <empty> -- <empty>\n"),
], ids=["decide-gp-12", "quotient-go-plus-13"])
def test_level_zero_quotient_reads_one_edge(argv, out):
    # level 0 has the one pair ((), ()): the quotient and its first edge stop
    # at the stream's first edge, where the uncut chains 12-13 hold about
    # 2 * 10^6 blocks
    proc = subprocess.run([sys.executable, "-m", "clopen.cli", *argv], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=10)
    assert proc.stdout == out


# the modules perfbench/tracer.py wraps right after `import clopen.cli`
TRACED_MODULES = ("cli", "words", "dynamics", "families", "quotients", "colorings", "homs",
                  "subshift_lang")


def test_cli_import_loads_the_library_but_not_json_or_fractions():
    env = subprocess_env()
    # -S: no site hooks, so only what the import itself loads is counted
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import clopen.cli, sys; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"clopen." + m for m in TRACED_MODULES} <= loaded
    assert not loaded & {"json", "fractions", "decimal", "typing", "copy"}


@pytest.mark.parametrize("argv", [
    ("hom", "--source", "odd-cycle:p=1", "--target", "odd-cycle:p=0"),
    ("scan", "--family", "gm", "--levels", "3", "--format", "json"),
], ids=["hom", "scan-json"])
def test_a_command_that_parses_cleanly_loads_no_locale_typing_or_copy(argv):
    # -S: no site hooks, which may load typing and weakref themselves; the
    # parser is built without gettext's catalogue search, which imports
    # locale, and the library needs typing only for annotations
    code = ("import sys, argparse\n"
            "hook = argparse._\n"
            "from clopen.cli import main\n"
            "rc = main(%r)\n"
            "assert argparse._ is hook\n"
            "print(rc, *sorted(sys.modules), file=sys.stderr)\n" % list(argv))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    rc, *loaded = proc.stderr.split()
    assert rc == "0" and "clopen.cli" in loaded
    assert not set(loaded) & {"locale", "typing", "copy", "weakref"}


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_output_pipe_exits_141_quietly(unbuffered):
    # the reader closes the pipe before the command writes its 229 KB, more
    # than a pipe holds, so the write fails whether stdout is buffered or not
    env = subprocess_env(PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "clopen.cli", "family", "show", "--family", "gm", "--level", "6",
         "--sample", "3000"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["scan", "--levels", "2"])  # missing --family
    assert ei.value.code == 2


def test_scan_levels_and_bound_usage(capsys):
    code, _, err = run(capsys, "scan", "--family", "gm", "--levels", "0")
    assert code == 2 and err == "usage error: level budget must be positive\n"
    # only family show and quotient enumerate with an overridden bound
    for argv in (("scan", "--family", "gm", "--levels", "2"),
                 ("decide", "--family", "gm", "--level", "2"),
                 ("obstruct", "--g1", "gm", "--g2", "gm", "--level", "2")):
        with pytest.raises(SystemExit) as ei:
            main(list(argv) + ["--bound", "3"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --bound 3" in capsys.readouterr().err


def test_scan_budget_flag(capsys):
    code, out, err = run(capsys, "scan", "--family", "go-plus:d=2,(3)^inf",
                         "--levels", "4", "--budget-ms", "0")
    assert code == 0 and "partial" in err + out


@pytest.mark.parametrize("family, expected", [("gm", "odd-walk"),
                                              ("graph-o:d=3,4,(3)^inf", "bipartite")])
def test_scan_expectation_when_no_level_was_decided(capsys, family, expected):
    code, _, err = run(capsys, "scan", "--family", family, "--levels", "3",
                       "--budget-ms", "0", "--expect", expected)
    assert code == 1 and err.endswith("MISMATCH: expected %s, got undecided\n" % expected)


def test_two_sided_coloring_file_roundtrip(tmp_path, capsys):
    colf = tmp_path / "k0c.txt"
    code, _, _ = run(capsys, "color", "search", "--family", "k0", "--level",
                     "2", "--colors", "3", "--out", str(colf),
                     "--expect", "found")
    assert code == 0
    assert "kind=window" in colf.read_text().splitlines()[0]
    code, out, _ = run(capsys, "color", "verify", "--family", "k0",
                       "--coloring", str(colf), "--bound", "2",
                       "--expect", "ok")
    assert code == 0



def test_window_coloring_verified_through_wider_windows(tmp_path, capsys):
    # a level-2 window coloring checked on the level-4 and level-6 quotients,
    # whose windows are cut to their central 4 letters; a window whose
    # cylinder the file lacks is an input error
    colf = tmp_path / "k0c.txt"
    run(capsys, "color", "search", "--family", "k0", "--level", "2", "--colors", "3",
        "--out", str(colf))
    verify = ("color", "verify", "--family", "k0", "--coloring", str(colf), "--bound")
    for bound, edges in (("4", 18), ("6", 26)):
        assert run(capsys, *verify, bound) == (
            0, "ok (complete, %d edges checked, bound %s)\n" % (edges, bound), "")
    lines = colf.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[4] == "1011 2\n"
    colf.write_text("".join(lines[:4] + lines[5:]), encoding="utf-8")
    assert run(capsys, *verify, "4") == (2, "", "error: prefix '1011' not in the declared map\n")

def test_multicharacter_numeral_coloring_roundtrip(tmp_path, capsys):
    # a radix with an eleven makes the numeral "10" a letter: serialization
    # must switch to commas everywhere or "10" collides with "1","0"
    colf = tmp_path / "c11.txt"
    code, _, _ = run(capsys, "decide", "--family", "graph-o:d=11,2,(3)^inf",
                     "--level", "2", "--expect", "bipartite",
                     "--color-out", str(colf))
    assert code == 0
    assert "0,0 0" in colf.read_text()
    code, out, _ = run(capsys, "color", "verify",
                       "--family", "graph-o:d=11,2,(3)^inf",
                       "--coloring", str(colf), "--bound", "3",
                       "--expect", "ok")
    assert code == 0


@pytest.mark.parametrize("family,levels,name", SCAN_JSON)
def test_scan_json_matches_golden(capsys, family, levels, name):
    # pins every witness: a change to the odd-walk tie-break fails here
    code, out, _ = run(capsys, "scan", "--family", family, "--levels", levels,
                       "--format", "json", "--no-timing")
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_scan_graph_o_9_matches_golden_digests(capsys):
    # each level is one odd cycle of 3^n vertices; the golden, recorded with
    # the search from every root, holds a sha256 of each witness's labels
    code, out, _ = run(capsys, "scan", "--family", "graph-o:d=(3)^inf", "--levels", "9",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    for e in payload["levels"]:
        vertices = e["witness"].pop("vertices")
        e["witness"]["sha256"] = hashlib.sha256("\n".join(vertices).encode()).hexdigest()
    assert payload == json.loads((GOLDEN / "scan-graph-o-9-digests.json").read_text(encoding="utf-8"))
    assert [e["oddGirth"] for e in payload["levels"]] == [3 ** n for n in range(1, 10)]


def test_scan_go_plus_8_matches_golden_digests(capsys):
    # each level is a long odd cycle with two branch vertices; the golden,
    # recorded with one length search per core vertex, holds a sha256 of each
    # witness's labels
    code, out, _ = run(capsys, "scan", "--family", "go-plus:d=2,(3)^inf", "--levels", "8",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    for e in payload["levels"]:
        vertices = e["witness"].pop("vertices")
        e["witness"]["sha256"] = hashlib.sha256("\n".join(vertices).encode()).hexdigest()
    assert payload == json.loads((GOLDEN / "scan-go-plus-8-digests.json").read_text(encoding="utf-8"))
    assert [e["oddGirth"] for e in payload["levels"]] == [3 ** (n - 1) + 2 for n in range(1, 9)]


def test_scan_go_plus_10_matches_golden_digests(capsys):
    # levels 9 and 10 have 19,715 and 59,085 vertices, enough for the flat
    # index, its build and the walk's state to show; the golden, recorded
    # with a tuple per index row and a dict of walk state, holds a sha256 of
    # each witness's labels
    code, out, _ = run(capsys, "scan", "--family", "go-plus:d=2,(3)^inf", "--levels", "10",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    for e in payload["levels"]:
        vertices = e["witness"].pop("vertices")
        e["witness"]["sha256"] = hashlib.sha256("\n".join(vertices).encode()).hexdigest()
    assert payload == json.loads((GOLDEN / "scan-go-plus-10-digests.json").read_text(encoding="utf-8"))
    assert [e["oddGirth"] for e in payload["levels"]] == [3 ** (n - 1) + 2 for n in range(1, 11)]


@pytest.mark.parametrize("argv,name", SUBSHIFT_TEXT, ids=["complexity-30", "lang-40", "powerfree-4", "powerfree-3", "cb-rank-3", "cb-rank-0",
        "cb-rank-1", "cb-rank-2", "cb-rank-4", "cb-rank-3-r10", "cb-rank-3-r80",
        "cb-rank-3-r200",
        "complexity-forbidden-16", "complexity-near-zero-12", "lang-other-40",
        "lang-near-zero-40", "complexity-other-40"])
def test_subshift_text_matches_golden(capsys, argv, name):
    # pins the coded languages, the power witness and the CB window probes
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


MEMBER = ("subshift", "member", "--word", "(01)^inf.(01)^inf", "--fib-p")
VERIFY_FILE = ("color", "verify", "--family", "gm", "--coloring")
# malformed coloring and forest files, written into the working directory of each case
INPUT_FILES = {
    "empty.txt": "",
    "no-level.txt": "colors=2 family=gm\n0 0\n",
    "bare-token.txt": "level=1 colors=2 gm\n0 0\n",
    "one-token.txt": "level=1 colors=2\nfoo\n",
    "level-x.txt": "level=x colors=2\n",
    "color-x.txt": "level=1 colors=2\n0 x\n",
    "forest-empty.txt": "",
    "forest-blank.txt": "\n  \n\n",
    "graph-empty.txt": "",
    "graph-header-2.txt": "directed=2\n0 1\n",
    "graph-header-extra.txt": "directed=0 extra\n0 1\n",
    "graph-three-tokens.txt": "directed=0\na b c\n",
    "k12.txt": "directed=0\n" + "".join("%d %d\n" % (i, j) for i in range(12) for j in range(i)),
}
FOREST_FORMAT = "error: forest has no node lines (node <id> orbit=<biword> parent=<id|root>)\n"
SPECTRUM_FLAGS = "usage error: give --graph SPEC or --family, not both\n"
QUADRATIC = "error: expected '(p +- q sqrt D)/s': "
HOM_FILE = ("hom", "--target", "odd-cycle:p=0", "--source")
GRAPH_HEADER = "error: graph file must start with the header directed=0 or directed=1: "


@pytest.mark.parametrize("argv,prefix", [
    (MEMBER + ("1",), "error: stage 1 needs 2^200 - 2 power words, over the budget"),
    (("color", "search", "--family", "gm", "--level", "2", "--colors", "9"), "error: "),
    (("spectrum", "--family", "ka:A=0,1", "--max-len", "100"), "error: "),
    (("cb", "rank", "--forest", "/nonexistent", "--resolution", "40"), "error: "),
    (MEMBER + ("-1",), "usage error: --fib-p must be >= 0"),
    (MEMBER + ("2",), "error: stage 2 needs 2^15175 - 2 power words"),
    (MEMBER + ("120",), "error: stage 120 needs 2^k - 2 (k of 752 bits) power words"),
    (MEMBER + ("100000",), "error: stage 100000 needs 2^k - 2 (k of 624820 bits) power "
                           "words, over the budget of 200000\n"),
    (("hom", "--source", "odd-cycle:x=1", "--target", "odd-cycle:p=0"), "usage error: "),
    (("color", "build", "--family", "gm", "--kind", "parity"), "usage error: "),
    (("color", "verify", "--family", "gm", "--bound", "2"), "usage error: "),
    (RETURN_PARITY + ("--cylinder", "x"), "usage error: "),
    (RETURN_PARITY + ("--cylinder", "13"), "usage error: "),
    (("quotient", "--family", "gm", "--level", "2", "--bound", "-5"),
     "usage error: --bound must be >= 0"),
    (("family", "show", "--family", "gm", "--level", "2", "--bound", "-1"),
     "usage error: --bound must be >= 0"),
    (("subshift", "lang", "--sturmian", STURMIAN, "--n", "-1"),
     "usage error: --n must be >= 0"),
    (("subshift", "complexity", "--sturmian", STURMIAN, "--nmax", "-2"),
     "usage error: --nmax must be >= 0"),
    (("color", "verify", "--family", "t", "--predicate", "t-coloring", "--bound", "-1"),
     "usage error: --bound must be >= 0"),
    (("cb", "rank", "--family", "k0", "--resolution", "0"),
     "usage error: --resolution must be >= 1"),
    (("spectrum", "--family", "ka:A=1", "--max-len", "-1"), "usage error: --max-len must be >= 0"),
    (("family", "show", "--family", "gm", "--sample", "-1"), "usage error: --sample must be >= 0"),
    (("scan", "--family", "gm", "--levels", "2", "--budget-ms", "-1"),
     "usage error: --budget-ms must be >= 0"),
    (("scan", "--family", "gm", "--levels", "2", "--budget-ms", "nan"),
     "usage error: --budget-ms must be >= 0\n"),
    (("subshift", "powerfree", "--fib-prefix", "-5", "--power", "3"),
     "usage error: --fib-prefix must be >= 0"),
    # errors of no family spec: one line, without the spec grammar
    (("subshift", "powerfree", "--word", "0101", "--power", "0"),
     "error: power must be >= 2\n"),
    (("quotient", "--family", "gm", "--level", "-1"), "error: level must be >= 0\n"),
    # a family without a declared forest, and an oriented variant
    (("cb", "rank", "--family", "k0:oriented"),
     "usage error: need --forest FILE or --family k0|rank-subshift:n=N\n"),
    (("cb", "rank", "--family", "gm"),
     "usage error: need --forest FILE or --family k0|rank-subshift:n=N\n"),
    # both sources of a forest, whatever the family; the file is never read
    (("cb", "rank", "--family", "gm", "--forest", "/nonexistent"),
     "usage error: give --forest FILE or --family, not both\n"),
    (("cb", "rank", "--family", "k0", "--forest", "/nonexistent"),
     "usage error: give --forest FILE or --family, not both\n"),
    # a FAMILY@LEVEL spec whose level is no integer
    (("hom", "--source", "odd-cycle:p=1", "--target", "k0@x"),
     "usage error: finite graph spec must be odd-cycle:p=N, file:PATH or FAMILY@LEVEL: "
     "'k0@x'\n"),
    # a digit that int() does not read
    (("hom", "--source", "odd-cycle:p=\u00b3", "--target", "odd-cycle:p=0"),
     "usage error: odd cycle spec must be odd-cycle:p=N with N >= 0: 'odd-cycle:p=\u00b3'\n"),
    (("spectrum",), SPECTRUM_FLAGS),
    (("spectrum", "--graph", "odd-cycle:p=0", "--family", "ka:A=0"), SPECTRUM_FLAGS),
    (VERIFY_FILE + ("empty.txt",), "error: empty coloring file\n"),
    (VERIFY_FILE + ("no-level.txt",), "error: coloring header must be level=L colors=K "
     "[family=F] [kind=window]: 'colors=2 family=gm'\n"),
    (VERIFY_FILE + ("bare-token.txt",), "error: coloring header must be level=L colors=K "
     "[family=F] [kind=window]: 'level=1 colors=2 gm'\n"),
    (VERIFY_FILE + ("one-token.txt",), "error: coloring line must be PREFIX COLOR: 'foo'\n"),
    (VERIFY_FILE + ("level-x.txt",), "error: coloring header must be level=L colors=K "
     "[family=F] [kind=window]: 'level=x colors=2'\n"),
    (VERIFY_FILE + ("color-x.txt",), "error: coloring line must be PREFIX COLOR: '0 x'\n"),
    (("subshift", "lang", "--sturmian", "()", "--n", "2"), QUADRATIC + "'()'\n"),
    (("subshift", "lang", "--sturmian", "(5 sqrt)", "--n", "2"), QUADRATIC + "'(5 sqrt)'\n"),
    (("subshift", "lang", "--sturmian", "(sqrt 5)", "--n", "2"), QUADRATIC + "'(sqrt 5)'\n"),
    # numbers that are not integers: the grammar, not Python's message
    (("subshift", "lang", "--sturmian", "(1 + 1 sqrt 5)/x", "--n", "2"),
     QUADRATIC + "'(1 + 1 sqrt 5)/x'\n"),
    (("subshift", "lang", "--sturmian", "(1 + sqrt 5)/3", "--n", "2"),
     QUADRATIC + "'(1 + sqrt 5)/3'\n"),
    (("subshift", "lang", "--sturmian", "(x)", "--n", "2"), QUADRATIC + "'(x)'\n"),
    (("subshift", "lang", "--sturmian", "(1 + 1 sqrt y)/2", "--n", "2"),
     QUADRATIC + "'(1 + 1 sqrt y)/2'\n"),
    # tokens outside the forms p, q sqrt D and p +- q sqrt D
    (("subshift", "lang", "--sturmian", "(1 + 2 + 1 sqrt 5)/8", "--n", "2"),
     QUADRATIC + "'(1 + 2 + 1 sqrt 5)/8'\n"),
    (("subshift", "lang", "--sturmian", "(1 7 sqrt 5)/8", "--n", "2"),
     QUADRATIC + "'(1 7 sqrt 5)/8'\n"),
    (("subshift", "lang", "--sturmian", "(9 9 9 1 sqrt 5)/8", "--n", "2"),
     QUADRATIC + "'(9 9 9 1 sqrt 5)/8'\n"),
    (("subshift", "lang", "--sturmian", "(1 + 1 sqrt 5 7)/2", "--n", "2"),
     QUADRATIC + "'(1 + 1 sqrt 5 7)/2'\n"),
    # a point outside omega^omega, the domain of the t-coloring
    (("color", "verify", "--family", "gm", "--predicate", "t-coloring", "--bound", "2"),
     "error: t-coloring is defined on omega^omega: first letter 'c' is not a numeral\n"),
    (("cb", "rank", "--forest", "forest-empty.txt"), FOREST_FORMAT),
    (("cb", "rank", "--forest", "forest-blank.txt"), FOREST_FORMAT),
    (HOM_FILE + ("file:graph-empty.txt",), GRAPH_HEADER + "''\n"),
    (HOM_FILE + ("file:graph-header-2.txt",), GRAPH_HEADER + "'directed=2'\n"),
    (HOM_FILE + ("file:graph-header-extra.txt",), GRAPH_HEADER + "'directed=0 extra'\n"),
    (HOM_FILE + ("file:graph-three-tokens.txt",), "error: graph line must be V or U V: 'a b c'\n"),
    # a cycle spectrum past its neighbour-scan budget: refused, not left running
    (("spectrum", "--graph", "file:k12.txt"),
     "error: cycle search exceeds the budget of 10^7 neighbour scans\n"),
    # a Sturmian block family fails the three-coloring's block hypothesis
    (("color", "build", "--family", "sturmian:r=" + STURMIAN, "--kind", "three-beta"),
     "error: block hypothesis fails at level 1 index 2: first letter '1', expected '0'\n"),
    # rotation numbers outside the irrationals of (0, 1/2)
    (("subshift", "lang", "--sturmian", "(1 + 1 sqrt 5)/2", "--n", "40"),
     "error: rotation number must lie in (0, 1/2)\n"),
    (("subshift", "lang", "--sturmian", "(1 + 0 sqrt 5)/2", "--n", "40"),
     "error: rotation number must be irrational\n"),
], ids=["fib-budget", "color-budget", "hom-budget", "missing-file", "fib-negative",
        "fib-2", "fib-120", "fib-100000", "odd-cycle-key", "parity-no-radix", "verify-no-coloring",
        "cylinder-letter", "cylinder-digit", "quotient-negative-bound", "show-negative-bound",
        "lang-negative-n", "complexity-negative-nmax", "verify-negative-bound",
        "cb-zero-resolution", "spectrum-negative-max-len", "show-negative-sample",
        "scan-negative-budget", "scan-nan-budget", "powerfree-negative-prefix", "powerfree-power-0",
        "quotient-negative-level", "cb-oriented-family", "cb-family-without-forest",
        "cb-family-and-forest", "cb-k0-and-forest", "hom-level-not-integer",
        "odd-cycle-superscript", "spectrum-no-source", "spectrum-two-sources",
        "coloring-empty", "coloring-no-level", "coloring-bare-token", "coloring-one-token",
        "coloring-level-not-integer", "coloring-color-not-integer", "sturmian-empty",
        "sturmian-no-discriminant", "sturmian-no-coefficient", "sturmian-denominator-letter",
        "sturmian-no-coefficient-before-sqrt", "sturmian-letter", "sturmian-discriminant-letter",
        "sturmian-two-sums", "sturmian-no-operator", "sturmian-four-terms",
        "sturmian-trailing-token",
        "t-coloring-letter", "forest-empty",
        "forest-blank", "graph-empty", "graph-header-2", "graph-header-extra",
        "graph-three-tokens", "spectrum-budget-k12", "three-beta-sturmian",
        "sturmian-above-half", "sturmian-rational"])
def test_budget_and_file_errors_exit_2(tmp_path, monkeypatch, capsys, argv, prefix):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("spec,reason", [
    ("rank-subshift:", "(rank-subshift takes n=N; missing n)"),
    ("rank-subshift:n=-1", "(rank parameter must be between 0 and 4)"),
    ("rank-subshift:n=5", "(rank parameter must be between 0 and 4)"),
    ("sturmian:r=()", "(expected '(p +- q sqrt D)/s': '()')"),
    ("sturmian:r=(1 + sqrt 5)/3", "(expected '(p +- q sqrt D)/s': '(1 + sqrt 5)/3')"),
])
def test_cb_rank_bad_family_exits_2(capsys, spec, reason):
    # the family parser's usage error: its reason, then the spec grammar
    code, out, err = run(capsys, "cb", "rank", "--family", spec)
    assert (code, out) == (2, "")
    assert err == "usage error: unknown or malformed family %r %s\n%s\n" % (
        spec, reason, FAMILY_GRAMMAR)


@pytest.mark.parametrize("argv,name", CORPUS, ids=[n.rsplit(".", 1)[0] for _, n in CORPUS])
def test_cli_matches_golden(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    colf = write_inputs(tmp_path, argv)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
    assert colf.read_text(encoding="utf-8") == COLORING


@pytest.mark.parametrize("family,level,name", [
    ("gm", "6", "color-search-gm-6.txt"),
    (GP1, "4", "color-search-gp1-4.txt"),
    ("k0", "8", "color-search-k0-8.txt"),
], ids=["gm-6", "gp1-4", "k0-8"])
def test_color_search_matches_golden(tmp_path, capsys, family, level, name):
    # pins the first proper 3-coloring the search finds
    colf = tmp_path / "c.txt"
    code, out, _ = run(capsys, "color", "search", "--family", family,
                       "--level", level, "--colors", "3", "--out", str(colf))
    assert code == 0
    assert out == "found: proper 3-coloring of the level-%s quotient\n" % level
    assert colf.read_text(encoding="utf-8") == (GOLDEN / name).read_text(encoding="utf-8")


def test_color_search_two_colors(tmp_path, capsys):
    # k = 2 is decided by the BFS 2-coloring: the level-4 quotient of graph-o
    # is an 81-cycle, and the level-3 quotient of GO34 is bipartite, with the
    # file the backtracking search wrote pinned
    code, out, _ = run(capsys, "color", "search", "--family", "graph-o:d=(3)^inf",
                       "--level", "4", "--colors", "2", "--expect", "absent")
    assert code == 0
    assert out == "absent: no proper 2-coloring of the level-4 quotient\n"
    colf = tmp_path / "c.txt"
    code, out, _ = run(capsys, "color", "search", "--family", GO34, "--level", "3",
                       "--colors", "2", "--out", str(colf))
    assert code == 0
    assert out == "found: proper 2-coloring of the level-3 quotient\n"
    assert colf.read_text(encoding="utf-8") == (GOLDEN / "color-search-go34-3-k2.txt").read_text(
        encoding="utf-8")
