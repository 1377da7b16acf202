"""The CLI golden corpus: (argv, golden) pairs, each of which exits 0 and
prints exactly its file under `tests/golden/`, and the input files they read.

`tests/test_cli.py` checks every entry in-process.  Run as a script,

    python tests/golden_corpus.py

replays every entry through `python -m clopen.cli` in a fresh temporary
directory, with this checkout's `src` first on PYTHONPATH, prints each
difference and exits 1 if there is one.  It imports no test dependency, so
it runs on every Python the package supports."""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
STURMIAN = "(3 - 1 sqrt 5)/2"
RETURN_PARITY = ("color", "build", "--family", "graph-o:d=(3)^inf", "--kind", "return-parity")

FOREST = (
    "node alpha0 orbit=(01)^inf.(01)^inf parent=root\n"
    "node beta0 orbit=(01)^inf.1(01)^inf parent=alpha0\n"
)
# multi-character letters: pair's separating factors of length 2 are a,a and
# bb,bb, and the least as letters is a,a
FOREST_LETTERS = (
    "node ring orbit=(bb,a)^inf.(bb,a)^inf parent=root\n"
    "node pair orbit=(bb,a)^inf.bb,bb,a,a,(bb,a)^inf parent=ring\n"
)
# a root with two children, one of which has a child of its own: the
# non-descendants of each node are more than its ancestors
FOREST_BRANCH = (
    "node ring orbit=(01)^inf.(01)^inf parent=root\n"
    "node one orbit=(01)^inf.1(01)^inf parent=ring\n"
    "node zero orbit=(01)^inf.0(01)^inf parent=ring\n"
    "node twice orbit=(01)^inf.1011(01)^inf parent=one\n"
)
# finite graph files: string vertex names, a directed graph, an isolated vertex
GRAPH_FILES = {
    "c5.txt": "directed=0\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "tri.txt": "directed=0\nred green\ngreen blue\nblue red\n",
    "week.txt": "directed=1\nsun mon\nmon tue\ntue sun\ntue wed\nwed thu\n",
    "rgb.txt": "directed=1\nred green\ngreen blue\nblue red\ngrey\n",
}
JSON = ("--format", "json", "--no-timing")
GO34 = "graph-o:d=3,4,(3)^inf"
GP1 = "gp:d=2,(3)^inf,p=1"
CORPUS = [
    # representatives pin the block-chain edge order and the orientation
    (("family", "show", "--family", "go-plus:d=2,(3)^inf", "--level", "2"),
     "family-show-go-plus-2.txt"),
    (("family", "show", "--family", GP1, "--level", "2"), "family-show-gp1-2.txt"),
    (("family", "show", "--family", "go-plus:d=2,(3)^inf:oriented", "--level", "2"),
     "family-show-go-plus-oriented-2.txt"),
    (("quotient", "--family", GP1, "--level", "3", "--format", "json"), "quotient-gp1-3.json"),
    (("scan", "--family", GO34, "--levels", "3") + JSON, "scan-graph-o-34-3.json"),
    (("decide", "--family", GO34, "--level", "2") + JSON, "decide-graph-o-34-2.json"),
    (("decide", "--family", "k0", "--level", "2") + JSON, "decide-k0-2.json"),
    (("scan", "--family", "sturmian:r=" + STURMIAN, "--levels", "3") + JSON,
     "scan-sturmian-3.json"),
    # the README CLI examples, verbatim
    (("scan", "--family", "go-plus:d=2,(3)^inf", "--levels", "4"), "readme-scan.txt"),
    (("decide", "--family", GO34, "--level", "2", "--color-out", "c.txt"), "readme-decide.txt"),
    (("color", "verify", "--family", GO34, "--coloring", "c.txt", "--bound", "4"),
     "readme-verify-c.txt"),
    (("color", "verify", "--family", "t", "--predicate", "t-coloring", "--bound", "10"),
     "readme-verify-t.txt"),
    (("color", "search", "--family", "k0", "--level", "4", "--colors", "3"),
     "readme-search-k0.txt"),
    (("quotient", "--family", "graph-o:d=(3)^inf", "--level", "2", "--format", "dot"),
     "readme-quotient-dot.txt"),
    (("subshift", "complexity", "--sturmian", STURMIAN, "--nmax", "12"), "readme-complexity.txt"),
    (("subshift", "member", "--word", "(10101101)^inf.(10101101)^inf", "--fib-p", "0"),
     "readme-member.txt"),
    (("subshift", "powerfree", "--fib-prefix", "500", "--power", "4"), "readme-powerfree.txt"),
    (("cb", "rank", "--family", "k0", "--resolution", "40"), "readme-cb-k0.txt"),
    (("cb", "rank", "--forest", "forest.txt", "--resolution", "40"), "readme-cb-forest.txt"),
    (("cb", "rank", "--forest", "forest-letters.txt", "--resolution", "40"),
     "cb-forest-letters.txt"),
    (("cb", "rank", "--forest", "forest-branch.txt", "--resolution", "20"),
     "cb-forest-branch.txt"),
    (("hom", "--source", "odd-cycle:p=1", "--target", "odd-cycle:p=0"), "readme-hom-c5-c3.txt"),
    (("hom", "--source", "odd-cycle:p=0", "--target", "graph-o:d=(3)^inf@1"),
     "readme-hom-c3-go1.txt"),
    (("spectrum", "--family", "ka:A=0,1"), "readme-spectrum.txt"),
    (("obstruct", "--g1", "gp:d=2,(3)^inf,p=0", "--g2", GP1, "--level", "2"),
     "readme-obstruct.txt"),
    # the README examples that print JSON, in JSON
    (("scan", "--family", "go-plus:d=2,(3)^inf", "--levels", "4") + JSON, "readme-scan-json.json"),
    (("obstruct", "--g1", "gp:d=2,(3)^inf,p=0", "--g2", GP1, "--level", "2") + JSON,
     "readme-obstruct-json.json"),
    # the first mapping the homomorphism search finds, or its absence
    (("hom", "--source", "graph-o:d=(3)^inf@3", "--target", "odd-cycle:p=2"),
     "hom-go3-c7.txt"),
    (("hom", "--source", "odd-cycle:p=4", "--target", "graph-o:d=(3)^inf@4"),
     "hom-c11-go4.txt"),
    (("hom", "--source", "graph-o:d=(3)^inf@7", "--target", "odd-cycle:p=0"),
     "hom-go7-c3.txt"),
    (("hom", "--source", "graph-o:d=(3)^inf@3", "--target", "odd-cycle:p=2",
      "--injective"), "hom-go3-c7-injective.txt"),
    # finite graphs from files, a level quotient as a finite graph, and an
    # oriented family's quotient and decision
    (("hom", "--source", "file:c5.txt", "--target", "file:tri.txt"), "hom-file-c5-tri.txt"),
    (("hom", "--source", "file:week.txt", "--target", "file:rgb.txt"), "hom-file-week-rgb.txt"),
    (("hom", "--source", "file:c5.txt", "--target", "file:rgb.txt"), "hom-file-c5-rgb.txt"),
    (("spectrum", "--graph", "file:week.txt"), "spectrum-file-week.txt"),
    (("spectrum", "--graph", "graph-o:d=(3)^inf@2"), "spectrum-go3-2.txt"),
    (("quotient", "--family", "go-plus:d=2,(3)^inf:oriented", "--level", "2") + JSON,
     "quotient-go-plus-oriented-2.json"),
    (("decide", "--family", "go-plus:d=2,(3)^inf:oriented", "--level", "2") + JSON,
     "decide-go-plus-oriented-2.json"),
    (("decide", "--family", "go-plus:d=2,(3)^inf:oriented", "--level", "2"),
     "decide-go-plus-oriented-2-text.txt"),
    # obstruction reasons: girth and spectrum, spectrum only, none
    (("obstruct", "--g1", "ka:A=0,1,2", "--g2", "ka:A=1", "--level", "3"),
     "obstruct-ka012-ka1-3.txt"),
    (("obstruct", "--g1", "ka:A=0,1,2", "--g2", "ka:A=1", "--level", "3") + JSON,
     "obstruct-ka012-ka1-3.json"),
    (("obstruct", "--g1", "ka:A=0,1", "--g2", "ka:A=0", "--level", "2"),
     "obstruct-ka01-ka0-2.txt"),
    (("obstruct", "--g1", "ka:A=0,1", "--g2", "ka:A=0", "--level", "2") + JSON,
     "obstruct-ka01-ka0-2.json"),
    (("obstruct", "--g1", "ka:A=1", "--g2", "ka:A=0,1,2", "--level", "2"),
     "obstruct-ka1-ka012-2.txt"),
    (("obstruct", "--g1", "ka:A=1", "--g2", "ka:A=0,1,2", "--level", "2") + JSON,
     "obstruct-ka1-ka012-2.json"),
    # parity colorings, and a return-parity coloring at a longer cylinder
    (("color", "build", "--family", GO34, "--kind", "parity"), "color-parity-go34.txt"),
    (("color", "build", "--family", "go-plus:d=2,(3)^inf", "--kind", "parity"),
     "color-parity-go-plus.txt"),
    (("color", "build", "--family", "graph-o:d=3,3,4,(3)^inf", "--kind", "parity"),
     "color-parity-go334.txt"),
    (RETURN_PARITY + ("--cylinder", "01"), "color-return-parity-go3-01.txt"),
    # three-colorings read from the odometer blocks of levels 0-5, and return
    # parities at cylinders of two and three digits
    (("color", "build", "--family", "go-plus:d=2,(3)^inf", "--kind", "three-beta"),
     "color-three-beta-go-plus.txt"),
    (("color", "build", "--family", GP1, "--kind", "three-beta"), "color-three-beta-gp1.txt"),
    (("color", "build", "--family", GO34, "--kind", "return-parity", "--cylinder", "13"),
     "color-return-parity-go34-13.txt"),
    (("color", "build", "--family", "graph-o:d=2,5,(4)^inf", "--kind", "return-parity",
      "--cylinder", "041"), "color-return-parity-go254-041.txt"),
    # orbit points of 0^inf as representatives: a radix with two head digits,
    # and an index set with a progression and a finite part
    (("family", "show", "--family", "graph-o:d=2,5,(4)^inf", "--level", "3"),
     "family-show-go254-3.txt"),
    (("family", "show", "--family", "orbit:d=2,(3)^inf,S=1+2k|{0,9}", "--level", "3"),
     "family-show-orbit23-3.txt"),
    # the saturation bounds: the Sturmian blocks through level 8, and at a
    # rotation number near 1/1000 with the quotient pinned from --bound 1100;
    # index 3^8 + 3^6 and beyond reach every residue mod 3
    (("scan", "--family", "sturmian:r=" + STURMIAN, "--levels", "8") + JSON,
     "scan-sturmian-8.json"),
    (("quotient", "--family", "sturmian:r=(1999 - 1 sqrt 5)/1997998", "--level", "2",
      "--format", "json"), "quotient-sturmian-near-zero-2.json"),
    (("decide", "--family", "orbit:d=(3)^inf,S=sa{{0,6}}", "--level", "1"),
     "decide-orbit-sa06-1.txt"),
    # the shift families' level pairs, and representatives built by BlockWord
    # thunks
    (("quotient", "--family", "rank-subshift:n=3", "--level", "6") + JSON,
     "quotient-rank-subshift-3-6.json"),
    (("family", "show", "--family", "rank-subshift:n=2", "--level", "3"),
     "family-show-rank-subshift-2-3.txt"),
    # ka's level pairs read off its clauses, with the representatives they
    # build: two even cycles, and all four low ones at level 5
    (("family", "show", "--family", "ka:A=0,2", "--level", "3"), "family-show-ka02-3.txt"),
    (("quotient", "--family", "ka:A=0,1,2,3", "--level", "5") + JSON, "quotient-ka0123-5.json"),
]

# coded languages, power witnesses and CB window probes, checked in-process
# by `test_subshift_text_matches_golden`
SUBSHIFT_TEXT = [
    (("subshift", "complexity", "--sturmian", STURMIAN, "--nmax", "30"),
     "subshift-complexity-sturmian-30.txt"),
    (("subshift", "lang", "--sturmian", STURMIAN, "--n", "40"),
     "subshift-lang-sturmian-40.txt"),
    (("subshift", "powerfree", "--fib-prefix", "2000", "--power", "4"),
     "subshift-powerfree-fib-2000-4.txt"),
    (("subshift", "powerfree", "--fib-prefix", "2000", "--power", "3"),
     "subshift-powerfree-fib-2000-3.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=3", "--resolution", "40"),
     "cb-rank-subshift-3.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=0", "--resolution", "40"),
     "cb-rank-subshift-0.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=1", "--resolution", "40"),
     "cb-rank-subshift-1.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=2", "--resolution", "40"),
     "cb-rank-subshift-2.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=4", "--resolution", "40"),
     "cb-rank-subshift-4.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=3", "--resolution", "10"),
     "cb-rank-subshift-3-r10.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=3", "--resolution", "80"),
     "cb-rank-subshift-3-r80.txt"),
    (("cb", "rank", "--family", "rank-subshift:n=3", "--resolution", "200"),
     "cb-rank-subshift-3-r200.txt"),
    (("subshift", "complexity", "--forbidden", "11,000", "--nmax", "16"),
     "subshift-complexity-forbidden-16.txt"),
    (("subshift", "complexity", "--sturmian", "(1999 - 1 sqrt 5)/1997998", "--nmax", "12"),
     "subshift-complexity-sturmian-near-zero-12.txt"),
    # recorded while each language was still read off n + 1 arc midpoints
    (("subshift", "lang", "--sturmian", "(7 - 3 sqrt 5)/2", "--n", "40"),
     "subshift-lang-sturmian-other-40.txt"),
    (("subshift", "lang", "--sturmian", "(1999 - 1 sqrt 5)/1997998", "--n", "40"),
     "subshift-lang-sturmian-near-zero-40.txt"),
    (("subshift", "complexity", "--sturmian", "(7 - 3 sqrt 5)/2", "--nmax", "40"),
     "subshift-complexity-sturmian-other-40.txt"),
]
# level towers whose every witness is pinned, checked in-process by
# `test_scan_json_matches_golden`: (family, levels, golden)
SCAN_JSON = [
    ("graph-o:d=(3)^inf", "5", "scan-graph-o-5.json"),
    ("gm", "6", "scan-gm-6.json"),
    ("gm", "8", "scan-gm-8.json"),
]
# the coloring file the README's decide example writes, which the README's
# verify example reads
COLORING = (GOLDEN / "readme-decide-c.txt").read_text(encoding="utf-8")


def entries():
    """Every (argv, golden) pair of the corpus."""
    yield from CORPUS
    yield from SUBSHIFT_TEXT
    for family, levels, name in SCAN_JSON:
        yield ("scan", "--family", family, "--levels", levels) + JSON, name


def write_inputs(directory: Path, argv) -> Path:
    """Writes the corpus's input files into directory, and the coloring file
    c.txt unless argv writes it; returns c.txt's path."""
    files = {"forest.txt": FOREST, "forest-letters.txt": FOREST_LETTERS,
             "forest-branch.txt": FOREST_BRANCH, **GRAPH_FILES}
    if "--color-out" not in argv:
        files["c.txt"] = COLORING
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory / "c.txt"


def replay() -> int:
    """Runs every entry in a fresh directory; 1 if any differs, else 0."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    pairs = list(entries())
    failed = 0
    for argv, name in pairs:
        with tempfile.TemporaryDirectory() as tmp:
            colf = write_inputs(Path(tmp), argv)
            proc = subprocess.run([sys.executable, "-m", "clopen.cli", *argv], cwd=tmp,
                                  env=env, capture_output=True, encoding="utf-8")
            coloring = colf.read_text(encoding="utf-8")
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        if (proc.returncode, proc.stdout, coloring) != (0, golden, COLORING):
            failed += 1
            print("FAIL %s (exit %d): clopen %s" % (name, proc.returncode, " ".join(argv)))
            sys.stdout.writelines(difflib.unified_diff(
                golden.splitlines(True), proc.stdout.splitlines(True), name, "stdout"))
            sys.stdout.write(proc.stderr)
            if coloring != COLORING:
                print("c.txt changed")
    print("%d of %d corpus entries match their goldens" % (len(pairs) - failed, len(pairs)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(replay())
