"""The benchmark's workloads: fixed `clopen` invocations and how each output
is checked.

Every input is an exact, deterministic spec; the benchmark seed only
permutes the order of the units of a pass.  A unit is a tuple of commands
that must run in order, because a later one reads a file an earlier one
writes.

Checks (see checks.py):

- ``stdout``: exit code and the whole stdout equal the pinned ones.  Used
  for every report that carries no search witness.
- ``scan``: the JSON report minus its witnesses (odd walks, bipartite
  colorings) equals the pinned one; each witness is checked against the
  pinned ``clopen quotient --format json`` of its level.
- ``hom``: the verdict line is pinned; a found mapping must send every
  source edge to a target edge.
- a command that writes a coloring file (``color search --out``,
  ``decide --color-out``) also has the file checked: proper on the
  quotient, with at most the stated number of colors.
"""

from __future__ import annotations

FOREST_TXT = (
    "node alpha0 orbit=(01)^inf.(01)^inf parent=root\n"
    "node beta0 orbit=(01)^inf.1(01)^inf parent=alpha0\n"
)

JSON = ("--format", "json", "--no-timing")
STURMIAN = "(3 - 1 sqrt 5)/2"


class Command:
    """One CLI invocation.

    ``check`` is ``stdout``, ``scan`` (of ``family``) or ``hom``.
    ``coloring`` names a file the command writes, as ``(path, family, level,
    colors)``; ``source`` and ``target`` are the graphs of a ``hom`` check, as
    ``q:FAMILY@LEVEL`` (a pinned quotient) or ``cycle:N`` (the odd cycle on N
    vertices)."""

    def __init__(self, name, argv, check="stdout", family=None, coloring=None,
                 source=None, target=None):
        self.name = name
        self.argv = tuple(argv)
        self.check = check
        self.family = family
        self.coloring = coloring
        self.source = source
        self.target = target

    @property
    def writes(self):
        return (self.coloring[0],) if self.coloring else ()

    def quotients(self, expected):
        """The (family, level) quotients its witness checks read."""
        out = []
        if self.check == "scan":
            out += [(self.family, e["level"]) for e in expected[self.name]["report"]["levels"]]
        for g in (self.source, self.target):
            if g and g.startswith("q:"):
                fam, level = g[2:].rsplit("@", 1)
                out.append((fam, int(level)))
        if self.coloring:
            out.append((self.coloring[1], self.coloring[2]))
        return out


def scan(name, family, levels):
    return Command(name, ("scan", "--family", family, "--levels", str(levels)) + JSON,
                   check="scan", family=family)


def hom(name, source, target, source_graph, target_graph):
    return Command(name, ("hom", "--source", source, "--target", target),
                   check="hom", source=source_graph, target=target_graph)


def color_search(name, family, level, colors=3):
    out = name + ".col"
    return Command(name, ("color", "search", "--family", family, "--level", str(level),
                          "--colors", str(colors), "--out", out),
                   coloring=(out, family, level, colors))


GO3 = "graph-o:d=(3)^inf"
GO34 = "graph-o:d=3,4,(3)^inf"
GP0 = "gp:d=2,(3)^inf,p=0"
GP1 = "gp:d=2,(3)^inf,p=1"

# The level tower: odd_closed_walk takes nearly all of graph-o and most of
# gm, generate -> orbit_point -> odometer_iter most of gp; the last two scans
# stop early, at a bipartite level 1-2, where enumerating the whole tower up
# front would show its cost.
LEVELS = [
    (scan("scan-graph-o-6", GO3, 6),),
    (scan("scan-gp1-6", GP1, 6),),
    (scan("scan-gm-8", "gm", 8),),
    (scan("scan-graph-o-34-8", GO34, 8),),
    (scan("scan-orbit-8", "orbit:d=(3)^inf,S=sa{0}", 8),),
]
# Certificates: homs and colorings do most of the work; found and
# exhaustive-absent searches stress the backtracking differently.
CERTIFY = [
    (hom("hom-go3-c7", GO3 + "@3", "odd-cycle:p=2", "q:%s@3" % GO3, "cycle:7"),),
    (hom("hom-go3-c5", GO3 + "@3", "odd-cycle:p=1", "q:%s@3" % GO3, "cycle:5"),),
    (hom("hom-c11-go4", "odd-cycle:p=4", GO3 + "@4", "cycle:11", "q:%s@4" % GO3),),
    (hom("hom-c9-go3", "odd-cycle:p=3", GO3 + "@3", "cycle:9", "q:%s@3" % GO3),),
    (color_search("color-gp1-4", GP1, 4),),
    (color_search("color-k0-8", "k0", 8),),
    (Command("obstruct-gp-4", ("obstruct", "--g1", GP0, "--g2", GP1,
                               "--level", "4") + JSON),),
    (Command("spectrum-ka02", ("spectrum", "--family", "ka:A=0,2")),),
    (Command("verify-t-10", ("color", "verify", "--family", "t", "--predicate",
                             "t-coloring", "--bound", "10")),),
]

# name -> (why, units)
WORKLOADS = {
    "graphs": (
        "graph side: the level tower (odd-walk search, odometer enumeration, "
        "scans that stop early) and certificates (hom and 3-coloring "
        "searches, obstruction, spectrum)",
        LEVELS + CERTIFY,
    ),
    "words": (
        "the subshift side: Sturmian coding, languages, power checks and CB "
        "window probes, with no family enumeration or quotient",
        [
            (Command("complexity-sturmian-30", ("subshift", "complexity", "--sturmian",
                                                STURMIAN, "--nmax", "30")),),
            (Command("powerfree-fib-2000", ("subshift", "powerfree", "--fib-prefix",
                                            "2000", "--power", "4")),),
            (Command("lang-sturmian-40", ("subshift", "lang", "--sturmian", STURMIAN,
                                          "--n", "40")),),
            (Command("cb-rank-subshift-3", ("cb", "rank", "--family", "rank-subshift:n=3",
                                            "--resolution", "40")),),
            (Command("cb-k0", ("cb", "rank", "--family", "k0", "--resolution", "40")),),
            (Command("complexity-forbidden-16", ("subshift", "complexity", "--forbidden",
                                                 "11,000", "--nmax", "16")),),
            (Command("member-fib0", ("subshift", "member", "--word",
                                     "(10101101)^inf.(10101101)^inf", "--fib-p", "0")),),
        ],
    ),
    "readme": (
        "interactive use: the 15 README CLI examples verbatim, where "
        "interpreter start, import and argparse dominate",
        [
            (Command("readme-scan", ("scan", "--family", "go-plus:d=2,(3)^inf",
                                     "--levels", "4")),),
            (
                Command("readme-decide", ("decide", "--family", GO34, "--level", "2",
                                          "--color-out", "c.txt"),
                        coloring=("c.txt", GO34, 2, 2)),
                Command("readme-verify-c", ("color", "verify", "--family", GO34,
                                            "--coloring", "c.txt", "--bound", "4")),
            ),
            (Command("readme-verify-t", ("color", "verify", "--family", "t",
                                         "--predicate", "t-coloring", "--bound", "10")),),
            (Command("readme-search-k0", ("color", "search", "--family", "k0",
                                          "--level", "4", "--colors", "3")),),
            (Command("readme-quotient-dot", ("quotient", "--family", GO3, "--level", "2",
                                             "--format", "dot")),),
            (Command("readme-complexity", ("subshift", "complexity", "--sturmian",
                                           STURMIAN, "--nmax", "12")),),
            (Command("readme-member", ("subshift", "member", "--word",
                                       "(10101101)^inf.(10101101)^inf", "--fib-p", "0")),),
            (Command("readme-powerfree", ("subshift", "powerfree", "--fib-prefix", "500",
                                          "--power", "4")),),
            (Command("readme-cb-k0", ("cb", "rank", "--family", "k0",
                                      "--resolution", "40")),),
            (Command("readme-cb-forest", ("cb", "rank", "--forest", "forest.txt",
                                          "--resolution", "40")),),
            (hom("readme-hom-c5-c3", "odd-cycle:p=1", "odd-cycle:p=0", "cycle:5", "cycle:3"),),
            (hom("readme-hom-c3-go1", "odd-cycle:p=0", GO3 + "@1", "cycle:3",
                 "q:%s@1" % GO3),),
            (Command("readme-spectrum", ("spectrum", "--family", "ka:A=0,1")),),
            (Command("readme-obstruct", ("obstruct", "--g1", GP0, "--g2", GP1,
                                         "--level", "2")),),
        ],
    ),
    # Not in BENCHMARK.json: a listed workload must run without failures.  At
    # the seed this command dies with a RecursionError (exit 1), because the
    # coloring backtracking recurses once per vertex (2263 here).  Its pinned
    # verdict is "found": with a larger stack it finds a proper 3-coloring.
    "known-failure": (
        "the gm level-6 3-coloring search, which fails at the seed",
        [(color_search("color-gm-6", "gm", 6),)],
    ),
}


def commands(workload):
    return [c for unit in WORKLOADS[workload][1] for c in unit]
