"""Output checks.  What the mathematics fixes is pinned in expected.json
(recorded at the seed commit); search witnesses are checked for what they
claim, so a rewrite may change them:

- an odd walk is closed, has the pinned odd length and follows edges of the
  pinned ``clopen quotient --format json`` of its level;
- a bipartite coloring or a coloring file is proper on that quotient;
- a homomorphism sends every source edge to a target edge.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")

# what the `clopen` console script runs
LAUNCH = "import sys; from clopen.cli import main; sys.exit(main())"


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


class Graph:
    def __init__(self, vertices, edges):
        self.vertices = set(vertices)
        self.edges = {tuple(e) for e in edges}

    def adjacent(self, u, v) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def odd_cycle(n: int) -> Graph:
    """The cycle on 0..n-1, as `odd-cycle:p=(n-3)/2` names its vertices."""
    return Graph((str(i) for i in range(n)),
                 ((str(i), str((i + 1) % n)) for i in range(n)))


class Quotients:
    """The pinned level quotients, produced by ``clopen quotient --format
    json --no-timing`` and cached in ``cache_dir`` under their pinned hash."""

    def __init__(self, pins: dict, cache_dir: Path, python: str, env: dict):
        self.pins = pins
        self.cache_dir = cache_dir
        self.python = python
        self.env = env
        self.graphs = {}
        self.problems = {}

    def get(self, family: str, level: int):
        """The quotient as a Graph, or None with a reason in problems."""
        key = "%s@%d" % (family, level)
        if key not in self.graphs and key not in self.problems:
            self._load(key, family, level)
        return self.graphs.get(key)

    def _load(self, key, family, level):
        pin = self.pins.get(key)
        if pin is None:
            self.problems[key] = "no pinned quotient %s" % key
            return
        path = self.cache_dir / (pin["sha256"] + ".json")
        data = path.read_bytes() if path.is_file() else b""
        if hashlib.sha256(data).hexdigest() != pin["sha256"]:
            try:
                proc = subprocess.run(
                    [self.python, "-c", LAUNCH, "quotient", "--family", family,
                     "--level", str(level), "--format", "json", "--no-timing"],
                    capture_output=True, env=self.env, timeout=120, check=False)
            except subprocess.TimeoutExpired:
                self.problems[key] = "quotient %s timed out" % key
                return
            data = proc.stdout
            if proc.returncode != 0 or hashlib.sha256(data).hexdigest() != pin["sha256"]:
                self.problems[key] = "quotient %s differs from the pinned one" % key
                return
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        q = json.loads(data)
        self.graphs[key] = Graph(q["vertices"], q["edges"])


def check(cmd, rc: int, stdout: bytes, files: dict, expected: dict,
          quotients: Quotients) -> list:
    """Problems with one run of `cmd`; an empty list means correct."""
    exp = expected["commands"][cmd.name]
    problems = []
    if rc != exp["exit"]:
        problems.append("exit code %d, expected %d" % (rc, exp["exit"]))
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return problems + ["stdout is not UTF-8"]
    if "stdout" in exp and text != exp["stdout"]:
        problems.append("stdout differs from the pinned one")
    try:
        if cmd.check == "scan":
            problems += _check_scan(cmd.family, text, exp["report"], quotients)
        elif cmd.check == "hom":
            problems += _check_hom(cmd, text, exp, quotients)
        if cmd.coloring:
            problems += _check_coloring_file(cmd.coloring, files.get(cmd.coloring[0]),
                                             quotients)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problems.append("malformed output: %r" % e)
    return problems


def _graph(spec: str, quotients: Quotients):
    if spec.startswith("cycle:"):
        return odd_cycle(int(spec[len("cycle:"):]))
    family, level = spec[len("q:"):].rsplit("@", 1)
    return quotients.get(family, int(level))


def _missing(quotients, family, level) -> list:
    return [quotients.problems.get("%s@%d" % (family, level), "quotient missing")]


def _check_scan(family: str, text: str, pinned: dict, quotients: Quotients) -> list:
    report = json.loads(text)
    problems = []
    witnesses = []
    for entry in report.get("levels", []):
        witnesses.append((entry.get("level"), entry.get("witness", {}).pop("vertices", None),
                          entry.pop("coloring", None)))
    if report != pinned:
        return ["scan report differs from the pinned one"]
    for entry, (level, walk, coloring) in zip(pinned["levels"], witnesses):
        q = quotients.get(family, level)
        if q is None:
            problems += _missing(quotients, family, level)
        elif entry["verdict"] == "odd-walk":
            problems += ["level %d: %s" % (level, p)
                         for p in _odd_walk_problems(walk, entry["oddGirth"], q)]
        elif not _proper(coloring, 2, q):
            problems.append("level %d: bipartite coloring is not proper" % level)
    return problems


def _odd_walk_problems(walk, girth: int, q: Graph) -> list:
    if not isinstance(walk, list) or len(walk) != girth + 1:
        return ["odd walk does not have the pinned length %d" % girth]
    if walk[0] != walk[-1]:
        return ["odd walk is not closed"]
    if not all(q.adjacent(u, v) for u, v in zip(walk, walk[1:])):
        return ["odd walk leaves the quotient's edges"]
    return []


def _proper(coloring, colors: int, q: Graph) -> bool:
    return (isinstance(coloring, dict) and set(coloring) == q.vertices
            and all(coloring[v] in range(colors) for v in coloring)
            and all(coloring[u] != coloring[v] for (u, v) in q.edges))


def _check_hom(cmd, text: str, exp: dict, quotients: Quotients) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != exp["head"]:
        return ["verdict differs from the pinned %r" % exp["head"]]
    if exp["head"] != "found:":
        return []
    G, H = _graph(cmd.source, quotients), _graph(cmd.target, quotients)
    if G is None or H is None:
        return ["hom graphs unavailable: %s, %s" % (cmd.source, cmd.target)]
    mapping = {}
    for ln in lines[1:]:
        u, arrow, w = ln.split()
        if arrow != "->":
            return ["bad mapping line %r" % ln]
        mapping[u] = w
    if set(mapping) != G.vertices or not set(mapping.values()) <= H.vertices:
        return ["mapping does not send the source vertices into the target"]
    if not all(H.adjacent(mapping[u], mapping[v]) for (u, v) in G.edges):
        return ["mapping sends a source edge to a non-edge"]
    return []


def _check_coloring_file(spec, data, quotients: Quotients) -> list:
    path, family, level, colors = spec
    if data is None:
        return ["coloring file %s was not written" % path]
    lines = data.decode("utf-8", "replace").splitlines()
    header = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok) if lines else {}
    if header.get("level") != str(level) or header.get("colors") != str(colors):
        return ["coloring file %s has header %r" % (path, lines[:1])]
    coloring = {}
    for ln in lines[1:]:
        label, col = ln.rsplit(None, 1)
        coloring[label] = int(col)
    q = quotients.get(family, level)
    if q is None:
        return _missing(quotients, family, level)
    # coloring files write two-sided windows without the origin mark
    flat = Graph((_flat(v) for v in q.vertices), ((_flat(u), _flat(v)) for u, v in q.edges))
    if not _proper(coloring, colors, flat):
        return ["coloring in %s is not proper on %s@%d" % (path, family, level)]
    return []


def _flat(label: str) -> str:
    return label.replace(",.,", ",").replace(".", "")


def child_env(root: Path) -> dict:
    """The environment of every child: the checkout's sources on the path,
    and bytecode caches allowed, as an installed package has them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
