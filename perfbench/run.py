"""Benchmark runner: runs one workload of `clopen` CLI commands, each in a
fresh Python process running what the console script runs (import
included), one at a time, and checks every output.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 30 --trace 0

A pass runs every command of the workload once, in an order the seed
permutes.  Passes repeat until --seconds have gone by, and at least three
times, so that every command has a median and its bytes are compared with
an earlier run's.  Before each pass, set-up time is sampled: fresh
processes that import ``clopen.cli``, build the parser and exit.  Spreading
these samples over the run keeps a slow spell of the host from deciding
their median.

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 runs every
command under tracer.py instead and reports the per-layer metrics
(PER_LAYER).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Human-readable lines come before
it; the traced run also writes its per-command call-path tables, summed over
passes, to .perfbench_work/trace-<workload>-<seed>.json.

End-to-end metrics, with tracing off:
- wall_s: seconds per pass, the sum over commands of each command's median
  fresh-process wall time;
- peak_rss_mb: the largest peak RSS (VmHWM) of a child in a pass, median
  over passes.  An exit hook in the child records it: the child's rusage
  would also count the benchmark's own memory, which a child shares until
  exec;
- setup_s: median wall time of the set-up processes.
failed_frac (failed over attempted, both in the result line) and
wall_tail_s (the highest percentile of pass wall times with at least ten
passes beyond it) are printed but are not metrics: failed_frac is 0 on
every listed workload, and a run of a slow workload has too few passes for
the tail; report.py pools the passes of many runs for it.

Per-layer metrics, traced: for each wrapped function (tracer.FUNCTIONS) its
calls per pass and the counters beside them, which repeat exactly; the
import time of clopen.cli summed over a pass; stdout bytes per pass; and
self times, median over passes.  Every function's self time is printed, but
only those that every listed workload calls (TIMED) are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import FOREST_TXT, WORKLOADS, commands  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP = "from clopen.cli import build_parser; build_parser()"
# runs before the console script's code in an untraced child
PEAK_HOOK = ("import atexit\n"
             "def _peak():\n"
             "    with open('/proc/self/status') as s, open(%r, 'w') as f:\n"
             "        f.write(next(l for l in s if l.startswith('VmHWM')))\n"
             "atexit.register(_peak)\n")
SETUP_PER_PASS = 4
MIN_PASSES = 3
# stop starting passes after this long, whatever MIN_PASSES says
PASS_LIMIT_S = 100.0
COMMAND_TIMEOUT_S = 60.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# no reported time may be a constant zero
TIMED = ["cli.main", "cli.build_parser", "words.format_word"]
PER_LAYER = dict(
    [("%s.calls" % f, "count") for f in tracer.FUNCTIONS]
    + [(c, "count") for c in tracer.COUNTERS]
    + [("families.kept_ratio", "ratio"), ("cli.stdout_bytes", "bytes"),
       ("cli.import_s", "s")]
    + [("%s.self_s" % f, "s") for f in TIMED]
)


def spawn(argv, cwd: Path, env: dict, io_dir: Path):
    """Run argv to completion; (exit code, wall seconds, stdout bytes).
    Stdout goes to a file, so no pipe can stall the child."""
    out_path = io_dir / "stdout"
    with open(out_path, "wb") as out, open(io_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    return rc, wall, out_path.read_bytes()


class Run:
    """State of one benchmark run: its directories, pins and results."""

    def __init__(self, workload: str, trace: bool, work: Path):
        self.workload = workload
        self.trace = trace
        self.python = sys.executable
        self.env = checks.child_env(ROOT)
        self.cwd = work / "cwd"
        self.io = work / "io"
        self.cwd.mkdir(parents=True)
        self.io.mkdir()
        (self.cwd / "forest.txt").write_text(FOREST_TXT, encoding="utf-8")
        self.expected = checks.load_expected()
        self.quotients = checks.Quotients(self.expected["quotients"], WORK / "quotients",
                                          self.python, self.env)
        self.first = {}  # command -> output of its first run
        self.problems = {}  # command -> problems seen
        self.paths = {}  # command -> call path -> [calls, total_s, self_s]

    def prepare(self):
        """Load every quotient a witness check reads (untimed)."""
        for cmd in commands(self.workload):
            for family, level in cmd.quotients(self.expected["commands"]):
                self.quotients.get(family, level)

    def setup_samples(self, n: int) -> list:
        argv = [self.python, "-c", SETUP]
        return [spawn(argv, self.cwd, self.env, self.io)[1] for _ in range(n)]

    def run_pass(self, rng: random.Random) -> dict:
        units = list(WORKLOADS[self.workload][1])
        rng.shuffle(units)
        return self.run_units(units)

    def run_units(self, units) -> dict:
        """Run the commands of `units` in order; the pass's measurements."""
        result = {"wall": 0.0, "rss": 0.0, "failed": 0, "attempted": 0,
                  "stdout_bytes": 0, "commands": {}, "import_s": 0.0,
                  "calls": dict.fromkeys(tracer.FUNCTIONS, 0),
                  "self_s": dict.fromkeys(tracer.FUNCTIONS, 0.0),
                  "counts": dict.fromkeys(tracer.COUNTERS, 0)}
        for unit in units:
            for cmd in unit:
                self._run_command(cmd, result)
        return result

    def _run_command(self, cmd, result: dict):
        for name in cmd.writes:
            (self.cwd / name).unlink(missing_ok=True)
        trace_out, peak_out = self.io / "trace.json", self.io / "peak"
        trace_out.unlink(missing_ok=True)
        peak_out.unlink(missing_ok=True)
        if self.trace:
            argv = [self.python, str(HERE / "tracer.py"), str(trace_out)]
        else:
            argv = [self.python, "-c", PEAK_HOOK % str(peak_out) + checks.LAUNCH]
        rc, wall, out = spawn(argv + list(cmd.argv), self.cwd, self.env, self.io)
        files = {}
        for name in cmd.writes:
            path = self.cwd / name
            if path.is_file():
                files[name] = path.read_bytes()
        result["wall"] += wall
        if peak_out.is_file():  # "VmHWM:  12345 kB"
            result["rss"] = max(result["rss"], int(peak_out.read_text().split()[1]) / 1024.0)
        result["attempted"] += 1
        result["stdout_bytes"] += len(out)
        result["commands"][cmd.name] = wall
        problems = checks.check(cmd, rc, out, files, self.expected, self.quotients)
        output = (rc, out, sorted(files.items()))
        if self.first.setdefault(cmd.name, output) != output:
            problems.append("output differs from its first run")
        if self.trace:
            if trace_out.is_file():
                self._add_trace(cmd.name, trace_out, result)
            else:
                problems.append("tracer wrote no spans")
        if problems:
            result["failed"] += 1
            seen = self.problems.setdefault(cmd.name, [])
            seen += [p for p in problems if p not in seen]

    def _add_trace(self, name: str, trace_out: Path, result: dict):
        data = json.loads(trace_out.read_text(encoding="utf-8"))
        result["import_s"] += data["import_s"]
        for c, n in data["counts"].items():
            result["counts"][c] += n
        table = self.paths.setdefault(name, {})
        for path, (calls, total, self_s) in data["spans"].items():
            fn = path.rsplit(">", 1)[-1]
            result["calls"][fn] += calls
            result["self_s"][fn] += self_s
            row = table.setdefault(path, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s


def tail(values: list):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def wall_s(passes: list) -> float:
    """Seconds per pass: the sum of each command's median wall time."""
    return sum(statistics.median(p["commands"][c] for p in passes)
               for c in passes[0]["commands"])


def end_to_end(passes: list, setup: list) -> dict:
    return {"wall_s": wall_s(passes),
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "setup_s": statistics.median(setup)}


def per_layer(passes: list) -> dict:
    first = passes[0]
    m = {}
    for fn in tracer.FUNCTIONS:
        m["%s.calls" % fn] = first["calls"][fn]
        m["%s.self_s" % fn] = statistics.median(p["self_s"][fn] for p in passes)
    m.update(first["counts"])
    edges = first["counts"]["families.generate.edges"]
    pairs = first["counts"]["families.edges_at_level.pairs"]
    m["families.kept_ratio"] = pairs / edges if edges else 0.0
    m["cli.stdout_bytes"] = first["stdout_bytes"]
    m["cli.import_s"] = statistics.median(p["import_s"] for p in passes)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for `seconds`, and return every measurement."""
    WORK.mkdir(exist_ok=True)
    work = WORK / ("run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        state = Run(workload, trace, work)
        state.prepare()
        state.setup_samples(1)  # warm-up: bytecode caches
        setup = []
        rng = random.Random(seed)
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > PASS_LIMIT_S:
                break
            if not trace:
                setup += state.setup_samples(SETUP_PER_PASS)
            passes.append(state.run_pass(rng))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        counts_repeat = all(p["calls"] == passes[0]["calls"] and p["counts"] == passes[0]["counts"]
                            for p in passes)
        if not counts_repeat:
            state.problems.setdefault("trace", []).append("call counts differ between passes")
        with open(WORK / ("trace-%s-%d.json" % (workload, seed)), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "passes": len(passes),
                       "commands": state.paths}, fh, indent=1, sort_keys=True)
    failed = sum(p["failed"] for p in passes) + (1 if "trace" in state.problems else 0)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": passes, "setup": setup,
        "attempted": sum(p["attempted"] for p in passes), "failed": failed,
        "problems": state.problems,
        "metrics": per_layer(passes) if trace else end_to_end(passes, setup),
    }


def report_lines(res: dict) -> list:
    walls = [p["wall"] for p in res["passes"]]
    lines = ["workload %s, seed %d, %s: %d passes, %d commands, %d failed (failed_frac %.4f)"
             % (res["workload"], res["seed"], "traced" if res["trace"] else "untraced",
                len(walls), res["attempted"], res["failed"], res["failed"] / res["attempted"])]
    lines.append("  pass walls (s): %s" % " ".join("%.3f" % w for w in walls))
    if res["trace"]:
        lines.append("  traced wall_s: %.4f s (minus untraced wall_s: tracing overhead)"
                     % wall_s(res["passes"]))
    t = tail(walls)
    lines.append("  wall_tail_s: %s" % ("p%.0f = %.4f s" % t if t else
                                        "n/a (needs 11 passes, have %d)" % len(walls)))
    units = dict(END_TO_END, **PER_LAYER)
    for name, value in sorted(res["metrics"].items()):
        n = len(res["setup"]) if name == "setup_s" else len(walls)
        lines.append("  %-50s %14.6f %-6s n=%d" % (name, value, units.get(name, "s"), n))
    for name in res["passes"][0]["commands"]:
        lines.append("  command %-28s median %.4f s" % (
            name, statistics.median(p["commands"][name] for p in res["passes"])))
    for name, problems in sorted(res["problems"].items()):
        lines.append("  FAILED %s: %s" % (name, "; ".join(problems)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clopen" / "cli.py").is_file():
        print("error: no clopen sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(res):
        print(line)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": names[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
