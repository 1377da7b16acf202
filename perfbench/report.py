"""Summary over seeds: every end-to-end metric per workload, with units,
sample counts and run-to-run spread.

    python3 perfbench/report.py [--seeds 10] [--workload NAME ...] [--traced]

Runs each workload once per seed (1..N) for BENCHMARK.json's run_seconds.
For each end-to-end metric it prints the median over runs and the spread,
the distance between the first and third quartile of the runs as a share of
their median, next to the metric's bound.  It also prints failed_frac over
all commands attempted, and wall_tail_s: the highest percentile of the
passes of all runs that has at least ten passes beyond it.  --traced adds
one traced run per seed and prints the tracing overhead, traced wall_s minus
untraced wall_s.  The known-failure workload runs by default as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(name: str, untraced: list, traced: list, bounds: dict) -> list:
    lines = ["%s: %d runs" % (name, len(untraced))]
    for metric, unit in run.END_TO_END.items():
        values = [r["metrics"][metric] for r in untraced]
        n = sum(len(r["setup"]) if metric == "setup_s" else len(r["passes"]) for r in untraced)
        s = spread(values) if len(values) > 1 else float("nan")
        bound = bounds.get(metric)
        verdict = ("" if bound is None else "steady" if s < bound / 3
                   else "within bound" if s <= bound else "SPREAD ABOVE BOUND")
        lines.append("  %-13s median %.4f %-3s (n=%d samples) spread %.4f, bound %s %s"
                     % (metric, statistics.median(values), unit, n, s, bound, verdict))
    walls = [p["wall"] for r in untraced for p in r["passes"]]
    t = run.tail(walls)
    lines.append("  wall_tail_s   %s (n=%d passes)" % (
        "p%.0f = %.4f s" % t if t else "n/a: fewer than 11 passes", len(walls)))
    failed = sum(r["failed"] for r in untraced)
    attempted = sum(r["attempted"] for r in untraced)
    lines.append("  failed_frac   %.4f (%d of %d commands)" % (failed / attempted, failed, attempted))
    for r in untraced + traced:
        for cmd, problems in sorted(r["problems"].items()):
            lines.append("    seed %d %s: %s" % (r["seed"], cmd, "; ".join(problems)))
    if traced:
        plain = statistics.median(r["metrics"]["wall_s"] for r in untraced)
        walls = statistics.median(run.wall_s(r["passes"]) for r in traced)
        lines.append("  traced wall_s %.4f s, tracing overhead %.4f s (%d runs)"
                     % (walls, walls - plain, len(traced)))
    return lines


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]] + ["known-failure"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    for name in names:
        untraced, traced = [], []
        for seed in range(1, args.seeds + 1):
            untraced.append(run.run_workload(name, seed, seconds, False))
            if args.traced:  # right after the untraced run, so host drift cancels
                traced.append(run.run_workload(name, seed, seconds, True))
        print("\n".join(summarize(name, untraced, traced, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
