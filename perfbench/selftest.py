"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- BENCHMARK.json lists exactly the workloads and metrics the runner reports.
- Two traced runs of a small slice give identical counts.
- Traced output is byte-identical to untraced output.
- Every named per-layer metric appears, and every wrapped function is called
  at least once in the slice, so no wrapper sits where the code never looks.
- The checks reject broken witnesses: a walk off the quotient's edges, a
  mapping that breaks an edge, an improper coloring.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import tracer
from workloads import WORKLOADS

# cheap commands that together reach every wrapped function
SLICE = {
    "readme": None,  # all of it
    "graphs": ["hom-c9-go3", "color-k0-8", "obstruct-gp-4", "scan-graph-o-34-8",
               "scan-orbit-8"],
    "words": ["complexity-forbidden-16", "cb-rank-subshift-3", "cb-k0"],
}


def slice_units():
    units = []
    for workload, names in SLICE.items():
        units += [u for u in WORKLOADS[workload][1]
                  if names is None or any(c.name in names for c in u)]
    return units


def traced_and_untraced():
    """Two traced passes and one untraced pass over the slice."""
    out = []
    for i, trace in enumerate((True, True, False)):
        work = run.WORK / ("selftest-%d" % i)
        shutil.rmtree(work, ignore_errors=True)
        r = run.Run("readme", trace, work)
        try:
            result = r.run_units(slice_units())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out.append((r, result))
    return out


def test_benchmark_json(_runs):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {w["name"]: w["why"] for w in bench["workloads"]}
    assert listed == {k: v[0] for k, v in WORKLOADS.items() if k != "known-failure"}, listed
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_counts_repeat(runs):
    (_, a), (_, b), _ = runs
    for key in ("calls", "counts", "stdout_bytes", "attempted"):
        assert a[key] == b[key], "%s differ between traced runs" % key


def test_traced_output_identical(runs):
    (traced, _), _, (plain, _) = runs
    for name, output in plain.first.items():
        assert traced.first[name] == output, "%s: traced output differs" % name


def test_no_failures(runs):
    for r, result in runs:
        assert result["failed"] == 0, r.problems


def test_every_metric_appears(runs):
    (_, a), _, _ = runs
    metrics = run.per_layer([a])
    missing = [m for m in run.PER_LAYER if m not in metrics]
    assert not missing, missing
    uncalled = [f for f in tracer.FUNCTIONS if metrics["%s.calls" % f] == 0]
    assert not uncalled, "never called in the slice: %s" % uncalled


def test_checks_reject_broken_witnesses(runs):
    r, _ = runs[2]
    cmds = {c.name: c for u in slice_units() for c in u}

    def problems(name, mutate_stdout=None, mutate_file=None):
        rc, out, files = r.first[name]
        files = dict(files)
        if mutate_stdout:
            out = mutate_stdout(out)
        if mutate_file:
            files = {k: mutate_file(v) for k, v in files.items()}
        return checks.check(cmds[name], rc, out, files, r.expected, r.quotients)

    assert not problems("scan-graph-o-34-8")
    # the level-1 walk 0 1 2 0 becomes 0 1 1 0: same length, not a walk
    walk = problems("scan-graph-o-34-8",
                    lambda o: o.replace(b'"1",\n          "2"', b'"1",\n          "1"', 1))
    assert walk, "a walk off the quotient's edges passed"
    hom = problems("readme-hom-c3-go1", lambda o: o.replace(b"2 -> 2", b"2 -> 1"))
    assert hom, "a mapping that breaks an edge passed"
    flip = problems("readme-decide", mutate_file=lambda d: d.replace(b" 1\n", b" 0\n", 1))
    assert flip, "an improper coloring passed"


def main() -> int:
    runs = traced_and_untraced()
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test(runs)
                print("PASS %s" % name)
            except AssertionError as e:
                failed += 1
                print("FAIL %s: %s" % (name, e))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
