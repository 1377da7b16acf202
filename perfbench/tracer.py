"""Outside-in tracer for one clopen CLI command.

    python3 perfbench/tracer.py TRACE_OUT CLOPEN_ARGS...

Runs ``clopen.cli.main(CLOPEN_ARGS)`` after wrapping the public functions of
each clopen module in every module namespace that holds a reference to them,
so nothing under ``src/`` changes.  Spans are aggregated in memory by call
path, as [calls, total seconds, self seconds], where self time is a span
minus its wrapped child spans; named counters sit beside them.  Both are
written to TRACE_OUT as JSON when the command ends.  Stdout, stderr and the
exit code are those of the untraced command.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# wrapped name -> counters, as suffix -> count(result, args)
TARGETS = {
    "cli.main": {},
    "cli.build_parser": {},
    "families.parse_family": {},
    "families.edges_at_level": {"pairs": lambda r, a: len(r.pairs)},
    "dynamics.odometer_iter": {},
    "dynamics.sturmian_code": {"letters": lambda r, a: len(r)},
    "dynamics.QuadraticReal.floor": {},
    "quotients.quotient": {"vertices": lambda r, a: len(r.vertices),
                           "edges": lambda r, a: len(r.edges)},
    "quotients.QuotientGraph.undirected": {},
    "quotients.odd_closed_walk": {},
    "quotients._bfs_two_color": {},
    "quotients.scan": {},
    "quotients.decide_level": {},
    "colorings.search_coloring": {},
    "colorings.verify_coloring": {},
    "homs.hom_exists": {"pairs": lambda r, a: len(a[0].vertices) * len(a[1].vertices)},
    "homs.cycle_spectrum": {},
    "homs.quotient_hom_obstruction": {},
    "subshift_lang.complexity": {},
    "subshift_lang.SturmianSubshift.language": {},
    "subshift_lang.ForbiddenSubshift.language": {},
    "subshift_lang.power_free_check": {},
    "subshift_lang.cb_rank": {},
    "subshift_lang.member": {},
    "words.Alphabet.key": {},
    "words.BlockWord.window": {},
    "words.format_word": {},
}
# wrapped on each graph that parse_family returns
GENERATE = "families.generate"
GENERATE_COUNTERS = {"edges": lambda r, a: len(r)}
FUNCTIONS = list(TARGETS) + [GENERATE]
COUNTERS = ["%s.%s" % (name, suffix)
            for name, counters in list(TARGETS.items()) + [(GENERATE, GENERATE_COUNTERS)]
            for suffix in counters]


class Tracer:
    def __init__(self):
        self.spans = {}  # call path -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [["", 0.0]]  # open spans: [path, seconds in child spans]

    def wrap(self, name, fn, counters, after=None):
        spans, counts, stack, clock = self.spans, self.counts, self._stack, time.perf_counter
        paths = {}  # parent path -> own path

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            path = paths.get(parent[0])
            if path is None:
                path = paths[parent[0]] = parent[0] + ">" + name if parent[0] else name
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                span = spans.get(path)
                if span is None:
                    span = spans[path] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
            for suffix, count in counters.items():
                counts[name + "." + suffix] += count(result, args)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every target in its class, or in every clopen module
        namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "clopen" or n.startswith("clopen.")]
        replace = {}
        for name, counters in TARGETS.items():
            module, *owners, attr = name.split(".")
            obj = sys.modules["clopen." + module]
            for owner in owners:
                obj = getattr(obj, owner)
            fn = obj.__dict__[attr]
            after = self._wrap_generate if name == "families.parse_family" else None
            wrapper = self.wrap(name, fn, counters, after)
            if owners:
                setattr(obj, attr, wrapper)
            else:
                replace[id(fn)] = (fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_generate(self, g):
        g.generate = self.wrap(GENERATE, g.generate, GENERATE_COUNTERS)


def main(argv):
    out_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import clopen.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = clopen.cli.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
