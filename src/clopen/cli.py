"""Command-line surface: families, quotients, level decisions, colorings,
subshift queries, Cantor-Bendixson ranks, homomorphism search and obstruction
reports, all deterministic.

Exit status: 0 when the verdict matches the expectation flags (or none), 1 on
a mismatch, 2 on usage, input, budget and file errors, 141 on a closed pipe.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import colorings as col
from . import families as fam
from . import homs
from . import quotients as quo
from . import subshift_lang as sub
from .dynamics import fibonacci_limit_prefix, parse_quadratic
from .words import (BiWord, BlockWord, BudgetError, UltWord, format_bi, format_ult, format_word,
                    parse_bi, parse_prefix)

FAMILY_GRAMMAR = (
    "family spec strings: gm | gdelta:delta=(1)^inf | "
    "go-plus:d=2,(3)^inf | graph-o:d=(3)^inf | t | k0 | rank-subshift:n=2 | "
    "gp:d=2,(3)^inf,p=1 | orbit:d=(3)^inf,S=sa{0} | ka:A=0,2 | "
    "sturmian:r=(3 - 1 sqrt 5)/2 "
    "(suffix :oriented for the one-directional variants)\n"
    "finite graph specs (hom, spectrum --graph): odd-cycle:p=N | file:PATH | FAMILY@LEVEL"
)


class Mismatch(Exception):
    pass


class UsageError(Exception):
    pass


def _family(spec: str) -> fam.SymbolicGraph:
    try:
        return fam.parse_family(spec)
    except ValueError as e:  # FamilyError and WordError among them
        raise UsageError("unknown or malformed family %r (%s)\n%s" % (spec, e, FAMILY_GRAMMAR))


def _finite_graph(spec: str):
    """odd-cycle:p=N | file:PATH | FAMILY@LEVEL (the undirected level-n
    quotient), each a QuotientGraph."""
    if spec.startswith("odd-cycle:"):
        p = spec[len("odd-cycle:"):]
        if not (p.startswith("p=") and p[2:].isdecimal()):
            raise UsageError("odd cycle spec must be odd-cycle:p=N with N >= 0: %r" % spec)
        return fam.odd_cycle(int(p[2:]))
    if spec.startswith("file:"):
        with open(spec[len("file:") :], encoding="utf-8") as fh:
            return homs.finite_graph_from_text(fh.read())
    bad = UsageError(
        "finite graph spec must be odd-cycle:p=N, file:PATH or FAMILY@LEVEL: %r" % spec)
    if "@" in spec:
        fspec, level = spec.rsplit("@", 1)
        try:
            level = int(level)
        except ValueError:
            raise bad from None
        return quo.quotient(_family(fspec), level).undirected()
    raise bad


def _print_json(payload, no_timing: bool):
    import json  # only --format json reads it
    if no_timing:
        for entry in payload.get("levels", []):
            entry.pop("millis", None)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _at_least(args, option: str, low: int):
    """The value of ``--option``, a usage error when it is given below `low`
    or is not a number (nan)."""
    value = getattr(args, option.replace("-", "_"))
    if value is not None and not value >= low:
        raise UsageError("--%s must be >= %d" % (option, low))
    return value


def _expect(expected, actual):
    if expected is not None and expected != actual:
        raise Mismatch("expected %s, got %s" % (expected, actual))


# ---------------------------------------------------------------------------
# subcommands


def _bounded_quotient(g: fam.SymbolicGraph, args) -> quo.QuotientGraph:
    """The quotient of `family show` and `quotient`, whose --bound overrides
    the enumeration bound."""
    return quo.quotient(g, args.level, bound=_at_least(args, "bound", 0))


def cmd_family_show(args):
    g = _family(args.family)
    sample = _at_least(args, "sample", 0)
    q = _bounded_quotient(g, args)
    info = {
        "family": g.spec,
        "pointSet": g.point_set,
        "compact": g.compact,
        "directed": g.directed,
        "twoSided": g.two_sided,
        "alphabet": list(q.alphabet.letters),
        "level": args.level,
        "edgeCount": q.edge_count(),
    }
    if args.format == "json":
        _print_json(info, args.no_timing)
    else:
        for k, v in info.items():
            print("%s: %s" % (k, v))
        edges = q.edges
        shown = edges[:sample]
        first = fam.first_edges(g, args.level, shown, bound=args.bound)
        for (s, t) in shown:
            x, y = first[s, t]
            print(
                "  %s -- %s    e.g. (%s, %s)"
                % (q.label(s), q.label(t), _point_str(x), _point_str(y))
            )
        if len(edges) > len(shown):
            print("  ... %d more" % (len(edges) - len(shown)))
    return 0


def _point_str(x) -> str:
    if isinstance(x, UltWord):
        return format_ult(x)
    if isinstance(x, BiWord):
        return format_bi(x)
    if isinstance(x, BlockWord):
        return "...%s..." % format_word(x.window(-8, 8))
    return str(x)


def cmd_quotient(args):
    g = _family(args.family)
    q = _bounded_quotient(g, args)
    if args.format == "dot":
        print(quo.to_dot(q, g.spec))
    elif args.format == "json":
        payload = {
            "family": g.spec,
            "level": q.level,
            "vertices": [q.label(v) for v in q.vertices],
            "edges": [[q.label(u), q.label(v)] for (u, v) in q.edges],
            "directed": q.directed,
        }
        _print_json(payload, args.no_timing)
    else:
        print("%s level %d: %d vertices, %d edges" % (g.spec, q.level, len(q.vertices), q.edge_count()))
        for (u, v) in q.distinct_edges():
            print("  %s %s %s" % (q.label(u), "->" if q.directed else "--", q.label(v)))
    return 0


def cmd_decide(args):
    g = _family(args.family)
    result = quo.decide_level(g, args.level)
    payload = {"family": g.spec, "level": args.level, "verdict": result.verdict}
    if isinstance(result, quo.Bipartite):
        payload["coloring"] = result.coloring.as_json()
        if args.color_out:
            with open(args.color_out, "w", encoding="utf-8") as fh:
                fh.write(col.coloring_to_text(result.coloring, g.spec))
    else:
        payload["witness"] = result.as_json()
        payload["oddGirth"] = result.length
    if not g.compact:
        payload["caveat"] = (
            "point set is not compact: odd walks at all levels would not "
            "bound the continuous chromatic number"
        )
    if args.format == "json":
        _print_json(payload, args.no_timing)
    else:
        print("%s level %d: %s" % (g.spec, args.level, result.verdict))
        if "witness" in payload:
            print("  odd closed walk: %s" % " ".join(payload["witness"]["vertices"]))
        if "caveat" in payload:
            print("  caveat: %s" % payload["caveat"])
    _expect(args.expect, result.verdict)
    return 0


def cmd_scan(args):
    if args.levels <= 0:
        raise UsageError("level budget must be positive")
    g = _family(args.family)
    report = quo.scan(g, args.levels, budget_ms=_at_least(args, "budget-ms", 0))
    if report["partial"]:
        print("warning: partial report (budget exhausted)", file=sys.stderr)
    if args.format == "json":
        _print_json(report, args.no_timing)
    else:
        print(report["headline"])
        for entry in report["levels"]:
            girth = entry.get("oddGirth")
            print(
                "  level %d: %s (edges %d%s)"
                % (
                    entry["level"],
                    entry["verdict"],
                    entry["edgeCount"],
                    ", odd girth %d" % girth if girth else "",
                )
            )
    verdicts = {e["verdict"] for e in report["levels"]}
    _expect(args.expect, "bipartite" if "bipartite" in verdicts
            else "odd-walk" if verdicts else "undecided")
    return 0


def cmd_color_build(args):
    g = _family(args.family)
    if args.kind == "parity":
        d = _family_arg(g, "d")
        c = col.parity_coloring(d)
    elif args.kind == "three-beta":
        c = col.three_coloring_beta(g)
    elif args.kind == "return-parity":
        d = _family_arg(g, "d")
        C = parse_prefix(args.cylinder or "")
        if not C or not all(a.isdigit() and int(a) < d.digit(j) for j, a in enumerate(C)):
            raise UsageError("return-parity needs --cylinder, digits below the radix bounds")
        c = col.return_parity_coloring(d, C)
    else:
        raise UsageError("unknown coloring kind %r" % args.kind)
    text = col.coloring_to_text(c, g.spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _family_arg(g: fam.SymbolicGraph, key: str):
    if key not in g.args:
        raise UsageError("family %r has no %s= argument" % (g.spec, key))
    return g.args[key]


def cmd_color_verify(args):
    g = _family(args.family)
    bound = _at_least(args, "bound", 0)
    if args.predicate:
        if args.predicate != "t-coloring":
            raise UsageError("unknown predicate coloring %r" % args.predicate)
        c = col.t_coloring()
    elif args.coloring:
        with open(args.coloring, encoding="utf-8") as fh:
            c, _ = col.coloring_from_text(fh.read(), g.alphabet_for(bound))
    else:
        raise UsageError("need --coloring FILE or --predicate t-coloring")
    res = col.verify_coloring(g, c, bound)
    print(res.describe())
    _expect(args.expect, "ok" if res.ok else "violation")
    return 0


def cmd_color_search(args):
    g = _family(args.family)
    q = quo.quotient(g, args.level)
    c = col.search_coloring(q, args.colors)
    if c is None:
        print("absent: no proper %d-coloring of the level-%d quotient" % (args.colors, args.level))
        _expect(args.expect, "absent")
        return 0
    print("found: proper %d-coloring of the level-%d quotient" % (args.colors, args.level))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(col.coloring_to_text(c, g.spec))
    _expect(args.expect, "found")
    return 0


def _subshift_spec(args) -> sub.Subshift:
    if args.sturmian:
        return sub.SturmianSubshift(parse_quadratic(args.sturmian))
    if args.points:
        pts = [parse_bi(tok) for tok in args.points.split(";") if tok.strip()]
        return sub.FinitePointSet(pts)
    F = _forbidden(args)
    if F is not None:
        return sub.ForbiddenSubshift(["0", "1"], F)
    raise UsageError("need one of --sturmian, --points, --forbidden, --fib-p")


def _forbidden(args):
    if args.fib_p is not None:
        return sub.expand_fib_forbidden(_at_least(args, "fib-p", 0))
    if args.forbidden:
        return sub.ForbiddenSet(args.forbidden.split(","))
    return None


def cmd_subshift_member(args):
    F = _forbidden(args)
    if F is None:
        raise UsageError("need --forbidden or --fib-p")
    b = parse_bi(args.word)
    ok = sub.member(b, F)
    print("member" if ok else "not a member")
    _expect(args.expect, "member" if ok else "non-member")
    return 0


def cmd_subshift_lang(args):
    _at_least(args, "n", 0)
    s = _subshift_spec(args)
    words = sorted(s.language(args.n))
    print("%d words of length %d" % (len(words), args.n))
    for w in words:
        print("  " + format_word(w))
    return 0


def cmd_subshift_complexity(args):
    _at_least(args, "nmax", 0)
    s = _subshift_spec(args)
    counts = sub.complexity(s, args.nmax)
    print(",".join(str(c) for c in counts))
    return 0


def cmd_subshift_powerfree(args):
    if args.fib_prefix is not None:
        w = fibonacci_limit_prefix(_at_least(args, "fib-prefix", 0))
    elif args.word:
        w = tuple(args.word)
    else:
        raise UsageError("need --word or --fib-prefix")
    hit = sub.power_free_check(w, args.power)
    if hit is None:
        print("ok: no %d-th power occurs" % args.power)
        _expect(args.expect, "ok")
    else:
        v, i = hit
        print("violation: (%s)^%d at position %d" % (format_word(v), args.power, i))
        _expect(args.expect, "violation")
    return 0


def cmd_cb_rank(args):
    _at_least(args, "resolution", 1)
    if args.family and args.forest:
        raise UsageError("give --forest FILE or --family, not both")
    g = _family(args.family) if args.family else None
    if args.forest:
        with open(args.forest, encoding="utf-8") as fh:
            forest = sub.forest_from_text(fh.read())
    elif g is not None and g.forest is not None and not g.directed:
        forest = g.forest  # the orbits the family's shift graph walks
    else:
        raise UsageError("need --forest FILE or --family k0|rank-subshift:n=N")
    rep = sub.cb_rank(forest, args.resolution)
    print(rep.describe())
    if args.expect_rank is not None:
        _expect(args.expect_rank, rep.rank)
    if not rep.verified:
        raise Mismatch("verification failed at resolution %d" % args.resolution)
    return 0


def cmd_hom(args):
    G = _finite_graph(args.source)
    H = _finite_graph(args.target)
    mapping = homs.hom_exists(G, H, injective=args.injective)
    if mapping is None:
        print("absent: exhaustive search found no homomorphism")
        _expect(args.expect, "absent")
    else:
        print("found:")
        for u in G.vertices:
            print("  %s -> %s" % (G.label(u), H.label(mapping[u])))
        _expect(args.expect, "found")
    return 0


def cmd_spectrum(args):
    max_len = _at_least(args, "max-len", 0)
    if bool(args.graph) == bool(args.family):
        raise UsageError("give --graph SPEC or --family, not both")
    if args.graph:
        G = _finite_graph(args.graph)
    else:
        g = _family(args.family)
        if g.finite_core is None:
            raise UsageError("family %s has no finite core" % g.spec)
        G = g.finite_core()
    spec = sorted(homs.cycle_spectrum(G, max_len))
    print(",".join(str(l) for l in spec) if spec else "empty")
    return 0


def cmd_obstruct(args):
    g1 = _family(args.g1)
    g2 = _family(args.g2)
    rep = homs.quotient_hom_obstruction(g1, g2, args.level)
    if args.format == "json":
        _print_json(rep.as_json(), args.no_timing)
    else:
        print(rep.describe())
    if args.expect:
        _expect(args.expect, "obstructed" if rep.obstructed else "clear")
    return 0


# ---------------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand is listed; when `command` names one, only it gets its
    arguments, as argparse builds a help formatter for each argument added.

    argparse passes each title and help text it adds through its message
    hook, gettext, whose catalogue search stats files and imports `locale`.
    The hook is the identity while the parser is built, so a command that
    parses cleanly never enters gettext; the help pages and usage errors,
    formatted after it is restored, still go through it."""
    hook, argparse._ = argparse._, str
    try:
        return _parser(command)
    finally:
        argparse._ = hook


def _parser(command: str | None) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clopen",
        description="level-by-level clopen colorability of symbolic graphs",
        epilog=FAMILY_GRAMMAR,
    )
    sp = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=("text", "json")):
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--no-timing", action="store_true")

    def bound(p):
        p.add_argument("--bound", type=int, default=None,
                       help="override the enumeration bound")

    def subshift_source(p):
        p.add_argument("--sturmian")
        p.add_argument("--points")
        p.add_argument("--forbidden")
        p.add_argument("--fib-p", type=int)

    parsers = {name: sp.add_parser(name, help=text) for name, text in (
        ("family", "inspect a family"),
        ("quotient", "level-n quotient graph"),
        ("decide", "bipartite or odd-closed-walk at a level"),
        ("scan", "decide all levels up to a budget"),
        ("color", "build, verify or search colorings"),
        ("subshift", "membership, languages, powers"),
        ("cb", "Cantor-Bendixson ranks"),
        ("hom", "finite homomorphism search"),
        ("spectrum", "simple cycle lengths of a finite core"),
        ("obstruct", "level-n reduction obstructions"),
    )}
    built = parsers if command not in parsers else {command: parsers[command]}

    if p := built.get("family"):
        fsp = p.add_subparsers(dest="sub", required=True)
        ps = fsp.add_parser("show")
        ps.add_argument("--family", required=True)
        ps.add_argument("--level", type=int, default=1)
        ps.add_argument("--sample", type=int, default=12)
        common(ps)
        bound(ps)
        ps.set_defaults(fn=cmd_family_show)

    if p := built.get("quotient"):
        p.add_argument("--family", required=True)
        p.add_argument("--level", type=int, required=True)
        common(p, fmt=("text", "json", "dot"))
        bound(p)
        p.set_defaults(fn=cmd_quotient)

    if p := built.get("decide"):
        p.add_argument("--family", required=True)
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--expect", choices=("bipartite", "odd-walk"))
        p.add_argument("--color-out")
        common(p)
        p.set_defaults(fn=cmd_decide)

    if p := built.get("scan"):
        p.add_argument("--family", required=True)
        p.add_argument("--levels", type=int, required=True)
        p.add_argument("--expect", choices=("bipartite", "odd-walk"))
        p.add_argument("--budget-ms", type=float, default=None)
        common(p)
        p.set_defaults(fn=cmd_scan)

    if p := built.get("color"):
        csp = p.add_subparsers(dest="sub", required=True)
        pb = csp.add_parser("build")
        pb.add_argument("--family", required=True)
        pb.add_argument("--kind", required=True,
                        choices=("parity", "three-beta", "return-parity"))
        pb.add_argument("--cylinder")
        pb.add_argument("--out")
        pb.set_defaults(fn=cmd_color_build)
        pv = csp.add_parser("verify")
        pv.add_argument("--family", required=True)
        pv.add_argument("--coloring")
        pv.add_argument("--predicate")
        pv.add_argument("--bound", type=int, default=4)
        pv.add_argument("--expect", choices=("ok", "violation"))
        pv.set_defaults(fn=cmd_color_verify)
        pc = csp.add_parser("search")
        pc.add_argument("--family", required=True)
        pc.add_argument("--level", type=int, required=True)
        pc.add_argument("--colors", type=int, required=True)
        pc.add_argument("--out")
        pc.add_argument("--expect", choices=("found", "absent"))
        pc.set_defaults(fn=cmd_color_search)

    if p := built.get("subshift"):
        ssp = p.add_subparsers(dest="sub", required=True)
        pm = ssp.add_parser("member")
        pm.add_argument("--word", required=True)
        pm.add_argument("--forbidden")
        pm.add_argument("--fib-p", type=int)
        pm.add_argument("--expect", choices=("member", "non-member"))
        pm.set_defaults(fn=cmd_subshift_member)
        pl = ssp.add_parser("lang")
        subshift_source(pl)
        pl.add_argument("--n", type=int, required=True)
        pl.set_defaults(fn=cmd_subshift_lang)
        px = ssp.add_parser("complexity")
        subshift_source(px)
        px.add_argument("--nmax", type=int, required=True)
        px.set_defaults(fn=cmd_subshift_complexity)
        pp = ssp.add_parser("powerfree")
        pp.add_argument("--word")
        pp.add_argument("--fib-prefix", type=int)
        pp.add_argument("--power", type=int, required=True)
        pp.add_argument("--expect", choices=("ok", "violation"))
        pp.set_defaults(fn=cmd_subshift_powerfree)

    if p := built.get("cb"):
        bsp = p.add_subparsers(dest="sub", required=True)
        pr = bsp.add_parser("rank")
        pr.add_argument("--forest")
        pr.add_argument("--family")
        pr.add_argument("--resolution", type=int, default=40)
        pr.add_argument("--expect-rank", type=int)
        pr.set_defaults(fn=cmd_cb_rank)

    if p := built.get("hom"):
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--injective", action="store_true")
        p.add_argument("--expect", choices=("found", "absent"))
        p.set_defaults(fn=cmd_hom)

    if p := built.get("spectrum"):
        p.add_argument("--family")
        p.add_argument("--graph")
        p.add_argument("--max-len", type=int, default=40)
        p.set_defaults(fn=cmd_spectrum)

    if p := built.get("obstruct"):
        p.add_argument("--g1", required=True)
        p.add_argument("--g2", required=True)
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--expect", choices=("obstructed", "clear"))
        common(p)
        p.set_defaults(fn=cmd_obstruct)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return rc
    except BrokenPipeError:
        # the reader left: what is still buffered goes nowhere, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except Mismatch as e:
        print("MISMATCH: %s" % e, file=sys.stderr)
        return 1
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, BudgetError, OSError) as e:
        # every library error class but BudgetError is a ValueError; a
        # family-spec error is a UsageError and carries the grammar itself
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
