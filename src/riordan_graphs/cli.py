"""Command-line front end: series evaluation, graph building, counting,
bound reports, and verification sweeps.

Output is JSON on stdout unless a format flag says otherwise, so results
compose in pipelines.  Exit codes: 0 success, 1 a verification check failed,
2 invalid input or an unwritable stdout.  The counting guard is --max-n, the
RIORDAN_MAX_N environment variable, or 40, in that order; --force disables it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import counting, verify
from .graphs import export_graph, parse_graph_spec
from .series import evaluate, parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Build Riordan/Toeplitz graphs, count independent sets, check bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="series operations")
    series_sub = p_series.add_subparsers(dest="series_command", required=True)
    p_eval = series_sub.add_parser("eval", help="evaluate a series expression mod 2")
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument("--order", type=int, required=True)

    p_graph = sub.add_parser("graph", help="graph operations")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_build = graph_sub.add_parser("build", help="build a graph from a spec string")
    p_build.add_argument("--spec", required=True)
    p_build.add_argument("--format", choices=("dot", "json"), default="json")

    p_count = sub.add_parser("count", help="exact counts for a graph spec")
    p_count.add_argument("--spec", required=True)
    p_count.add_argument(
        "--what", choices=("is", "cliques", "alpha", "max-is", "maximal"), default="is"
    )
    p_count.add_argument("--engine", choices=("auto", "brute", "branch", "banded"), default="auto")
    _add_guard_flags(p_count)

    p_bounds = sub.add_parser("bounds", help="evaluate every applicable bound")
    p_bounds.add_argument("--spec", required=True)
    p_bounds.add_argument("--format", choices=("json", "table"), default="json")
    _add_guard_flags(p_bounds)

    p_verify = sub.add_parser("verify", help="verification workflows")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_table = verify_sub.add_parser("table1", help="reproduce the reference count table")
    p_table.add_argument("--max-n", type=int, default=12)
    p_sweep = verify_sub.add_parser("sweep", help="check bounds across a range of orders")
    p_sweep.add_argument("--family", required=True, help="spec template with an {n} placeholder")
    p_sweep.add_argument("--range", required=True, help="inclusive range a..b")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    _add_guard_flags(p_sweep)
    p_decomp = verify_sub.add_parser("decomposition", help="check predicted odd/even blocks")
    p_decomp.add_argument("--spec", required=True)

    return parser


def _add_guard_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-n", type=int, default=None, help="counting size guard")
    sub.add_argument("--force", action="store_true", help="disable the size guard")


def _guard_value(args) -> int:
    if args.force:
        return 1 << 30
    if args.max_n is not None:
        return args.max_n
    env = os.environ.get("RIORDAN_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"RIORDAN_MAX_N must be an integer, got {env!r}") from None
    return verify.DEFAULT_MAX_N


def _emit(payload) -> None:
    print(json.dumps(payload))


def _run_count(args) -> int:
    if args.what not in ("is", "cliques") and args.engine in ("brute", "banded"):
        raise ValueError(f"the {args.engine} engine does not apply to --what {args.what}")
    spec = parse_graph_spec(args.spec)
    verify.check_guard(spec.n, _guard_value(args))
    graph = spec.build()
    out = {"spec": args.spec, "what": args.what}
    if args.what in ("is", "cliques"):
        out["engine"], out["count"] = counting.exact_count(graph, args.what, args.engine)
    elif args.what == "alpha":
        out["count"] = counting.independence_number(graph)
    elif args.what == "max-is":
        result = counting.count_maximum_is(graph)
        out["count"] = result.count
        if result.witnesses is not None:
            out["witnesses"] = [list(w) for w in result.witnesses]
    else:  # maximal
        sets = counting.list_maximal_is(graph)
        out["count"] = len(sets)
        out["sets"] = [list(s) for s in sets]
    _emit(out)
    return 0


def _run_bounds(args) -> int:
    report = verify.bound_report(args.spec, max_n=_guard_value(args))
    if args.format == "table":
        print(f"spec {report.spec}  n={report.n}  exact={report.exact}")
        for e in report.entries:
            flag = "ok" if e.holds else "VIOLATED"
            tight = " (tight)" if e.tight else ""
            print(f"  {e.bound:<22} {e.relation:<5} {e.value:<12} {flag}{tight}")
        for note in report.notes:
            print(f"  {note}")
    else:
        _emit(report.to_dict())
    return 0 if report.ok else 1


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like a..b, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range endpoints must be integers in {text!r}") from None
    if b < a:
        raise ValueError(f"range {text!r} is empty: {b} < {a}")
    return range(a, b + 1)


def _run_verify(args) -> int:
    if args.verify_command == "table1":
        report = verify.verify_table1(args.max_n)
        _emit(report.to_dict())
        return 0 if report.ok else 1
    if args.verify_command == "sweep":
        reports = verify.sweep_bounds(args.family, _parse_range(args.range), _guard_value(args))
        if args.format == "csv":
            sys.stdout.write(verify.reports_to_csv(reports))
        else:
            print(verify.reports_to_json(reports))
        return 0 if verify.all_reports_ok(reports) else 1
    # decomposition
    spec = parse_graph_spec(args.spec)
    if spec.riordan is None:
        raise ValueError(f"spec {args.spec!r} does not describe a Riordan graph")
    check = verify.verify_decomposition(spec.riordan)
    _emit({"spec": args.spec, **check._asdict()})
    return 0 if check.ok else 1


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "series":
            bits = evaluate(parse(args.expr), args.order).bits
            head = json.dumps({"expr": args.expr, "order": args.order})[:-1]
            digits = ", ".join(format(bits, f"0{args.order}b")[::-1])  # digit k: coefficient k
            print(f'{head}, "coefficients": [{digits}]}}')  # the text json.dumps gives the payload
            return 0
        if args.command == "graph":
            print(export_graph(parse_graph_spec(args.spec).build(), args.format))
            return 0
        if args.command == "count":
            return _run_count(args)
        if args.command == "bounds":
            return _run_bounds(args)
        return _run_verify(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # str(MemoryError()) is empty
        print("error: out of memory", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a short output fails here, not at the interpreter's exit
        return code
    except OSError as exc:  # stdout unwritable: a closed pipe, a full disk
        print(f"error: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:  # fd 1 to the null device: the exit flush raises nothing
            os.dup2(null := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(null)
        return 2


if __name__ == "__main__":
    sys.exit(main())
