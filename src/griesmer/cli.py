"""Command-line surface: bounds, searches, theorem verification, tables.

Exit codes: 0 success (for verify subcommands, only when every verdict
is confirmed); 1 usage or validation errors; 2 a search aborted by a
node limit before exhausting its space.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bounds import BoundReport, bound_report, bound_table, table_to_csv
from .core import CodeParams
from .search import SearchOutcome, full_search, load_witness_set, tail_search
from .theorems import THEOREM_IDS, Verdict, verify, verify_all

AD_HOC_NODE_LIMIT = 10**8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for
    # node-limited searches, so route usage errors through exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _print_bound(report: BoundReport, fmt: str) -> None:
    if fmt == "json":
        print(_json(report.to_dict()))
        return
    print(f"q={report.q} k={report.k} d={report.d}")
    print(f"griesmer = {report.griesmer}")
    print(f"singleton = {report.singleton}")
    print("terms = " + " ".join(str(t) for t in report.terms))


def _print_table(reports: Sequence[BoundReport], fmt: str) -> None:
    if fmt == "json":
        print(_json([r.to_dict() for r in reports]))
        return
    if fmt == "csv":
        sys.stdout.write(table_to_csv(reports))
        return
    print(f"{'q':>3} {'k':>3} {'d':>3} {'griesmer':>9} {'singleton':>10}")
    for r in reports:
        print(f"{r.q:>3} {r.k:>3} {r.d:>3} {r.griesmer:>9} {r.singleton:>10}")


def _print_outcome(outcome: SearchOutcome, fmt: str) -> None:
    if fmt == "json":
        print(_json(outcome.to_dict()))
        return
    print(f"feasible = {_json(outcome.feasible)}")
    print(f"exhausted = {_json(outcome.exhausted)}")
    print(f"nodes_explored = {outcome.nodes_explored}")
    if outcome.witness is not None:
        print("witness:")
        for w in outcome.witness:
            print(f"  {w}")


def _print_verdicts(verdicts: Sequence[Verdict], fmt: str, single: bool) -> None:
    if fmt == "json":
        if single:
            print(_json(verdicts[0].to_dict()))
        else:
            print(_json([v.to_dict() for v in verdicts]))
        return
    header = f"{'id':<8} {'q':>3} {'k':>3} {'d':>3} {'griesmer':>9} {'critical_n':>11} {'confirmed':>10} {'nodes':>12}"
    print(header)
    for v in verdicts:
        p = v.params
        print(
            f"{v.theorem_id:<8} {p.q:>3} {p.k:>3} {p.d:>3} {p.n + 1:>9} "
            f"{p.n:>11} {_json(v.confirmed):>10} {v.outcome.nodes_explored:>12}"
        )


def _build_parser() -> _Parser:
    parser = _Parser(prog="griesmer", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("bound", help="print the Griesmer and Singleton bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("table", help="print a bound table over a (k, d) grid")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = subs.add_parser("search-tail", help="search tail assignments for a witness set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tail-len", type=int, required=True)
    p.add_argument("--prefixes", required=True, metavar="FILE")
    p.add_argument("--node-limit", type=int, default=AD_HOC_NODE_LIMIT, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("search-full", help="search for a full systematic code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=AD_HOC_NODE_LIMIT, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("verify", help="verify one nonexistence case")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--node-limit", type=int, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("verify-all", help="verify every case up to --kmax")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--node-limit", type=int, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.subcommand == "bound":
        _print_bound(bound_report(args.q, args.k, args.d), args.format)
        return 0
    if args.subcommand == "table":
        _print_table(bound_table(args.q, args.kmax, args.dmax), args.format)
        return 0
    if args.subcommand == "search-tail":
        outcome = tail_search(load_witness_set(args.prefixes), args.tail_len, args.d, args.node_limit)
        _print_outcome(outcome, args.format)
        return 0 if outcome.exhausted else 2
    if args.subcommand == "search-full":
        params = CodeParams(q=args.q, n=args.n, k=args.k, d=args.d)
        outcome = full_search(params, args.node_limit)
        _print_outcome(outcome, args.format)
        return 0 if outcome.exhausted else 2
    if args.subcommand == "verify":
        verdicts = [verify(args.theorem, args.q, args.d, args.k, args.node_limit)]
    else:
        verdicts = verify_all(args.kmax, args.node_limit)
    _print_verdicts(verdicts, args.format, single=args.subcommand == "verify")
    if any(not v.outcome.exhausted for v in verdicts):
        return 2
    return 0 if all(v.confirmed for v in verdicts) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
