"""Command-line front end: run scenarios and verify the documented claims.

Exit codes: 0 on any completed run (including CONTRADICTS verdicts and
structured cap/surjectivity outcomes), 2 on schema errors and on paths that
cannot be read or written, 3 on numeric failures (root finding, tracking,
smoothness).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DegenerateCover, NotSmooth, NumericFailure, SchemaError
from .scenarios import Report, bundled_scenario_names, load_bundled, run_file, run_payload


def _print_summary(report: Report, stream) -> None:
    print(f"{report.scenario}: status={report.status}", file=stream)
    for claim in report.claims:
        print(f"  claim {claim['id']}: {claim['verdict']}", file=stream)


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_file(args.scenario)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _print_summary(report, sys.stderr)
    print(f"  elapsed: {report.timings.get('total_s', 0.0):.3f}s", file=sys.stderr)
    if args.debug_tables and report.table is not None:
        print(report.table.format_table(), file=sys.stderr)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    names = bundled_scenario_names()
    if args.filter:
        names = [n for n in names if args.filter in n]
    if not names:
        print("no bundled scenarios match", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        report = run_payload(load_bundled(name))
        out_path = os.path.join(args.out_dir, f"{name}.report.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        _print_summary(report, sys.stdout)
        print(f"  elapsed: {report.timings.get('total_s', 0.0):.3f}s", file=sys.stderr)
        print(f"  wrote {out_path}", file=sys.stderr)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in bundled_scenario_names():
        desc = load_bundled(name).get("description", "")
        print(f"{name}: {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverext",
        description="Run cover-extension, braid, slice-monodromy and Levi-form scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario JSON file")
    p_run.add_argument("scenario", help="path to the scenario file")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument(
        "--debug-tables",
        action="store_true",
        help="dump the run's coset table to stderr (extension runs that computed one)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify-paper", help="run every bundled scenario and write its report"
    )
    p_verify.add_argument("--filter", help="only scenarios whose name contains this substring")
    p_verify.add_argument(
        "--out-dir", default="paper_reports", help="report directory (default: paper_reports)"
    )
    p_verify.set_defaults(func=_cmd_verify_paper)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, DegenerateCover, NotSmooth) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
