#!/usr/bin/env python3
"""Benchmark-history ledger tool: append runs, gate against regressions.

``BENCH_repro.json`` (written by ``benchmarks/bench_kernels.py``) is a
single snapshot.  This tool maintains ``BENCH_history.jsonl`` — an
append-only JSON-Lines ledger of successive runs — and gates the
latest snapshot against a baseline entry with per-metric noise
tolerances (see :mod:`repro.obs.history` for the comparison rules).

Usage::

    python tools/bench_history.py check                 # gate, exit 1 on regression
    python tools/bench_history.py --check               # same (flag spelling)
    python tools/bench_history.py append --note "PR 5"  # record a run
    python tools/bench_history.py list                  # show the ledger

``check`` compares ``--report`` (default ``BENCH_repro.json``) record
by record against, for each (kernel, sizes) key, the most recent
ledger record with that key and the same smoke flag — or against the
entry named by ``--baseline RUN_ID``.  A first run with no comparable
baseline passes.
Tolerances can be loosened per metric with ``--tolerance seconds=2.0``
(repeatable); CI uses wider factors than local runs to absorb shared-
runner variance.

In CI the gate runs **before** the smoke report is appended, so a run
is always compared against history, never against itself.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed package (CI) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout: python tools/bench_history.py
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.history import (
    DEFAULT_TOLERANCES,
    append_entry,
    compare_reports,
    find_baseline,
    history_entry,
    load_history,
    validate_bench_report,
)

__all__ = ["main"]


def _load_report(path: Path) -> dict:
    """Read and schema-validate a bench report, or exit with a message."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{path}: unreadable report: {exc}")
    errors = validate_bench_report(report)
    if errors:
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        raise SystemExit(1)
    return report


def _load_entries(path: Path) -> list[dict]:
    if not path.exists():
        return []
    try:
        return load_history(path)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    tolerances: dict[str, float] = {}
    for pair in pairs:
        metric, sep, factor = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"--tolerance wants METRIC=FACTOR, got {pair!r} "
                f"(metrics: {', '.join(sorted(DEFAULT_TOLERANCES))})"
            )
        try:
            tolerances[metric] = float(factor)
        except ValueError:
            raise SystemExit(f"--tolerance {pair!r}: not a number: {factor!r}")
    return tolerances


def _cmd_check(args: argparse.Namespace) -> int:
    report = _load_report(args.report)
    entries = _load_entries(args.history)
    try:
        baseline = find_baseline(
            entries, report, baseline_run_id=args.baseline
        )
        if baseline is None:
            print(
                f"{args.report}: no comparable baseline in {args.history} "
                f"(smoke={report['smoke']}) — first run passes"
            )
            return 0
        comparison = compare_reports(
            baseline, report, tolerances=_parse_tolerances(args.tolerance)
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"baseline: run {comparison.baseline_run_id}"
          + (f" ({baseline.get('note')})" if baseline.get("note") else ""))
    for delta in comparison.deltas:
        print(f"  {delta.describe()}")
    for name in comparison.skipped:
        print(f"  {name}: only in one report, skipped")
    if not comparison.ok:
        print(
            f"FAIL: {len(comparison.regressions)} metric(s) regressed "
            f"beyond tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {len(comparison.deltas)} metric comparison(s) within "
          f"tolerance")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    report = _load_report(args.report)
    recorded_at = args.recorded_at or (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
    )
    entry = history_entry(
        report,
        run_id=args.run_id,
        recorded_at=recorded_at,
        note=args.note,
    )
    duplicate = any(
        e.get("run_id") == entry["run_id"] for e in _load_entries(args.history)
    )
    if duplicate and not args.allow_duplicate:
        print(
            f"{args.history}: run {entry['run_id']} already recorded "
            f"(identical records hash identically; use --allow-duplicate "
            f"to append anyway)"
        )
        return 0
    append_entry(args.history, entry)
    print(
        f"appended run {entry['run_id']} "
        f"({len(entry['records'])} record(s), smoke={entry['smoke']}) "
        f"to {args.history}"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    entries = _load_entries(args.history)
    if not entries:
        print(f"{args.history}: no entries")
        return 0
    for entry in entries:
        kernels = ", ".join(
            f"{r['kernel']}={r['seconds']:.4g}s" for r in entry["records"]
        )
        flavour = "smoke" if entry["smoke"] else "full"
        note = f"  # {entry['note']}" if entry.get("note") else ""
        print(
            f"{entry['run_id']}  {entry.get('recorded_at') or '-':25s} "
            f"{flavour:5s} {kernels}{note}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Accept the flag spelling `--check` as an alias for the
    # subcommand, so `tools/bench_history.py --check` works in CI
    # one-liners.
    argv = ["check" if a == "--check" else a for a in argv]

    parser = argparse.ArgumentParser(
        prog="bench_history",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--report",
        type=Path,
        default=REPO_ROOT / "BENCH_repro.json",
        help="bench report to gate/record (default: BENCH_repro.json)",
    )
    common.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="ledger path (default: BENCH_history.jsonl at the repo root)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check",
        parents=[common],
        help="gate the report against the ledger; exit 1 on regression",
    )
    check.add_argument(
        "--baseline",
        metavar="RUN_ID",
        default=None,
        help="compare against this ledger entry (default: the newest "
        "record of each key)",
    )
    check.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=FACTOR",
        help=(
            "override a metric's max worsening factor, e.g. seconds=2.0 "
            f"(defaults: {json.dumps(DEFAULT_TOLERANCES)})"
        ),
    )
    check.set_defaults(func=_cmd_check)

    append = sub.add_parser(
        "append", parents=[common], help="record the report in the ledger"
    )
    append.add_argument(
        "--note", default="", help="free-text label stored with the entry"
    )
    append.add_argument(
        "--run-id",
        default=None,
        help="explicit run id (default: content hash of the records)",
    )
    append.add_argument(
        "--recorded-at",
        default=None,
        metavar="ISO8601",
        help="timestamp to store (default: UTC now)",
    )
    append.add_argument(
        "--allow-duplicate",
        action="store_true",
        help="append even when the same run id is already recorded",
    )
    append.set_defaults(func=_cmd_append)

    lst = sub.add_parser(
        "list", parents=[common], help="print the ledger, oldest first"
    )
    lst.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
