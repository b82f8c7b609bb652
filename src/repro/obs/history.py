"""The benchmark-history ledger behind ``tools/bench_history.py``.

``BENCH_repro.json`` is a single snapshot: one run's kernel timings.
The ROADMAP's "as fast as the hardware allows" goal needs a
*trajectory* — successive runs appended to a durable record, and a
gate that fails when the latest run regresses against a baseline.
This module supplies both halves:

* **Ledger** — `append_entry` appends one schema-validated run to a
  JSON-Lines file (``BENCH_history.jsonl`` at the repo root, committed
  so the trajectory survives across PRs).  One line per run keeps
  diffs append-only and merges trivial.
* **Gate** — `compare_reports` checks the latest run against a chosen
  baseline per (kernel, sizes) pair, with per-metric noise tolerances:
  timing metrics are allowed a bounded *worsening factor* before the
  comparison counts as a regression.  `find_baseline` assembles the
  baseline per (kernel, sizes) key: the most recent record of each key
  among entries with the same smoke flag.

The bench *report* schema (``repro-bench/1``) is canonically validated
here by :func:`validate_bench_report`; ``benchmarks/bench_kernels.py``
delegates to it so the producer and the ledger can never drift apart.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA",
    "Comparison",
    "DEFAULT_TOLERANCES",
    "HISTORY_SCHEMA",
    "MetricDelta",
    "RECORD_FIELDS",
    "append_entry",
    "compare_reports",
    "find_baseline",
    "history_entry",
    "load_history",
    "record_key",
    "run_id_for",
    "validate_bench_report",
    "validate_entry",
]

BENCH_SCHEMA = "repro-bench/1"
"""Schema tag of one benchmark run (``BENCH_repro.json``)."""

HISTORY_SCHEMA = "repro-bench-history/1"
"""Schema tag of one ledger line (``BENCH_history.jsonl``)."""

RECORD_FIELDS = {
    "kernel": str,
    "n_rects": int,
    "n_points": int,
    "seconds": float,
    "ops_per_s": float,
    "unit": str,
    "dense_seconds": float,
    "speedup_vs_dense": float,
}
"""Required fields (and types) of every record in a bench report.

A kernel with no query points records ``n_points`` as 0.  Records may
carry extra fields (``tat_build`` adds ``capacity`` and ``cpu_count``);
validation and the gate ignore them."""

DEFAULT_TOLERANCES: dict[str, float] = {
    "seconds": 1.35,
    "ops_per_s": 1.35,
    "speedup_vs_dense": 1.3,
}
"""Per-metric maximum worsening factor before a delta counts as a
regression.  ``seconds`` may grow by the factor; throughput-like
metrics (``ops_per_s``, ``speedup_vs_dense``) may shrink by it.  The
defaults absorb ordinary machine noise (run-to-run jitter of these
kernels is a few percent on an idle host, so 1.3–1.35× leaves ample
headroom) while catching any real algorithmic regression, which
historically shows up as ≥ 2×.  Measured trajectory across the
committed ledger: every same-host kernel ratio stayed within 1.15×
except where the *baseline* side legitimately changed (e.g. the
stabber work hint speeding up the online engine) — those land as a
fresh ledger entry, not a loosened gate."""

_LOWER_IS_BETTER = frozenset({"seconds"})
_HIGHER_IS_BETTER = frozenset({"ops_per_s", "speedup_vs_dense"})


def validate_bench_report(report: object) -> list[str]:
    """Schema errors in a parsed bench report (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(report, Mapping):
        return ["report must be a JSON object"]
    if report.get("schema") != BENCH_SCHEMA:
        errors.append(
            f"schema must be {BENCH_SCHEMA!r}, got {report.get('schema')!r}"
        )
    if not isinstance(report.get("seed"), int):
        errors.append("seed must be an integer")
    if not isinstance(report.get("smoke"), bool):
        errors.append("smoke must be a boolean")
    records = report.get("records")
    if not isinstance(records, list) or not records:
        return errors + ["records must be a non-empty list"]
    for i, record in enumerate(records):
        if not isinstance(record, Mapping):
            errors.append(f"records[{i}] must be an object")
            continue
        for fld, kind in RECORD_FIELDS.items():
            value = record.get(fld)
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(
                    value, bool
                )
            elif kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                errors.append(
                    f"records[{i}].{fld} must be {kind.__name__}, "
                    f"got {value!r}"
                )
        for fld in ("seconds", "dense_seconds", "speedup_vs_dense"):
            value = record.get(fld)
            if isinstance(value, (int, float)) and value <= 0:
                errors.append(f"records[{i}].{fld} must be positive")
    return errors


def record_key(record: Mapping[str, Any]) -> tuple[str, int, int]:
    """The identity of one benchmark measurement.

    Two records are comparable only when kernel *and* problem sizes
    match — a smoke run's timings say nothing about a full run's.
    """
    return (
        str(record["kernel"]),
        int(record["n_rects"]),
        int(record["n_points"]),
    )


def run_id_for(report: Mapping[str, Any]) -> str:
    """A deterministic run id: content hash of the report's records.

    Used when the caller supplies no explicit id; identical results
    hash identically, so re-appending the same run is visible in the
    ledger rather than disguised by a fresh label.
    """
    canonical = json.dumps(report.get("records"), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def history_entry(
    report: Mapping[str, Any],
    *,
    run_id: str | None = None,
    recorded_at: str | None = None,
    note: str = "",
) -> dict[str, Any]:
    """One validated ledger line for a bench report.

    ``recorded_at`` is a caller-supplied ISO-8601 timestamp (the tool
    stamps UTC now; tests pass fixed values so entries stay
    deterministic).
    """
    errors = validate_bench_report(report)
    if errors:
        raise ValueError(
            "refusing to append an invalid bench report: " + "; ".join(errors)
        )
    return {
        "schema": HISTORY_SCHEMA,
        "run_id": run_id or run_id_for(report),
        "recorded_at": recorded_at,
        "note": str(note),
        "smoke": bool(report["smoke"]),
        "seed": int(report["seed"]),
        "records": [dict(r) for r in report["records"]],
    }


def validate_entry(entry: object) -> list[str]:
    """Schema errors in one parsed ledger line (empty list = valid)."""
    if not isinstance(entry, Mapping):
        return ["entry must be a JSON object"]
    errors: list[str] = []
    if entry.get("schema") != HISTORY_SCHEMA:
        errors.append(
            f"schema must be {HISTORY_SCHEMA!r}, got {entry.get('schema')!r}"
        )
    if not isinstance(entry.get("run_id"), str) or not entry.get("run_id"):
        errors.append("run_id must be a non-empty string")
    recorded = entry.get("recorded_at")
    if recorded is not None and not isinstance(recorded, str):
        errors.append("recorded_at must be a string or null")
    as_report = {
        "schema": BENCH_SCHEMA,
        "seed": entry.get("seed"),
        "smoke": entry.get("smoke"),
        "records": entry.get("records"),
    }
    errors.extend(validate_bench_report(as_report))
    return errors


def append_entry(path: str | Path, entry: Mapping[str, Any]) -> None:
    """Validate and append one ledger line (creates the file)."""
    errors = validate_entry(entry)
    if errors:
        raise ValueError("invalid history entry: " + "; ".join(errors))
    line = json.dumps(entry, sort_keys=True)
    with Path(path).open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """All ledger entries, oldest first; raises on any invalid line."""
    entries: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
        errors = validate_entry(entry)
        if errors:
            raise ValueError(f"{path}:{lineno}: " + "; ".join(errors))
        entries.append(entry)
    return entries


def find_baseline(
    entries: Sequence[Mapping[str, Any]],
    report: Mapping[str, Any],
    *,
    baseline_run_id: str | None = None,
) -> Mapping[str, Any] | None:
    """The baseline to gate ``report`` against.

    With ``baseline_run_id``, the entry with that id (raises if
    absent).  Otherwise a baseline assembled key by key: for each
    (kernel, sizes) key of the report, the most recent record with
    that key among the entries whose smoke flag matches — smoke runs
    gate against smoke history, full runs against full history.  An
    entry that records only some kernels therefore gates those kernels
    and never hides older records of the others.  The assembled
    baseline's ``run_id`` (and ``note``) names every entry it drew on,
    newest first, joined by ``+`` (``"; "``).  ``None`` when no key has
    a record (a first run passes trivially).
    """
    if baseline_run_id is not None:
        for entry in entries:
            if entry.get("run_id") == baseline_run_id:
                return entry
        raise ValueError(f"no history entry with run_id {baseline_run_id!r}")
    want_smoke = bool(report["smoke"])
    wanted = {record_key(r) for r in report["records"]}
    chosen: dict[tuple[str, int, int], Mapping[str, Any]] = {}
    sources: list[Mapping[str, Any]] = []
    for entry in reversed(entries):
        if bool(entry.get("smoke")) != want_smoke:
            continue
        drawn = False
        for record in entry["records"]:
            key = record_key(record)
            if key in wanted and key not in chosen:
                chosen[key] = record
                drawn = True
        if drawn:
            sources.append(entry)
    if not sources:
        return None
    return {
        "run_id": "+".join(str(e["run_id"]) for e in sources),
        "note": "; ".join(str(e["note"]) for e in sources if e.get("note")),
        "smoke": want_smoke,
        "records": [chosen[key] for key in sorted(chosen)],
    }


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one kernel, baseline vs latest."""

    kernel: str
    metric: str
    baseline: float
    latest: float
    worsening: float
    """Factor by which the metric got worse (1.0 = unchanged; for
    ``seconds`` this is ``latest / baseline``, for throughput metrics
    ``baseline / latest``)."""
    tolerance: float
    regressed: bool

    def describe(self) -> str:
        """One human-readable gate line."""
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.kernel}.{self.metric}: {self.baseline:.6g} -> "
            f"{self.latest:.6g} ({self.worsening:.2f}x worse, "
            f"tolerance {self.tolerance:.2f}x) {verdict}"
        )


@dataclass(frozen=True)
class Comparison:
    """The gate's full verdict for one latest-vs-baseline check."""

    baseline_run_id: str
    deltas: tuple[MetricDelta, ...]
    skipped: tuple[str, ...]
    """Kernels present in only one of the two reports (size or kernel
    mismatch) — reported, never silently dropped."""

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        """The deltas that exceeded their tolerance."""
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        """True when no compared metric regressed."""
        return not self.regressions


def compare_reports(
    baseline: Mapping[str, Any],
    latest: Mapping[str, Any],
    *,
    tolerances: Mapping[str, float] | None = None,
) -> Comparison:
    """Gate ``latest`` against ``baseline``, metric by metric.

    ``baseline`` is a ledger entry, a bench report or the output of
    :func:`find_baseline` (all carry ``records``); ``latest`` likewise.
    Only (kernel, sizes) pairs present in both are compared; the rest
    land in ``skipped``.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance metric(s): {sorted(unknown)}")
        tols.update(tolerances)

    base_records = {record_key(r): r for r in baseline["records"]}
    late_records = {record_key(r): r for r in latest["records"]}
    deltas: list[MetricDelta] = []
    for key in sorted(base_records.keys() & late_records.keys()):
        base, late = base_records[key], late_records[key]
        for metric, tolerance in sorted(tols.items()):
            before, after = float(base[metric]), float(late[metric])
            if metric in _LOWER_IS_BETTER:
                worsening = after / before if before > 0 else float("inf")
            else:
                worsening = before / after if after > 0 else float("inf")
            deltas.append(
                MetricDelta(
                    kernel=key[0],
                    metric=metric,
                    baseline=before,
                    latest=after,
                    worsening=worsening,
                    tolerance=float(tolerance),
                    regressed=worsening > tolerance,
                )
            )
    skipped = sorted(
        f"{k[0]}[{k[1]}x{k[2]}]"
        for k in base_records.keys() ^ late_records.keys()
    )
    return Comparison(
        baseline_run_id=str(baseline.get("run_id", "<report>")),
        deltas=tuple(deltas),
        skipped=tuple(skipped),
    )
