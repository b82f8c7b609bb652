"""Benchmark-history ledger: schema, baseline choice, regression gate."""

import pytest

from repro.obs import (
    append_entry,
    compare_reports,
    find_baseline,
    history_entry,
    load_history,
    validate_bench_report,
)
from repro.obs.history import (
    BENCH_SCHEMA,
    DEFAULT_TOLERANCES,
    HISTORY_SCHEMA,
    record_key,
    run_id_for,
    validate_entry,
)


def make_record(**overrides) -> dict:
    record = {
        "kernel": "point_stab",
        "n_rects": 1000,
        "n_points": 500,
        "seconds": 0.1,
        "ops_per_s": 5.0e6,
        "unit": "pair-tests/s",
        "dense_seconds": 1.0,
        "speedup_vs_dense": 10.0,
    }
    record.update(overrides)
    return record


def make_report(records=None, *, smoke=False, seed=0) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "smoke": smoke,
        "records": records if records is not None else [make_record()],
    }


class TestValidation:
    def test_valid_report(self):
        assert validate_bench_report(make_report()) == []

    def test_rejects_wrong_schema_and_types(self):
        bad = make_report()
        bad["schema"] = "nope"
        bad["records"][0]["seconds"] = "fast"
        errors = validate_bench_report(bad)
        assert any("schema" in e for e in errors)
        assert any("seconds" in e for e in errors)

    def test_entry_round_trip_validates(self):
        entry = history_entry(
            make_report(), recorded_at="2026-01-01T00:00:00+00:00"
        )
        assert entry["schema"] == HISTORY_SCHEMA
        assert validate_entry(entry) == []

    def test_entry_refuses_invalid_report(self):
        with pytest.raises(ValueError, match="invalid bench report"):
            history_entry({"schema": "nope"})

    def test_run_id_is_content_hash(self):
        a, b = make_report(), make_report()
        assert run_id_for(a) == run_id_for(b)
        b["records"][0]["seconds"] = 0.2
        assert run_id_for(a) != run_id_for(b)

    def test_record_key(self):
        assert record_key(make_record()) == ("point_stab", 1000, 500)


class TestLedger:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = history_entry(make_report(), note="first")
        second = history_entry(
            make_report([make_record(seconds=0.2)]), note="second"
        )
        append_entry(path, first)
        append_entry(path, second)
        entries = load_history(path)
        assert [e["note"] for e in entries] == ["first", "second"]

    def test_load_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_entry(path, history_entry(make_report()))
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            load_history(path)

    def test_append_rejects_invalid_entry(self, tmp_path):
        with pytest.raises(ValueError, match="invalid history entry"):
            append_entry(tmp_path / "h.jsonl", {"schema": "nope"})


class TestFindBaseline:
    def test_picks_newest_matching_smoke_flag(self):
        full = history_entry(make_report(), run_id="full")
        smoke_old = history_entry(make_report(smoke=True), run_id="s-old")
        smoke_new = history_entry(make_report(smoke=True), run_id="s-new")
        entries = [full, smoke_old, smoke_new]
        assert find_baseline(entries, make_report(smoke=True))["run_id"] == "s-new"
        assert find_baseline(entries, make_report())["run_id"] == "full"

    def test_requires_overlapping_record_keys(self):
        other = history_entry(
            make_report([make_record(n_rects=9999)]), run_id="other"
        )
        assert find_baseline([other], make_report()) is None

    def test_newest_record_per_key(self):
        old = history_entry(
            make_report([make_record(), make_record(kernel="sweep")]),
            run_id="old",
        )
        new = history_entry(make_report([make_record(seconds=0.2)]), run_id="new")
        report = make_report([make_record(), make_record(kernel="sweep")])
        baseline = find_baseline([old, new], report)
        assert baseline["run_id"] == "new+old"
        by_kernel = {r["kernel"]: r["seconds"] for r in baseline["records"]}
        assert by_kernel == {"point_stab": 0.2, "sweep": 0.1}

    def test_partial_entry_does_not_shadow_older_records(self):
        # A newer entry holding one other kernel must not take over as
        # the baseline of the kernels it lacks.
        full = history_entry(
            make_report([make_record(), make_record(kernel="sweep")]),
            run_id="full",
        )
        partial = history_entry(
            make_report([make_record(kernel="tat_build", n_points=0)]),
            run_id="partial",
        )
        latest = make_report(
            [
                make_record(seconds=0.1 * 2.0),
                make_record(kernel="sweep"),
                make_record(kernel="tat_build", n_points=0),
            ]
        )
        baseline = find_baseline([full, partial], latest)
        comparison = compare_reports(baseline, latest)
        assert comparison.skipped == ()
        assert {d.kernel for d in comparison.deltas} == {
            "point_stab", "sweep", "tat_build"
        }
        assert [(d.kernel, d.metric) for d in comparison.regressions] == [
            ("point_stab", "seconds")
        ]

    def test_explicit_run_id(self):
        entry = history_entry(make_report(), run_id="wanted")
        assert find_baseline([entry], make_report(), baseline_run_id="wanted") is entry
        with pytest.raises(ValueError, match="no history entry"):
            find_baseline([entry], make_report(), baseline_run_id="absent")


class TestCompareReports:
    def test_unchanged_report_passes(self):
        comparison = compare_reports(make_report(), make_report())
        assert comparison.ok
        assert len(comparison.deltas) == len(DEFAULT_TOLERANCES)
        assert comparison.skipped == ()

    def test_slower_seconds_regresses(self):
        latest = make_report([make_record(seconds=0.1 * 2.0)])
        comparison = compare_reports(make_report(), latest)
        assert not comparison.ok
        metrics = {d.metric for d in comparison.regressions}
        assert metrics == {"seconds"}
        (delta,) = comparison.regressions
        assert delta.worsening == pytest.approx(2.0)
        assert "REGRESSED" in delta.describe()

    def test_lower_throughput_regresses(self):
        latest = make_report(
            [make_record(ops_per_s=5.0e6 / 2, speedup_vs_dense=10.0 / 2)]
        )
        comparison = compare_reports(make_report(), latest)
        metrics = {d.metric for d in comparison.regressions}
        assert metrics == {"ops_per_s", "speedup_vs_dense"}

    def test_improvement_never_regresses(self):
        latest = make_report(
            [make_record(seconds=0.01, ops_per_s=5.0e8, speedup_vs_dense=100.0)]
        )
        assert compare_reports(make_report(), latest).ok

    def test_tolerance_override(self):
        latest = make_report([make_record(seconds=0.1 * 2.0)])
        loose = compare_reports(
            make_report(), latest, tolerances={"seconds": 3.0}
        )
        assert loose.ok
        with pytest.raises(ValueError, match="unknown tolerance"):
            compare_reports(make_report(), latest, tolerances={"typo": 2.0})

    def test_mismatched_sizes_skipped_not_compared(self):
        latest = make_report([make_record(n_rects=2000)])
        comparison = compare_reports(make_report(), latest)
        assert comparison.deltas == ()
        assert comparison.skipped == (
            "point_stab[1000x500]",
            "point_stab[2000x500]",
        )
        assert comparison.ok  # nothing comparable, nothing regressed
