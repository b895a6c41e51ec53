"""Bench subsystem: report schema, regression gate, and measurement."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchEntry,
    MODELS,
    BenchReport,
    calibrate_machine,
    compare_reports,
    measure_subset,
)
from repro.bench.throughput import CALIBRATION_REFERENCE_S


def _report(calibration_s=CALIBRATION_REFERENCE_S, scalar_cps=5000.0,
            fast_cps=10000.0, cycles=1000, subset=(("HW", 1),)):
    report = BenchReport(calibration_s=calibration_s, reps=3,
                         subset=tuple(subset), machine="test")
    for abbr, scale in subset:
        for model in MODELS:
            for engine, cps in (("scalar", scalar_cps), ("fast", fast_cps)):
                report.entries.append(BenchEntry(
                    abbr=abbr, scale=scale, model=model, engine=engine,
                    cycles=cycles, instructions=cycles * 2,
                    wall_s=cycles / cps, cycles_per_sec=cps))
    return report


class TestReportSchema:
    def test_round_trip(self):
        report = _report()
        clone = BenchReport.from_dict(json.loads(report.to_json()))
        assert clone.subset == report.subset
        assert clone.reps == report.reps
        assert [e.to_dict() for e in clone.entries] == \
            [e.to_dict() for e in report.entries]

    def test_unknown_schema_version_rejected(self):
        data = _report().to_dict()
        data["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            BenchReport.from_dict(data)

    def test_aggregates(self):
        report = _report(scalar_cps=5000.0, fast_cps=10000.0)
        for model in MODELS:
            assert report.aggregate_cps(model, "scalar") == \
                pytest.approx(5000.0)
            assert report.speedup(model) == pytest.approx(2.0)

    def test_aggregates_are_per_model(self):
        report = _report()
        for entry in report.entries_for("RLPV", "fast"):
            entry.cycles_per_sec /= 2
        assert report.speedup("Base") == pytest.approx(2.0)
        assert report.speedup("RLPV") == pytest.approx(1.0)
        assert report.to_dict()["speedup"] == {"Base": 2.0, "RLPV": 1.0}

    def test_machine_normalization(self):
        # A machine whose calibration runs 2x slower than the reference gets
        # its throughput scaled 2x up (same simulator, slower host).
        slow = _report(calibration_s=2 * CALIBRATION_REFERENCE_S)
        fast = _report(calibration_s=CALIBRATION_REFERENCE_S)
        assert slow.aggregate_cps("Base", "scalar", normalized=True) == \
            pytest.approx(2 * fast.aggregate_cps("Base", "scalar",
                                                 normalized=True))


class TestRegressionGate:
    def test_passes_when_equal(self):
        gate = compare_reports(_report(), _report())
        assert gate.ok

    def test_passes_within_tolerance(self):
        current = _report(scalar_cps=5000.0 * 0.90, fast_cps=10000.0 * 0.90)
        assert compare_reports(current, _report()).ok

    def test_fails_beyond_tolerance(self):
        current = _report(scalar_cps=5000.0 * 0.80, fast_cps=10000.0 * 0.80)
        gate = compare_reports(current, _report())
        assert not gate.ok
        assert any("REGRESSION" in m for m in gate.messages)

    def test_normalization_excuses_a_slow_machine(self):
        # Half the raw throughput on a machine that calibrates 2x slower is
        # not a regression.
        current = _report(calibration_s=2 * CALIBRATION_REFERENCE_S,
                          scalar_cps=2500.0, fast_cps=5000.0)
        assert compare_reports(current, _report()).ok

    def test_subset_change_trips_gate(self):
        current = _report(subset=(("KM", 1),))
        gate = compare_reports(current, _report())
        assert not gate.ok
        assert any("subset" in m for m in gate.messages)

    def test_cycle_drift_trips_gate(self):
        current = _report(cycles=1001)
        gate = compare_reports(current, _report())
        assert not gate.ok
        assert any("drift" in m for m in gate.messages)

    def test_rlpv_regression_alone_trips_gate(self):
        """A slowdown confined to the WIR design point is not averaged away
        by an unchanged Base aggregate."""
        current = _report()
        for entry in current.entries_for("RLPV", "fast"):
            entry.cycles_per_sec *= 0.5
        gate = compare_reports(current, _report())
        assert not gate.ok
        regressions = [m for m in gate.messages if "REGRESSION" in m]
        assert len(regressions) == 1
        assert regressions[0].startswith("REGRESSION RLPV/fast")

    def test_cycle_drift_message_names_workload_and_both_counts(self):
        """A drift failure must say *which* workload/scale pair moved and
        print both cycle counts — a bare "cycles changed" is undebuggable
        from CI logs."""
        current = _report(cycles=1001)
        gate = compare_reports(current, _report())
        drift = [m for m in gate.messages if "drift" in m]
        assert drift
        for message in drift:
            assert "HW@1" in message, message
            assert "baseline 1000" in message, message
            assert "now 1001" in message, message

    def test_regression_message_names_worst_offender(self):
        """An aggregate REGRESSION names the workload that dropped the most,
        with its baseline and current normalized throughput."""
        subset = (("HW", 1), ("KM", 2))
        baseline = _report(subset=subset)
        current = _report(subset=subset)
        for entry in current.entries:
            # KM collapses, HW merely wobbles: KM must be called out.
            factor = 0.5 if entry.abbr == "KM" else 0.9
            entry.cycles_per_sec *= factor
            entry.wall_s /= factor
        gate = compare_reports(current, baseline)
        assert not gate.ok
        regressions = [m for m in gate.messages if "REGRESSION" in m]
        assert regressions
        for message in regressions:
            assert "worst offender KM@2" in message, message
            assert "baseline" in message and "now" in message, message


class TestMeasurement:
    def test_calibration_is_positive_and_stable(self):
        assert calibrate_machine(reps=2) > 0.0

    def test_measure_tiny_subset(self):
        report = measure_subset(reps=1, subset=(("HW", 1),))
        assert len(report.entries) == len(MODELS) * 2
        for model in MODELS:
            scalar, = report.entries_for(model, "scalar")
            fast, = report.entries_for(model, "fast")
            # Bit-identical engines: one cycle count, two wall clocks.
            assert scalar.cycles == fast.cycles
            assert scalar.cycles_per_sec > 0
            assert fast.cycles_per_sec > 0
        # The fresh report always passes the gate against itself.
        assert compare_reports(report, report).ok


@pytest.mark.tier2
def test_committed_baseline_loads_and_is_self_consistent():
    """The repo-root baseline must stay readable by the current schema."""
    from pathlib import Path

    from repro.bench import DEFAULT_REPORT_NAME, PINNED_SUBSET

    path = Path(__file__).resolve().parent.parent / DEFAULT_REPORT_NAME
    baseline = BenchReport.load(path)
    assert baseline.subset == PINNED_SUBSET
    assert baseline.speedup("Base") >= 3.0
    assert baseline.speedup("RLPV") > 1.0
    assert compare_reports(baseline, baseline).ok
