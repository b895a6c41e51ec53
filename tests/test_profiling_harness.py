"""Redundancy profiler and the experiment harness."""

import numpy as np
import pytest

from repro import Dim3, GPU, KernelLaunch, MemoryImage, assemble, model_config
from repro.harness.runner import (RunSpec, clear_cache, run_benchmark,
                                  run_suite)
from repro.harness import experiments, reporting
from repro.profiling import RedundancyProfiler
from repro.profiling.redundancy import RedundancyProfile
from tests.conftest import OUT, SIMPLE_ARITH, make_config


def profile_kernel(source, grid=4, block=64, window=1024):
    profilers = []

    def factory():
        p = RedundancyProfiler(window=window)
        profilers.append(p)
        return p

    config = make_config("Base")
    program = assemble(source)
    GPU(config, profiler_factory=factory).run(
        KernelLaunch(program, Dim3(grid), Dim3(block), MemoryImage()))
    merged = profilers[0].profile
    for p in profilers[1:]:
        merged = merged.merge(p.profile)
    return merged


class TestRedundancyProfiler:
    def test_identical_warps_count_as_repeated(self):
        profile = profile_kernel(SIMPLE_ARITH, grid=8, block=64)
        # 16 warps run identical computations: high repeat fraction.
        assert profile.repeat_fraction > 0.4

    def test_unique_computations_not_repeated(self):
        source = f"""
            mov r0, %tid.x
            mov r1, %ctaid.x
            mov r2, %ntid.x
            mad r3, r1, r2, r0
            mul r4, r3, r3
            shl r5, r3, 2
            add r5, r5, {OUT}
            st.global -, [r5], r4
            exit
        """
        profile = profile_kernel(source, grid=4, block=64)
        # Every warp computes on a unique gtid vector; only the tid-derived
        # mov repeats.
        assert profile.repeat_fraction < 0.35

    def test_stores_and_control_excluded(self):
        source = "exit"
        profile = profile_kernel(source, grid=2, block=32)
        assert profile.repeated == 0

    def test_window_rolls(self):
        profiler = RedundancyProfiler(window=4)
        from repro.sim.exec_engine import execute
        from tests.test_exec_engine import make_warp
        program = assemble("add r1, r0, 1")
        warp = make_warp()
        inst = program[0]
        for _ in range(10):
            profiler.observe(inst, execute(inst, warp))
        assert profiler.profile.windows == 2
        assert profiler.profile.instructions == 10
        # Within each window, all but the first repeat.
        assert profiler.profile.repeated == 10 - 1 - profiler.profile.windows

    def test_high_repeat_threshold(self):
        profiler = RedundancyProfiler(window=64)
        from repro.sim.exec_engine import execute
        from tests.test_exec_engine import make_warp
        program = assemble("add r1, r0, 1")
        warp = make_warp()
        inst = program[0]
        for _ in range(15):
            profiler.observe(inst, execute(inst, warp))
        # Occurrences 11..15 exceed the >10x threshold.
        assert profiler.profile.highly_repeated == 5

    def test_merge(self):
        a = RedundancyProfile(windows=1, instructions=10, repeated=2,
                              highly_repeated=1)
        b = RedundancyProfile(windows=2, instructions=20, repeated=8,
                              highly_repeated=2)
        merged = a.merge(b)
        assert merged.instructions == 30
        assert merged.repeat_fraction == pytest.approx(10 / 30)


class TestFraction2Denominator:
    """Pin the Figure 2 fraction semantics: repeat fractions are taken over
    *all* dynamic warp instructions.  Excluded classes (control / sync /
    store / nop) can never be counted repeated, but they still occupy
    window slots and still count in the denominator — the paper reports
    repeats as a percentage of total dynamic warp instructions.
    """

    @staticmethod
    def _observers():
        from repro.sim.exec_engine import execute
        from tests.test_exec_engine import make_warp

        warp = make_warp()
        add = assemble("add r1, r0, 1")[0]
        # Distinct immediates make distinct computations (never repeats).
        uniques = [assemble(f"add r1, r0, {imm}")[0] for imm in (2, 3, 4)]
        exit_inst = assemble("exit")[0]
        return warp, execute, add, uniques, exit_inst

    def test_excluded_classes_stay_in_denominator(self):
        """3 repeats over a stream of 8 is 3/8, not 3-of-eligible."""
        warp, execute, add, _, exit_inst = self._observers()
        profiler = RedundancyProfiler(window=1024)
        for _ in range(4):          # 4 identical adds: 3 repeats
            profiler.observe(add, execute(add, warp))
        for _ in range(4):          # 4 excluded instructions
            profiler.observe(exit_inst, execute(exit_inst, warp))
        assert profiler.profile.instructions == 8
        assert profiler.profile.repeated == 3
        assert profiler.profile.repeat_fraction == pytest.approx(3 / 8)

    def test_excluded_classes_occupy_window_slots(self):
        """The 1K window counts every instruction, eligible or not."""
        warp, execute, add, _, exit_inst = self._observers()
        profiler = RedundancyProfiler(window=4)
        for _ in range(3):
            profiler.observe(exit_inst, execute(exit_inst, warp))
        profiler.observe(add, execute(add, warp))
        # Window rolled after 4 observations, only 1 of them eligible.
        assert profiler.profile.windows == 1
        # The add's computation was forgotten with the window: a repeat of
        # it in the next window counts as fresh.
        profiler.observe(add, execute(add, warp))
        assert profiler.profile.repeated == 0

    def test_never_repeating_computation_dilutes_fraction(self):
        """Distinct computations and excluded slots dilute identically."""
        warp, execute, add, uniques, exit_inst = self._observers()
        profiler = RedundancyProfiler(window=1024)
        for _ in range(2):
            profiler.observe(add, execute(add, warp))       # 1 repeat
        for inst in uniques:                                # all distinct
            profiler.observe(inst, execute(inst, warp))
        for _ in range(3):
            profiler.observe(exit_inst, execute(exit_inst, warp))
        assert profiler.profile.instructions == 8
        assert profiler.profile.repeat_fraction == pytest.approx(1 / 8)

    def test_high_repeat_fraction_uses_same_denominator(self):
        warp, execute, add, _, exit_inst = self._observers()
        profiler = RedundancyProfiler(window=1024)
        for _ in range(12):         # occurrences 11 and 12 exceed >10x
            profiler.observe(add, execute(add, warp))
        for _ in range(4):
            profiler.observe(exit_inst, execute(exit_inst, warp))
        assert profiler.profile.highly_repeated == 2
        assert profiler.profile.high_repeat_fraction == pytest.approx(2 / 16)


class TestRunner:
    def setup_method(self):
        clear_cache()

    def test_run_benchmark_returns_energy_and_result(self):
        run = run_benchmark("HT", "Base", num_sms=1)
        assert run.cycles > 0
        assert run.energy.sm_total > 0
        assert run.profile is None

    def test_memoisation(self):
        first = run_benchmark("HT", "Base", num_sms=1)
        second = run_benchmark("HT", "Base", num_sms=1)
        assert first is second
        different = run_benchmark("HT", "RLPV", num_sms=1)
        assert different is not first

    def test_wir_overrides_key_the_cache(self):
        a = run_benchmark("HT", "RLPV", num_sms=1, reuse_buffer_entries=64)
        b = run_benchmark("HT", "RLPV", num_sms=1, reuse_buffer_entries=128)
        assert a is not b
        assert a.result.config.wir.reuse_buffer_entries == 64

    def test_profile_flag(self):
        run = run_benchmark("HT", "Base", num_sms=1, profile=True)
        assert run.profile is not None
        assert run.profile.instructions > 0

    def test_run_suite(self):
        runs = run_suite(["HT", "DW"], "Base", num_sms=1)
        assert set(runs) == {"HT", "DW"}

    def test_digest_is_pinned(self):
        """The content address of a plain run is frozen: every cache entry,
        journal record and served ETag written by earlier versions (when
        the scalar engine was the default) must keep resolving."""
        assert RunSpec.make("KM", "RLPV").digest() == (
            "d3d11e5355f54a3775e1b4c604873e977a70a1960a9b7727b5f9a92aad5ba74b")

    def test_stored_engine_key_is_ignored(self):
        """Old payloads, journals and campaign files may carry an
        ``exec_engine`` key; it loads and names the same run."""
        spec = RunSpec.make("KM", "RLPV")
        for engine in ("scalar", "vector", "superblock"):
            data = dict(spec.to_dict(), exec_engine=engine)
            assert RunSpec.from_dict(data) == spec
        assert "exec_engine" not in spec.to_dict()

    def test_stored_cadence_key_is_ignored(self):
        """Payloads, journals and campaign files written while the
        checkpoint cadence was part of the spec still load, as the
        cadence-free spec with the same digest."""
        spec = RunSpec.make("KM", "RLPV")
        data = dict(spec.to_dict(), checkpoint_every=2000)
        assert RunSpec.from_dict(data) == spec
        assert RunSpec.from_dict(data).digest() == spec.digest()
        assert "checkpoint_every" not in spec.to_dict()


class TestExperiments:
    """Each driver on a 2-benchmark subset: structure + sanity, not values."""

    def setup_method(self):
        clear_cache()

    SUBSET = ["DW", "HT"]

    def test_fig2(self):
        data = experiments.fig2_repeated_computations(self.SUBSET)
        assert set(data) == {"DW", "HT", "AVG"}
        assert 0 <= data["AVG"]["repeated"] <= 1

    def test_fig12(self):
        data = experiments.fig12_backend_instructions(self.SUBSET)
        assert 0 < data["AVG"]["relative_backend"] <= 1.1
        assert 0 <= data["AVG"]["reuse_fraction"] <= 1

    def test_fig13(self):
        data = experiments.fig13_backend_operations(self.SUBSET, models=("RLPV",))
        assert data["Base"]["register reads"] == 1.0
        assert data["RLPV"]["register writes"] < 1.0

    def test_fig14(self):
        data = experiments.fig14_gpu_energy(self.SUBSET, models=("Base", "RLPV"))
        assert data["AVG"]["Base"] == pytest.approx(1.0)
        assert "TOP-HALF" in data and "BOTTOM-HALF" in data

    def test_fig15(self):
        data = experiments.fig15_l1_accesses(["DW"], model="RLPV")
        assert "AVG" in data
        assert data["DW"]["relative_accesses"] <= 1.0 + 1e-9

    def test_fig16(self):
        data = experiments.fig16_sm_energy(self.SUBSET, models=("RLPV",))
        assert data["Base"] == 1.0
        assert 0 < data["RLPV"] < 1.2

    def test_fig17(self):
        data = experiments.fig17_speedup(self.SUBSET, models=("RLPV",))
        assert "GMEAN" in data
        assert data["GMEAN"]["RLPV"] > 0.5

    def test_fig18(self):
        data = experiments.fig18_verify_cache(["DW"], entry_counts=(8,))
        assert set(data) == {"Base", "RLP", "RLPV8"}
        assert data["Base"]["verify_reads"] == 0
        assert data["RLP"]["verify_reads"] > 0

    def test_fig19(self):
        data = experiments.fig19_register_utilization(self.SUBSET)
        assert data["RLPV"]["peak"] >= data["RLPV"]["average"]

    def test_fig20(self):
        data = experiments.fig20_vsb_sweep(self.SUBSET, entry_counts=(32, 256))
        assert data[256] >= data[32] - 0.05  # larger VSB, no worse hit rate

    def test_fig21(self):
        data = experiments.fig21_reuse_buffer_sweep(self.SUBSET,
                                                    entry_counts=(32, 256))
        assert data[256]["reuse_fraction"] >= data[32]["reuse_fraction"] - 0.02

    def test_fig22(self):
        data = experiments.fig22_delay_sweep(self.SUBSET, delays=(3, 7))
        assert data["D3"] >= data["D7"] - 0.03  # less latency, no slower

    def test_tables(self):
        t1 = experiments.table1_benchmarks()
        assert len(t1) == 34
        t2 = experiments.table2_parameters()
        assert "Register file" in t2 and "128 KB" in t2["Register file"]
        t3 = experiments.table3_hardware_costs()
        assert "Rename table" in t3
        assert t3["storage_budget"]["total"] > 9000


class TestReporting:
    def test_format_table(self):
        text = reporting.format_table(["a", "bb"], [[1, 2.5], ["x", None]],
                                      title="T")
        assert "T" in text and "2.500" in text and "-" in text

    def test_render_per_benchmark(self):
        text = reporting.render_per_benchmark(
            {"SF": {"x": 0.5}}, title="demo", percent=True)
        assert "50.0%" in text

    def test_render_series_scalar_and_dict(self):
        assert "y" in reporting.render_series({1: 0.5}, "x", "y", "t")
        text = reporting.render_series({1: {"a": 2}}, "x", "y", "t")
        assert "a" in text
