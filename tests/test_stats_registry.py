"""The hierarchical stats registry and the parallel/cached harness."""

from __future__ import annotations

import json

import pytest

from repro.energy import EnergyParams
from repro.harness import runner
from repro.harness.runner import (
    COUNTS,
    RunSpec,
    clear_cache,
    prefetch,
    run_benchmark,
    run_suite,
    set_cache_dir,
)
from repro.sim.gpu import RunResult
from repro.stats import Counter, Histogram, StatGroup, StatLookupError

from .conftest import SIMPLE_ARITH, run_kernel


@pytest.fixture(autouse=True)
def _isolate_runner_caches(monkeypatch):
    """Each test starts from cold in-process memos and no disk cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_cache()
    set_cache_dir(None)
    yield
    clear_cache()
    set_cache_dir(None)


# ----------------------------------------------------------- registry basics

class TestStatGroup:
    def test_counter_attribute_semantics(self):
        g = StatGroup("g")
        g.add_counter("hits")
        g.hits += 3
        assert g.hits == 3
        g.hits = 10
        assert g.hits == 10

    def test_histogram(self):
        g = StatGroup("g")
        h = g.add_histogram("by_class")
        h.increment("alu", 2)
        h.increment("mem")
        assert g.by_class["alu"] == 2
        assert g.by_class == {"alu": 2, "mem": 1}

    def test_declared_counters_and_kwargs(self):
        class MyStats(StatGroup):
            COUNTERS = ("a", "b")

        s = MyStats("s", a=5)
        assert s.a == 5 and s.b == 0
        with pytest.raises(TypeError):
            MyStats("s", nope=1)

    def test_adopt_is_shared_not_copied(self):
        parent = StatGroup("parent")
        child = StatGroup("child")
        child.add_counter("n")
        parent.adopt(child)
        child.n += 7
        assert parent.lookup("child.n") == 7

    def test_lookup_dotted_path(self):
        root = StatGroup("root")
        sm = root.group("sm0")
        rf = sm.group("regfile")
        rf.add_counter("read_retries", 4)
        assert root.lookup("sm0.regfile.read_retries") == 4

    def test_lookup_unknown_leaf_raises_with_candidates(self):
        root = StatGroup("root")
        g = root.group("regfile")
        g.add_counter("read_retries")
        with pytest.raises(StatLookupError) as excinfo:
            root.lookup("regfile.red_retries")
        message = str(excinfo.value)
        assert "red_retries" in message
        assert "read_retries" in message  # available keys are listed

    def test_lookup_unknown_group_raises(self):
        root = StatGroup("root")
        root.group("sm0")
        with pytest.raises(StatLookupError):
            root.lookup("sm1.core.issued")

    def test_lookup_through_counter_raises(self):
        root = StatGroup("root")
        root.add_counter("cycles")
        with pytest.raises(StatLookupError):
            root.lookup("cycles.nested")

    def test_merge_sums_counters_and_histograms(self):
        a = StatGroup("a")
        a.add_counter("n", 1)
        a.add_histogram("h").increment("x", 2)
        a.group("sub").add_counter("m", 10)
        b = StatGroup("b")
        b.add_counter("n", 2)
        b.add_histogram("h").increment("x", 3)
        b.group("sub").add_counter("m", 5)
        merged = StatGroup.merged([a, b])
        assert merged.n == 3
        assert merged.h == {"x": 5}
        assert merged.lookup("sub.m") == 15

    def test_json_round_trip(self):
        g = StatGroup("g")
        g.add_counter("i", 3)
        g.add_counter("f", 0.125)
        g.add_histogram("h").increment("alu", 2)
        g.group("sub").add_counter("n", 1)
        back = StatGroup.from_json(g.to_json(), name="g")
        assert back == g
        assert isinstance(back.i, int) and isinstance(back.f, float)


# --------------------------------------------------- the registry inside runs

class TestRunRegistry:
    def test_sm_merge_equals_per_sm_sums(self):
        result, _ = run_kernel(SIMPLE_ARITH, grid=4, model="RLPV", num_sms=2)
        groups = result.sm_groups
        assert len(groups) == 2
        merged = result.merged_sm()
        for path in ("core.issued", "regfile.read_requests", "l1d.accesses",
                     "wir.rb.lookups", "wir.vsb.lookups"):
            assert merged.lookup(path) == sum(g.lookup(path) for g in groups)
            assert result.sm_stat(path) == merged.lookup(path)

    def test_result_lookup_errors(self):
        result, _ = run_kernel(SIMPLE_ARITH, grid=2, num_sms=1)
        with pytest.raises(StatLookupError):
            result.stat("sm0.regfile.red_retries")
        with pytest.raises(StatLookupError):
            result.sm_stat("wir.rb.lookups")  # Base run has no WIR subtree

    def test_run_result_json_round_trip_is_lossless(self):
        result, _ = run_kernel(SIMPLE_ARITH, grid=4, model="RLPV", num_sms=2)
        text = result.to_json()
        back = RunResult.from_json(text)
        assert back.cycles == result.cycles
        assert back.config == result.config
        assert back.stats == result.stats
        assert back.wir_stats == result.wir_stats
        assert back.to_json() == text  # fixed point
        # legacy views derived from the registry survive the round trip
        assert back.l1d_stats == result.l1d_stats
        assert back.issued_instructions == result.issued_instructions

    def test_chip_level_memory_subtree(self):
        result, _ = run_kernel(SIMPLE_ARITH, grid=4, num_sms=2)
        assert result.stat("memory.dram.accesses") == result.dram_accesses
        assert result.stat("memory.noc.flits") == result.noc_flits
        assert result.stat("memory.l2.accesses") == result.l2_stats["accesses"]


# ------------------------------------------------------- harness: memo keys

class TestEnergyParamsKeying:
    def test_energy_params_get_fresh_report_without_resimulating(self):
        sims_before = COUNTS["simulations"]
        default = run_benchmark("HT", "RLPV", num_sms=1)
        doubled = EnergyParams()
        doubled.rf_bank_access *= 2
        other = run_benchmark("HT", "RLPV", num_sms=1, energy_params=doubled)
        assert COUNTS["simulations"] == sims_before + 1  # simulation shared
        assert other is not default  # but NOT the memoised report
        assert other.energy.sm_total > default.energy.sm_total
        # same params -> same memo entry, both before and after the change
        assert run_benchmark("HT", "RLPV", num_sms=1) is default

    def test_energy_params_share_the_disk_entry(self, tmp_path):
        set_cache_dir(tmp_path)
        default = run_benchmark("HT", "RLPV", num_sms=1)
        clear_cache()  # keep only the disk cache
        sims_before = COUNTS["simulations"]
        doubled = EnergyParams()
        doubled.rf_bank_access *= 2
        other = run_benchmark("HT", "RLPV", num_sms=1, energy_params=doubled)
        assert COUNTS["simulations"] == sims_before  # answered from disk
        assert len(list(tmp_path.glob("*/*.json"))) == 1
        assert other.energy != default.energy
        assert other.result.to_dict() == default.result.to_dict()


# --------------------------------------------------- harness: parallel sweep

class TestParallelSuite:
    ABBRS = ["HT", "DW", "NW"]

    def test_jobs2_bit_identical_to_serial(self):
        serial = run_suite(self.ABBRS, "RLPV", num_sms=1)
        clear_cache()
        parallel = run_suite(self.ABBRS, "RLPV", jobs=2, num_sms=1)
        for abbr in self.ABBRS:
            assert parallel[abbr].result.to_json() == serial[abbr].result.to_json()
            assert parallel[abbr].cycles == serial[abbr].cycles
            assert (parallel[abbr].energy.gpu_breakdown
                    == serial[abbr].energy.gpu_breakdown)

    def test_prefetch_deduplicates_specs(self):
        spec = RunSpec.make("HT", "Base", num_sms=1)
        sims_before = COUNTS["simulations"]
        ran = prefetch([spec, spec, spec], jobs=2)
        assert ran == 1
        assert COUNTS["simulations"] == sims_before + 1


# -------------------------------------------------- harness: on-disk cache

class TestDiskCache:
    def test_warm_cache_runs_zero_new_simulations(self, tmp_path):
        set_cache_dir(tmp_path)
        cold = run_suite(["HT", "DW"], "RLPV", num_sms=1)
        assert COUNTS["disk_writes"] >= 2

        clear_cache()  # drop the in-process memos; keep the disk cache
        sims_before = COUNTS["simulations"]
        warm = run_suite(["HT", "DW"], "RLPV", num_sms=1)
        assert COUNTS["simulations"] == sims_before  # zero new simulations
        for abbr in ("HT", "DW"):
            assert warm[abbr].result.to_json() == cold[abbr].result.to_json()

    def test_cache_key_covers_the_parameterisation(self, tmp_path):
        set_cache_dir(tmp_path)
        run_benchmark("HT", "RLPV", num_sms=1)
        clear_cache()
        sims_before = COUNTS["simulations"]
        run_benchmark("HT", "RLPV", num_sms=1, reuse_buffer_entries=32)
        assert COUNTS["simulations"] == sims_before + 1  # different key

    def test_corrupt_cache_entry_falls_back_to_simulation(self, tmp_path):
        set_cache_dir(tmp_path)
        run_benchmark("HT", "Base", num_sms=1)
        for entry in tmp_path.rglob("*.json"):
            entry.write_text("{not json")
        clear_cache()
        sims_before = COUNTS["simulations"]
        run = run_benchmark("HT", "Base", num_sms=1)
        assert COUNTS["simulations"] == sims_before + 1
        assert run.cycles > 0

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_benchmark("HT", "Base", num_sms=1)
        assert list(tmp_path.rglob("*.json"))


# ------------------------------------------------ experiments over registry

class TestExperimentsParallel:
    def test_fig17_jobs_identical_to_serial(self):
        from repro.harness.experiments import fig17_speedup

        abbrs = ["HT", "DW"]
        serial = fig17_speedup(abbrs, models=("RLPV",))
        clear_cache()
        parallel = fig17_speedup(abbrs, models=("RLPV",), jobs=4)
        assert parallel == serial
