"""Harness failure paths: crashing workers, hung workers, rotten caches.

A suite sweep must be crash-proof: one poison-pill job (a worker that
raises, or one that never returns) may cost its own result but must never
wedge the pool, poison sibling results, or bring the suite down without a
per-spec error record.  Disk-cache entries are checksummed, so truncation
or bit-rot is detected, the entry deleted, and the run re-simulated.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.harness.runner as runner
from repro.harness.runner import (COUNTS, JobFailure, RunSpec, SuiteError,
                                  clear_cache, prefetch, run_benchmark,
                                  run_suite, set_cache_dir, verify_cache_dir)
from repro.sim.gpu import GPU, KernelLaunch, SimulationTimeout
from repro import Dim3, MemoryImage, assemble
from tests.conftest import SIMPLE_ARITH, make_config

#: Short per-job deadline for the hang tests (the hang sleeps far longer).
TIMEOUT = 10.0

#: The repository root (the hang test's child imports ``repro`` and
#: ``tests`` from here).
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    yield
    clear_cache()


def _install_hook(monkeypatch, hook):
    monkeypatch.setattr(runner, "_TEST_HOOK", hook)


def _crash_or_hang(spec):
    if spec.abbr == "GA":
        raise RuntimeError("injected crash")
    if spec.abbr == "BP":
        time.sleep(300)


class TestWorkerFailures:
    def test_crash_and_hang_recorded_per_spec(self, monkeypatch):
        """One crashing and one hanging worker; the good job completes."""
        _install_hook(monkeypatch, _crash_or_hang)
        specs = [RunSpec.make(abbr, "Base", num_sms=1, seed=31)
                 for abbr in ("GA", "BP", "HT")]
        failures = []
        prefetch(specs, jobs=3, timeout=TIMEOUT, strict=False,
                 failures_out=failures)
        outcomes = {f.spec.abbr: f.kind for f in failures}
        assert outcomes == {"GA": "error", "BP": "timeout"}
        assert all(isinstance(f, JobFailure) for f in failures)
        assert specs[2] in runner._RESULT_CACHE  # HT survived its siblings
        for failure in failures:
            assert failure.spec.digest() == failure.digest
            assert failure.attempts == 1

    def test_run_suite_completes_and_reports(self, monkeypatch):
        _install_hook(monkeypatch, _crash_or_hang)
        failures = []
        runs = run_suite(["GA", "BP", "HT"], "Base", jobs=3, timeout=TIMEOUT,
                         strict=False, failures_out=failures,
                         num_sms=1, seed=33)
        assert set(runs) == {"HT"}
        assert {f.spec.abbr for f in failures} == {"GA", "BP"}

    def test_strict_suite_raises_after_finishing(self, monkeypatch):
        def crash(spec):
            if spec.abbr == "GA":
                raise RuntimeError("injected crash")

        _install_hook(monkeypatch, crash)
        with pytest.raises(SuiteError) as excinfo:
            run_suite(["GA", "HT"], "Base", num_sms=1, seed=35)
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].spec.abbr == "GA"
        assert "injected crash" in str(excinfo.value)
        # The sibling still simulated before the suite raised.
        assert RunSpec.make("HT", "Base", num_sms=1, seed=35) \
            in runner._RESULT_CACHE

    def test_retry_recovers_a_transient_failure(self, monkeypatch, tmp_path):
        flag = tmp_path / "failed-once"

        def fail_once(spec):
            if not flag.exists():
                flag.write_text("x")
                raise RuntimeError("transient")

        _install_hook(monkeypatch, fail_once)
        failures = []
        prefetch([RunSpec.make("GA", "Base", num_sms=1, seed=37)],
                 retries=1, backoff=0.0, failures_out=failures)
        assert not failures
        assert flag.exists()

    def test_exhausted_retries_report_attempts(self, monkeypatch):
        def always_fail(spec):
            raise RuntimeError("permanent")

        _install_hook(monkeypatch, always_fail)
        failures = []
        prefetch([RunSpec.make("GA", "Base", num_sms=1, seed=39)],
                 retries=2, backoff=0.0, strict=False, failures_out=failures)
        assert len(failures) == 1
        assert failures[0].attempts == 3
        assert failures[0].kind == "error"


    def test_dead_worker_without_timeout_is_reported_at_once(self):
        """A worker SIGKILLed mid-job (as by the OOM killer) is a
        ``"timeout"`` failure even with no ``timeout``, and its sibling
        still lands.  Run in a child process so a regression fails here
        instead of blocking the suite forever."""
        script = textwrap.dedent("""
            import json, os, signal
            import repro.harness.runner as runner

            def kill_ga(spec):
                if spec.abbr == "GA":
                    os.kill(os.getpid(), signal.SIGKILL)

            runner._TEST_HOOK = kill_ga
            specs = [runner.RunSpec.make(abbr, "Base", num_sms=1, seed=41)
                     for abbr in ("GA", "HT")]
            failures = []
            runner.prefetch(specs, jobs=2, strict=False,
                            failures_out=failures)
            print(json.dumps({
                "failures": [[f.spec.abbr, f.kind, f.attempts]
                             for f in failures],
                "ht_cached": specs[1] in runner._RESULT_CACHE}))
        """)
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_CACHE_DIR"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the workers too
            child.communicate()
            pytest.fail("prefetch still blocked 60 s after a worker died")
        assert child.returncode == 0
        report = json.loads(out)
        assert report["failures"] == [["GA", "timeout", 1]]
        assert report["ht_cached"]


class TestWorkConserving:
    """``prefetch`` starts the next job the moment a slot frees."""

    @staticmethod
    def _record_spans(monkeypatch, log: Path):
        """Make every simulation append ``abbr start|end time`` to *log*."""
        simulate = runner._simulate

        def timed(spec, *args, **kwargs):
            with log.open("a") as out:
                out.write(f"{spec.abbr} start {time.monotonic()}\n")
            try:
                return simulate(spec, *args, **kwargs)
            finally:
                with log.open("a") as out:
                    out.write(f"{spec.abbr} end {time.monotonic()}\n")

        monkeypatch.setattr(runner, "_simulate", timed)

    @staticmethod
    def _spans(log: Path):
        spans = {}
        for line in log.read_text().splitlines():
            abbr, event, stamp = line.split()
            spans.setdefault((abbr, event), []).append(float(stamp))
        return spans

    def test_a_slow_job_does_not_hold_the_free_slot(self, monkeypatch,
                                                    tmp_path):
        log = tmp_path / "spans.log"
        self._record_spans(monkeypatch, log)
        _install_hook(monkeypatch, lambda spec: time.sleep(3.0)
                      if spec.abbr == "GA" else None)
        specs = [RunSpec.make(abbr, "Base", num_sms=1, seed=43)
                 for abbr in ("GA", "HT", "DW")]
        prefetch(specs, jobs=2)
        spans = self._spans(log)
        # DW waited for HT's slot, not for the wave that GA holds up.
        assert spans[("DW", "start")][0] < spans[("GA", "end")][0]
        assert all(spec in runner._RESULT_CACHE for spec in specs)

    def test_a_retried_failure_does_not_delay_a_running_sibling(
            self, monkeypatch, tmp_path):
        log = tmp_path / "spans.log"
        flag = tmp_path / "failed-once"
        self._record_spans(monkeypatch, log)

        def hook(spec):
            if spec.abbr == "GA":
                time.sleep(3.0)
            elif not flag.exists():
                flag.write_text("x")
                raise RuntimeError("transient")

        _install_hook(monkeypatch, hook)
        failures = []
        prefetch([RunSpec.make(abbr, "Base", num_sms=1, seed=45)
                  for abbr in ("GA", "HT")],
                 jobs=2, retries=1, backoff=0.0, failures_out=failures)
        assert not failures
        spans = self._spans(log)
        ga_end = spans[("GA", "end")][0]
        # HT's retry ran beside GA instead of waiting for it.
        assert len(spans[("HT", "start")]) == 2
        assert spans[("HT", "end")][1] < ga_end


class TestCacheIntegrity:
    def _cache_one(self, tmp_path, **kwargs):
        set_cache_dir(tmp_path)
        run_benchmark("GA", "Base", num_sms=1, **kwargs)
        files = list(Path(tmp_path).glob("*/*.json"))
        assert len(files) == 1
        return files[0]

    def test_truncated_entry_detected_and_resimulated(self, tmp_path):
        entry = self._cache_one(tmp_path)
        try:
            text = entry.read_text()
            entry.write_text(text[:len(text) // 2])
            clear_cache()
            corrupt_before = COUNTS["disk_corrupt"]
            sims_before = COUNTS["simulations"]
            run = run_benchmark("GA", "Base", num_sms=1)
            assert COUNTS["disk_corrupt"] == corrupt_before + 1
            assert COUNTS["simulations"] == sims_before + 1
            assert run.cycles > 0
            # The rotten entry was deleted, then rewritten by the re-run.
            payload = json.loads(entry.read_text())
            assert "checksum" in payload
        finally:
            set_cache_dir(None)

    def test_bitflip_fails_checksum(self, tmp_path):
        entry = self._cache_one(tmp_path)
        try:
            payload = json.loads(entry.read_text())
            payload["result"]["cycles"] += 1  # valid JSON, wrong content
            entry.write_text(json.dumps(payload, sort_keys=True))
            clear_cache()
            hits_before = COUNTS["disk_hits"]
            run_benchmark("GA", "Base", num_sms=1)
            assert COUNTS["disk_hits"] == hits_before  # no poisoned hit
        finally:
            set_cache_dir(None)

    def test_verify_cache_dir_reports_and_prunes(self, tmp_path):
        entry = self._cache_one(tmp_path)
        try:
            # One good entry, one truncated copy, one older-format payload.
            bad = entry.parent / "deadbeef.json"
            bad.write_text(entry.read_text()[:40])
            old = entry.parent / "cafe.json"
            old.write_text(json.dumps({"format": 1, "result": {}}))

            report = verify_cache_dir(tmp_path)
            assert (report.total, report.ok) == (3, 1)
            assert report.corrupt == 1
            assert report.version_mismatch == 1
            assert report.pruned == 0
            assert bad.exists()

            report = verify_cache_dir(tmp_path, prune=True)
            assert report.pruned == 1
            assert not bad.exists()
            assert old.exists()  # version mismatches are never pruned
            assert entry.exists()
        finally:
            set_cache_dir(None)

    def test_verify_cache_dir_prunes_unaddressable_entries(self, tmp_path):
        """A valid payload under a digest its spec does not hash to (as
        left by addresses that once covered cadence or energy) can never
        be looked up: verify counts it and ``prune`` deletes it."""
        set_cache_dir(tmp_path)
        try:
            run_benchmark("GA", "RLPV", num_sms=1, reuse_buffer_entries=32)
            (entry,) = Path(tmp_path).glob("*/*.json")
            spec = RunSpec.make("GA", "RLPV", num_sms=1,
                                reuse_buffer_entries=32)
            assert entry.stem == spec.digest()  # the dict round trip holds
            stray = entry.parent / ("0" * 64 + ".json")
            stray.write_text(entry.read_text())

            report = verify_cache_dir(tmp_path)
            assert (report.total, report.ok, report.unaddressable) == (2, 1, 1)
            assert stray.exists()

            report = verify_cache_dir(tmp_path, prune=True)
            assert report.unaddressable_pruned == 1
            assert not stray.exists()
            assert entry.exists()
            assert verify_cache_dir(tmp_path).unaddressable == 0
        finally:
            set_cache_dir(None)

    def test_verify_cache_dir_without_cache(self, tmp_path):
        report = verify_cache_dir(tmp_path / "nonexistent")
        assert report.total == 0


class TestTimeoutDiagnostics:
    def test_simulation_timeout_includes_sm_snapshot(self):
        config = make_config("RLPV")
        config.max_cycles = 20  # far too few for SIMPLE_ARITH
        program = assemble(SIMPLE_ARITH, name="snap")
        launch = KernelLaunch(program, Dim3(4), Dim3(64), MemoryImage())
        with pytest.raises(SimulationTimeout) as excinfo:
            GPU(config).run(launch)
        message = str(excinfo.value)
        assert "SM0" in message
        assert "warp slot" in message
        assert "pc=" in message
        assert "rb_occupancy" in message
