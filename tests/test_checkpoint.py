"""Deterministic checkpoint/resume (``repro.ckpt``; DESIGN.md §12).

The proof obligation: run-to-cycle-N, snapshot, restore in a fresh set of
objects (or a fresh process), run to completion — the final ``RunResult``
JSON, stats tree, and memory image must be byte-for-byte equal to the
uninterrupted run, on every dispatch path (the scalar oracle, and the fast
engine's per-instruction kernels and compiled superblocks), for WIR and
Base models.
On top of that, the harness must *use* checkpoints: a worker killed or
timed out mid-simulation leaves a valid checkpoint behind, and the retry
finishes the run from it instead of starting over.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ckpt.snapshot as snapshot
import repro.harness.runner as runner
import repro.sim.superblock as superblock
from repro import Dim3, MemoryImage, assemble
from repro.ckpt import (CheckpointError, atomic_write_text, canonical_sha256,
                        inspect_checkpoint, read_checkpoint,
                        write_checkpoint)
from repro.cli import main as cli_main
from repro.core.models import model_config
from repro.harness.runner import (RunSpec, clear_cache, prefetch,
                                  run_benchmark, set_cache_dir,
                                  verify_cache_dir)
from repro.sim.gpu import GPU, KernelLaunch
from repro.workloads import build_workload
from tests.conftest import OUT, make_config
from tests.test_properties import random_kernel

#: Short per-job deadline for the chaos tests (a killed worker's result
#: never arrives, so the wave reaps it after this many seconds).
TIMEOUT = 10.0

#: Checkpoint cadence for the chaos tests.  Must be well below the chaos
#: workload's run length (KM scale 2 on 2 SMs runs ~5000 cycles) so the
#: first checkpoint lands mid-run.
EVERY = 400


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    monkeypatch.setattr(snapshot, "_TEST_HOOK", None)
    yield
    clear_cache()
    set_cache_dir(None)


def _launch(abbr="KM", scale=2, seed=7):
    workload = build_workload(abbr, scale=scale, seed=seed)
    return workload, KernelLaunch(workload.program, workload.grid,
                                  workload.block, workload.image)


def _mem_image(launch):
    return launch.image.global_mem._data.tobytes()


def _poke_word(launch):
    """Flip one bit of one word of *launch*'s global image."""
    store = launch.image.global_mem
    store.write_block(0, store.read_block(0, 1) ^ 1)


#: Dispatch paths the round-trip tests cover: the scalar oracle, the fast
#: engine with compiled superblocks disabled (every issue takes the
#: per-instruction vector kernels), and the fast engine as it runs by
#: default (compiled superblocks wherever the table is on).
PATHS = ["scalar", "vector", "superblock"]


def _use_path(config, path, mp):
    """Point ``config`` at ``path``; ``mp`` is a ``MonkeyPatch`` that
    blanks the compiled table for the ``vector`` path."""
    config.exec_engine = "scalar" if path == "scalar" else "fast"
    if path == "vector":
        mp.setattr(superblock, "compiled_table",
                   lambda program, digest: [None] * len(program.instructions))


# ------------------------------------------------------------ core roundtrip

class TestRoundTrip:
    @pytest.mark.parametrize("engine", PATHS)
    @pytest.mark.parametrize("model", ["RLPV", "Base"])
    def test_mid_run_snapshot_resumes_bit_identically(self, engine, model,
                                                      monkeypatch):
        config = model_config(model)
        config.num_sms = 2
        _use_path(config, engine, monkeypatch)

        workload, launch = _launch()
        base = GPU(config).run(launch)
        base_json = base.to_json()
        base_mem = _mem_image(launch)
        workload.verify()

        _, launch = _launch()
        status, state = GPU(config).run_to_cycle(launch, base.cycles // 2)
        assert status == "paused"
        # A checkpoint is plain data: the full JSON round trip must be
        # lossless (this is exactly what the on-disk container stores).
        blob = json.dumps(state)

        workload, launch = _launch()
        resumed = GPU(config).run(launch, resume=json.loads(blob))
        assert resumed.to_json() == base_json
        assert _mem_image(launch) == base_mem
        workload.verify()

    def test_mid_superblock_cut_resumes_bit_identically(self):
        """Cut *inside* a compiled superblock and resume: pending rows and
        entry memos are never serialized — the restore recomputes them from
        live registers — so every cut across a long straight-line block
        must still splice bit-identically.  The kernel is one 12-instruction
        superblock, so consecutive early cuts are guaranteed to land while
        warps are mid-block."""
        source = "\n".join(
            ["    mov r0, %tid.x", "    mov r1, %ctaid.x",
             "    mov r2, %ntid.x", "    mad r3, r1, r2, r0"]
            + [f"    add r{4 + i}, r{3 + i}, {11 + i}" for i in range(6)]
            + ["    shl r10, r3, 2", f"    add r10, r10, {OUT}",
               "    st.global -, [r10], r9", "    exit"])
        config = make_config("Base", num_sms=1)
        config.exec_engine = "fast"
        program = assemble(source, name="sb-cut")

        def fresh_launch():
            return KernelLaunch(program, Dim3(2), Dim3(64), MemoryImage())

        launch = fresh_launch()
        base = GPU(config).run(launch)
        base_json = base.to_json()
        base_mem = _mem_image(launch)

        for cut in range(1, min(base.cycles, 40), 3):
            status, state = GPU(config).run_to_cycle(fresh_launch(), cut)
            assert status == "paused", cut
            blob = json.dumps(state)
            # The compiled-block cache is rebuildable, never checkpointed.
            assert "superblock" not in blob, cut
            assert "seg_fn" not in blob, cut
            launch = fresh_launch()
            resumed = GPU(config).run(launch, resume=json.loads(blob))
            assert resumed.to_json() == base_json, cut
            assert _mem_image(launch) == base_mem, cut

    def test_run_to_cycle_past_the_end_completes(self):
        config = make_config("RLPV", num_sms=2)
        _, launch = _launch()
        status, result = GPU(config).run_to_cycle(launch, 10**9)
        assert status == "done"
        _, launch = _launch()
        assert result.to_json() == GPU(config).run(launch).to_json()

    def test_snapshot_at_cycle_zero(self):
        config = make_config("RLPV", num_sms=2)
        _, launch = _launch()
        base_json = GPU(config).run(launch).to_json()
        _, launch = _launch()
        status, state = GPU(config).run_to_cycle(launch, 0)
        assert (status, state["cycle"]) == ("paused", 0)
        _, launch = _launch()
        assert GPU(config).run(
            launch, resume=json.loads(json.dumps(state))
        ).to_json() == base_json

    def test_observers_refuse_to_checkpoint(self):
        config = make_config("RLPV", num_sms=1)
        config.trace.stalls = True
        _, launch = _launch("GA", scale=1)
        with pytest.raises(ValueError, match="tracing"):
            GPU(config).run_to_cycle(launch, 100)
        config = make_config("RLPV", num_sms=1)
        _, launch = _launch("GA", scale=1)
        gpu = GPU(config, profiler_factory=object)
        with pytest.raises(ValueError, match="profilers"):
            gpu.run_to_cycle(launch, 100)


# ------------------------------------------------------- on-disk container

class TestContainer:
    STATE = {"cycle": 5, "next_block_index": 1, "sms": [], "memory": {}}
    META = {"program": "p", "grid": [1, 1, 1], "block": [1, 1, 1]}

    def test_write_read_inspect(self, tmp_path):
        path = tmp_path / "a.ckpt.json"
        write_checkpoint(path, self.STATE, meta=self.META)
        payload = read_checkpoint(path)
        assert payload["state"] == self.STATE
        assert payload["meta"] == self.META
        info = inspect_checkpoint(path)
        assert info["cycle"] == 5
        assert info["checksum"] == "ok"
        # The atomic write never leaves its temp file behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "a.ckpt.json"
        write_checkpoint(path, self.STATE, meta=self.META)
        raw = path.read_bytes()
        head, body = raw.split(b"\n", 1)
        header = json.loads(head)
        assert (header["format"], header["cycle"]) == (snapshot.CKPT_FORMAT, 5)

        # Truncation: inside the body the hash no longer matches; inside
        # the header there is no header line at all.
        path.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)
        path.write_bytes(head[: len(head) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

        # Body tamper: same length, one changed value.
        tampered = body.replace(b'"cycle": 5', b'"cycle": 6')
        assert tampered != body
        path.write_bytes(head + b"\n" + tampered)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

        # Wrong format: a header from another container layout, and a
        # format-1 file (one JSON object, no header line).
        path.write_bytes(json.dumps(dict(header, format=999)).encode()
                         + b"\n" + body)
        with pytest.raises(CheckpointError, match="format"):
            read_checkpoint(path)
        path.write_text(json.dumps({"format": 1, "schema": 2,
                                    "meta": self.META, "state": self.STATE,
                                    "checksum": "0" * 64}, sort_keys=True))
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

        with pytest.raises(CheckpointError, match="no checkpoint"):
            read_checkpoint(tmp_path / "missing.ckpt.json")

    def test_atomic_write_is_last_writer_wins(self, tmp_path):
        path = tmp_path / "slot.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.glob("*.tmp")) == []


# ------------------------------------------------ global memory as a delta

class TestMemoryDelta:
    @pytest.mark.parametrize("abbr", ["CU", "KM"])
    def test_checkpoint_at_2000_cycles_is_at_most_a_mebibyte(
            self, tmp_path, abbr):
        config = make_config("RLPV", num_sms=2)
        _, launch = _launch(abbr, scale=1)
        gpu = GPU(config)
        status, state = gpu.run_to_cycle(launch, 2000)
        assert status == "paused"
        path = write_checkpoint(tmp_path / "a.ckpt.json", state,
                                meta=gpu.checkpoint_meta(launch))
        info = inspect_checkpoint(path)
        assert info["bytes"] == path.stat().st_size <= 1 << 20
        # The 2 MB global store: only the pages the kernel wrote so far.
        store_pages = launch.image.global_mem.size_words // 1024
        assert 1 <= info["global_pages"] < store_pages // 64

    def test_resume_against_another_launch_image_is_refused(self):
        config = make_config("RLPV", num_sms=2)
        _, launch = _launch()
        status, state = GPU(config).run_to_cycle(launch, 1500)
        assert status == "paused"
        _, launch = _launch()
        _poke_word(launch)
        before = _mem_image(launch)
        with pytest.raises(CheckpointError, match="launch image"):
            GPU(config).run(launch, resume=state)
        assert _mem_image(launch) == before  # refused before any restore

    def test_cli_resume_refusal_is_one_line_and_exit_1(self, tmp_path,
                                                       capsys):
        path = tmp_path / "km.ckpt.json"
        assert cli_main(["ckpt", "save", "KM", "--cycle", "1500",
                         "--out", str(path)]) == 0
        ckpt = read_checkpoint(path)
        ckpt["state"]["memory"]["image"]["global"]["base"] = "0" * 64
        write_checkpoint(path, ckpt["state"], meta=ckpt["meta"])
        capsys.readouterr()
        assert cli_main(["ckpt", "resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "launch image" in err


# ------------------------------------------------------- harness integration

class TestHarnessResume:
    SPEC_KW = dict(scale=2)

    def _baseline(self, tmp_path):
        set_cache_dir(tmp_path)
        run = run_benchmark("KM", "RLPV", checkpoint_every=EVERY,
                            **self.SPEC_KW)
        assert not list(Path(tmp_path).rglob("*.ckpt.json"))
        return run.result.to_json()

    def _plant_checkpoint(self, spec, cut, mutate=None):
        """What a killed worker leaves behind: a valid mid-run checkpoint.
        The cadence that wrote it is not part of its identity.  *mutate*
        edits the launch image first (a delta against another image)."""
        config = model_config(spec.model)
        config.num_sms = spec.num_sms
        workload = build_workload(spec.abbr, scale=spec.scale, seed=spec.seed)
        launch = KernelLaunch(workload.program, workload.grid, workload.block,
                              workload.image)
        if mutate is not None:
            mutate(launch)
        gpu = GPU(config)
        gpu.checkpoint_meta_extra = {
            "workload": {"abbr": spec.abbr, "scale": spec.scale,
                         "seed": spec.seed},
        }
        status, state = gpu.run_to_cycle(launch, cut)
        assert status == "paused"
        path = runner._ckpt_path(spec)
        write_checkpoint(path, state, meta=gpu.checkpoint_meta(launch))
        return path

    def _drop_results(self, tmp_path):
        clear_cache()
        for entry in Path(tmp_path).glob("*/*.json"):
            entry.unlink()

    def test_leftover_checkpoint_is_resumed_bit_identically(self, tmp_path):
        base_json = self._baseline(tmp_path)
        spec = RunSpec.make("KM", "RLPV", **self.SPEC_KW)
        path = self._plant_checkpoint(spec, 1500)
        self._drop_results(tmp_path)

        run = run_benchmark("KM", "RLPV", checkpoint_every=EVERY,
                            **self.SPEC_KW)
        assert run.result.to_json() == base_json
        assert not path.exists()  # consumed and cleaned on success

    def test_mismatched_checkpoint_is_ignored(self, tmp_path):
        base_json = self._baseline(tmp_path)
        spec = RunSpec.make("KM", "RLPV", **self.SPEC_KW)
        # A checkpoint from a *different* run parked in this spec's slot
        # (e.g. after a config change): meta mismatch, full restart.
        other = RunSpec.make("KM", "RLPV", scale=2, seed=11)
        state_path = self._plant_checkpoint(other, 1500)
        os.replace(state_path, runner._ckpt_path(spec))
        self._drop_results(tmp_path)

        run = run_benchmark("KM", "RLPV", checkpoint_every=EVERY,
                            **self.SPEC_KW)
        assert run.result.to_json() == base_json

    def test_corrupt_checkpoint_restarts_cleanly(self, tmp_path):
        base_json = self._baseline(tmp_path)
        spec = RunSpec.make("KM", "RLPV", **self.SPEC_KW)
        path = runner._ckpt_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{definitely not a checkpoint")
        self._drop_results(tmp_path)

        run = run_benchmark("KM", "RLPV", checkpoint_every=EVERY,
                            **self.SPEC_KW)
        assert run.result.to_json() == base_json
        assert not path.exists()

    def test_delta_against_another_launch_image_restarts_from_zero(
            self, tmp_path):
        set_cache_dir(tmp_path)
        spec = RunSpec.make("KM", "RLPV", **self.SPEC_KW)
        plain_json = runner._simulate(spec)[0].to_json()
        path = self._plant_checkpoint(spec, 1500, mutate=_poke_word)
        # Same program, geometry and config: only the image differs.
        assert read_checkpoint(path)["state"]["cycle"] >= 1500

        resumed = []
        result, _, _ = runner._simulate(spec, EVERY, resumed)
        assert resumed == [0]
        assert result.to_json() == plain_json
        assert not path.exists()

    def test_format_1_slot_restarts_from_zero_and_is_pruned(
            self, tmp_path, capsys):
        set_cache_dir(tmp_path)
        spec = RunSpec.make("KM", "RLPV", **self.SPEC_KW)
        plain_json = runner._simulate(spec)[0].to_json()
        path = self._plant_checkpoint(spec, 1500)
        payload = dict(read_checkpoint(path), format=1)
        payload["checksum"] = canonical_sha256(payload)
        old_slot = json.dumps(payload, sort_keys=True)  # the format-1 file

        path.write_text(old_slot)
        resumed = []
        result, _, _ = runner._simulate(spec, EVERY, resumed)
        assert resumed == [0]
        assert result.to_json() == plain_json

        path.write_text(old_slot)
        assert cli_main(["cache", "verify", "--dir", str(tmp_path),
                         "--prune"]) == 0
        assert "1 orphaned checkpoint slot" in capsys.readouterr().out
        assert not path.exists()

    def test_checkpointing_off_without_cache_dir(self, tmp_path):
        base_json = self._baseline(tmp_path)
        set_cache_dir(None)
        clear_cache()
        run = run_benchmark("KM", "RLPV", checkpoint_every=EVERY,
                            **self.SPEC_KW)
        assert run.result.to_json() == base_json


class TestCadenceIsNotIdentity:
    @pytest.mark.parametrize("abbr", ["KM", "BF"])
    @pytest.mark.parametrize("model", ["Base", "RLPV", "Affine+RLPV"])
    def test_cadence_armed_run_equals_plain_run(self, tmp_path, monkeypatch,
                                                abbr, model):
        """Checkpointing changes how a run survives, never what it
        computes: the fast engine's result is byte-identical with the
        cadence armed (and snapshots really written) and without it."""
        set_cache_dir(tmp_path)
        writes = []
        monkeypatch.setattr(snapshot, "_TEST_HOOK",
                            lambda cycle, _path: writes.append(cycle))
        spec = RunSpec.make(abbr, model)
        armed, _, _ = runner._simulate(spec, checkpoint_every=EVERY)
        assert writes and writes[0] >= EVERY
        del writes[:]
        plain, _, _ = runner._simulate(spec)
        assert writes == []
        assert armed.config.exec_engine == "fast"
        assert armed.to_json() == plain.to_json()


class TestTimeoutRetry:
    def test_timeout_once_retry_resumes_and_leaves_one_entry(
            self, tmp_path, monkeypatch):
        """Satellite: a job that times out once and succeeds on retry leaves
        exactly one valid cache entry and no stale temp/checkpoint files."""
        set_cache_dir(tmp_path)

        # Hang (past the per-job deadline) right after the first checkpoint
        # is published.  A fresh run's first write lands in the first
        # cadence window [EVERY, 2*EVERY) — idle skipping can carry the
        # clock past the exact cadence cycle — while the retry resumes
        # from that checkpoint and writes at >= 2*EVERY, never hanging.
        fired = tmp_path / "hook-fired"

        def hang_at_first_checkpoint(cycle, path):
            if cycle < 2 * EVERY and path == runner._ckpt_path(flaky):
                fired.write_text(str(cycle))
                time.sleep(300)

        monkeypatch.setattr(snapshot, "_TEST_HOOK", hang_at_first_checkpoint)
        flaky = RunSpec.make("KM", "RLPV", scale=2)
        sibling = RunSpec.make("GA", "Base", num_sms=1)

        failures = []
        prefetch([flaky, sibling], jobs=2, timeout=TIMEOUT, retries=1,
                 backoff=0.0, strict=False, failures_out=failures,
                 checkpoint_every=EVERY)
        assert failures == []
        assert fired.exists()  # the first attempt really did hang

        entries = sorted(Path(tmp_path).glob("*/*.json"))
        assert len(entries) == 2  # one per spec, none duplicated
        report = verify_cache_dir(tmp_path)
        assert (report.ok, report.corrupt, report.tmp_orphans) == (2, 0, 0)
        assert not list(Path(tmp_path).rglob("*.ckpt.json"))

        # And the spliced run equals a clean, uninterrupted one.
        resumed_json = runner._RESULT_CACHE[flaky][0].to_json()
        monkeypatch.setattr(snapshot, "_TEST_HOOK", None)
        clear_cache()
        set_cache_dir(None)
        clean = run_benchmark("KM", "RLPV", scale=2)
        assert resumed_json == clean.result.to_json()


class TestChaos:
    def test_sigkilled_worker_resumes_from_checkpoint(
            self, tmp_path, monkeypatch):
        """SIGKILL a worker mid-run; the harness finishes the suite from
        the checkpoint the dead worker left behind."""
        set_cache_dir(tmp_path)

        # Kill on any first-cadence write (see TestTimeoutRetry for why the
        # window, not the exact cadence cycle): a fresh run always dies; a
        # resumed one writes at >= 2*EVERY and lives.
        def kill_at_first_checkpoint(cycle, path):
            if cycle < 2 * EVERY and path == runner._ckpt_path(flaky):
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(snapshot, "_TEST_HOOK", kill_at_first_checkpoint)
        flaky = RunSpec.make("KM", "RLPV", scale=2)
        sibling = RunSpec.make("GA", "Base", num_sms=1)

        failures = []
        prefetch([flaky, sibling], jobs=2, timeout=TIMEOUT, retries=0,
                 strict=False, failures_out=failures, checkpoint_every=EVERY)
        assert [(f.spec, f.kind) for f in failures] == [(flaky, "timeout")]
        assert sibling in runner._RESULT_CACHE  # sibling survived the kill

        # The dead worker published a valid checkpoint before dying.
        ckpt_path = runner._ckpt_path(flaky)
        info = inspect_checkpoint(ckpt_path)
        assert EVERY <= info["cycle"] < 2 * EVERY
        assert info["meta"]["workload"]["abbr"] == "KM"

        # Second pass: record checkpoint writes to prove the run *resumed*
        # (first write at >= 2*EVERY) rather than silently restarting
        # (which would write in the first cadence window — and results
        # alone could not tell, because a restart is deterministic too).
        # The run happens in a pool worker, so the writes go to a file.
        log = tmp_path / "writes.log"

        def record_write(cycle, _path):
            with log.open("a") as out:
                out.write(f"{cycle}\n")

        monkeypatch.setattr(snapshot, "_TEST_HOOK", record_write)
        failures = []
        prefetch([flaky, sibling], jobs=2, timeout=TIMEOUT, retries=0,
                 strict=False, failures_out=failures, checkpoint_every=EVERY)
        assert failures == []
        writes = [int(line) for line in log.read_text().split()]
        assert writes and writes[0] >= 2 * EVERY
        assert not ckpt_path.exists()

        resumed_json = runner._RESULT_CACHE[flaky][0].to_json()
        monkeypatch.setattr(snapshot, "_TEST_HOOK", None)
        clear_cache()
        set_cache_dir(None)
        clean = run_benchmark("KM", "RLPV", scale=2)
        assert resumed_json == clean.result.to_json()


# ------------------------------------------------- randomized property test

class TestPropertyRoundTrip:
    @pytest.mark.parametrize("engine", PATHS)
    @given(source=random_kernel(), frac=st.integers(1, 9))
    @settings(max_examples=8, deadline=None)
    def test_random_program_roundtrip(self, engine, source, frac):
        """For random small programs, snapshot -> JSON -> restore at an
        arbitrary cycle reproduces the uninterrupted run bit-identically."""
        with pytest.MonkeyPatch.context() as mp:
            self._roundtrip(engine, source, frac, mp)

    @staticmethod
    def _roundtrip(engine, source, frac, mp):
        config = make_config("RLPV", num_sms=1)
        _use_path(config, engine, mp)
        program = assemble(source, name="ckpt-prop")
        grid, block = Dim3(4), Dim3(64)

        launch = KernelLaunch(program, grid, block, MemoryImage())
        base = GPU(config).run(launch)
        base_json = base.to_json()
        base_out = launch.image.global_mem.read_block(OUT, 4 * 64)

        cut = max(1, base.cycles * frac // 10)
        launch = KernelLaunch(program, grid, block, MemoryImage())
        status, state = GPU(config).run_to_cycle(launch, cut)
        assert status == "paused"

        launch = KernelLaunch(program, grid, block, MemoryImage())
        resumed = GPU(config).run(launch,
                                  resume=json.loads(json.dumps(state)))
        assert resumed.to_json() == base_json
        assert (launch.image.global_mem.read_block(OUT, 4 * 64)
                == base_out).all()


# --------------------------------------------------------- tier-2 full proof

@pytest.mark.tier2
@pytest.mark.parametrize("engine", PATHS)
@pytest.mark.parametrize("model", ["Base", "RLPV"])
def test_pinned_subset_resumes_bit_identically(engine, model, monkeypatch):
    """The full proof obligation on the pinned bench subset: snapshot at
    mid-run, restore fresh, and require equality of result JSON (stats
    tree included) and the final memory image, per workload."""
    from repro.bench import PINNED_SUBSET

    for abbr, scale in PINNED_SUBSET:
        config = model_config(model)
        config.num_sms = 2
        _use_path(config, engine, monkeypatch)

        workload, launch = _launch(abbr, scale=scale)
        base = GPU(config).run(launch)
        base_json = base.to_json()
        base_mem = _mem_image(launch)
        workload.verify()

        _, launch = _launch(abbr, scale=scale)
        status, state = GPU(config).run_to_cycle(launch, base.cycles // 2)
        assert status == "paused", (abbr, engine, model)

        workload, launch = _launch(abbr, scale=scale)
        resumed = GPU(config).run(launch,
                                  resume=json.loads(json.dumps(state)))
        assert resumed.to_json() == base_json, (abbr, engine, model)
        assert _mem_image(launch) == base_mem, (abbr, engine, model)
        workload.verify()
