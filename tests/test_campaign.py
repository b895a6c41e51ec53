"""Fault-tolerant campaign runner (``repro.campaign``; DESIGN.md §14).

Covers the pieces in isolation — checksummed journal, lease lifecycle
(including a hypothesis state machine over claim/renew/release/expiry),
matrix expansion, full-jitter retry waits, the cache
sweeps for campaign debris — and then the whole thing in-process: a small
campaign drained by ``run_worker`` whose status, failure history, and
aggregated results are derivable from the directory alone.
"""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

import repro.ckpt.snapshot as snapshot
import repro.harness.runner as runner
from repro.campaign import (Campaign, CampaignError, Heartbeat, LeaseManager,
                            MatrixSpec, aggregate_results,
                            campaign_complete, campaign_status, fold_journal,
                            job_state, list_campaigns, read_journal,
                            render_status, run_worker)
from repro.campaign.journal import JournalTail, append_record
from repro.ckpt import canonical_sha256, write_checkpoint
from repro.core.models import model_config
from repro.sim.gpu import GPU, KernelLaunch
from repro.workloads import build_workload
from repro.harness.runner import (JobFailure, RunSpec, clear_cache,
                                  run_benchmark, set_cache_dir,
                                  verify_cache_dir)


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    monkeypatch.setattr(snapshot, "_TEST_HOOK", None)
    yield
    clear_cache()
    set_cache_dir(None)


class FakeClock:
    """Injectable wall clock for deterministic lease-expiry tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------- journal

class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_record(path, "claim", {"job": "abc", "worker": "w0"})
        append_record(path, "complete", {"job": "abc", "cycles": 42})
        out = read_journal(path)
        assert (out.corrupt, out.torn_tail) == (0, False)
        assert [r["type"] for r in out.records] == ["claim", "complete"]
        assert out.records[1]["data"]["cycles"] == 42
        assert all("time" in r and "sum" in r for r in out.records)

    def test_missing_journal_is_empty(self, tmp_path):
        out = read_journal(tmp_path / "nope.jsonl")
        assert (out.records, out.corrupt, out.torn_tail) == ([], 0, False)

    def test_torn_tail_dropped_without_losing_history(self, tmp_path):
        """A writer SIGKILLed mid-append leaves a half line: the reader
        keeps every earlier record and flags the tail as torn, not
        corrupt."""
        path = tmp_path / "journal.jsonl"
        for index in range(3):
            append_record(path, "claim", {"job": f"job{index}"})
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # tear the final line
        out = read_journal(path)
        assert len(out.records) == 2
        assert (out.corrupt, out.torn_tail) == (0, True)

    def test_corrupt_mid_file_record_is_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for index in range(3):
            append_record(path, "claim", {"job": f"job{index}"})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"v": 1, "garbage\n'
        path.write_bytes(b"".join(lines))
        out = read_journal(path)
        assert [r["data"]["job"] for r in out.records] == ["job0", "job2"]
        assert (out.corrupt, out.torn_tail) == (1, False)

    def test_tampered_record_fails_its_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_record(path, "complete", {"job": "abc", "cycles": 42})
        append_record(path, "claim", {"job": "def"})
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["data"]["cycles"] = 41  # flip history without re-summing
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        out = read_journal(path)
        assert [r["type"] for r in out.records] == ["claim"]
        assert out.corrupt == 1


def _line(kind, job, seq):
    """The bytes ``append_record`` writes for one record."""
    record = {"v": 1, "type": kind, "time": float(seq),
              "data": {"job": job, "seq": seq}}
    record["sum"] = canonical_sha256(record)
    return (json.dumps(record, sort_keys=True) + "\n").encode()


#: One journal write: a whole record, a torn one (a prefix, perhaps all
#: but its newline; later appends then continue its line), or a record
#: with one flipped byte.
_WRITES = st.tuples(
    st.sampled_from(("append", "append", "torn", "corrupt")),
    st.sampled_from(("claim", "complete", "failed", "reclaim", "abandoned",
                     "quarantine")),
    st.sampled_from("abc"), st.floats(0.0, 1.0))


def _write_bytes(write, seq):
    action, kind, job, frac = write
    line = _line(kind, job, seq)
    if action == "torn":
        return line[:int(frac * (len(line) - 1))]
    if action == "corrupt":
        at = int(frac * (len(line) - 2))
        return line[:at] + bytes([line[at] ^ 1]) + line[at + 1:]
    return line


class TestJournalTail:
    @given(writes=st.lists(_WRITES, max_size=12),
           chunks=st.lists(st.integers(1, 400), max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_incremental_read_equals_one_shot_at_every_cut(self, writes,
                                                           chunks):
        """Reading a growing journal in random chunks through one tail
        gives, after every chunk, exactly the one-shot read and fold of
        the bytes written so far."""
        raw = b"".join(_write_bytes(write, seq)
                       for seq, write in enumerate(writes))
        cuts, end = [], 0
        for size in chunks:
            end = min(end + size, len(raw))
            cuts.append(end)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "journal.jsonl"
            tail = JournalTail(path)
            for cut in cuts + [len(raw)]:
                path.write_bytes(raw[:cut])
                tail.poll()
                once = read_journal(path)
                assert tail.records == once.records
                assert (tail.corrupt, tail.torn_tail) == (once.corrupt,
                                                          once.torn_tail)
                assert tail.logs == fold_journal(once.records)

    def test_poll_reads_only_the_appended_bytes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        tail = JournalTail(path)
        append_record(path, "claim", {"job": "a"})
        assert list(tail.poll().logs) == ["a"]
        consumed = tail.offset
        assert consumed == path.stat().st_size
        append_record(path, "complete", {"job": "a", "cycles": 9})
        assert read_journal(path, consumed).records[0]["type"] == "complete"
        assert job_state(tail.poll().logs["a"], leased=False) == "done"
        assert tail.offset == path.stat().st_size


# ------------------------------------------------------------------- leases

class TestLease:
    def manager(self, tmp_path, clock, ttl=10.0):
        return LeaseManager(tmp_path / "leases", ttl=ttl, clock=clock)

    def test_claim_grants_and_blocks_while_live(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        lease = mgr.claim("job", "w0", attempt=1)
        assert lease is not None and lease.owner == "w0"
        assert lease.expires == clock.now + 10.0
        assert mgr.claim("job", "w1", attempt=1) is None
        assert "job" in mgr.owned

    def test_renew_extends_and_refuses_foreign_or_expired(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        mgr.claim("job", "w0", attempt=1)
        clock.advance(5.0)
        assert mgr.renew("job", "w0")
        renewed = mgr.read("job")
        assert renewed.expires == clock.now + 10.0
        assert renewed.renewals == 1
        assert not mgr.renew("job", "w1")  # foreign owner
        clock.advance(11.0)
        assert not mgr.renew("job", "w0")  # expired: up for reclaim
        assert "job" not in mgr.owned

    def test_release_is_owner_checked(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        mgr.claim("job", "w0", attempt=1)
        mgr.release("job", "w1")  # not the owner: no-op
        assert mgr.read("job") is not None
        mgr.release("job", "w0")
        assert mgr.read("job") is None
        assert mgr.claim("job", "w1", attempt=1) is not None

    def test_expired_lease_is_reclaimed_attributably(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        mgr.claim("job", "w0", attempt=1)
        clock.advance(10.1)
        lease = mgr.claim("job", "w1", attempt=2)
        assert lease is not None
        assert (lease.owner, lease.reclaimed_from) == ("w1", "w0")
        # The dead owner's renewal discovers the loss instead of stomping.
        assert not mgr.renew("job", "w0")
        # No tombstone debris left behind on the clean path.
        assert list((tmp_path / "leases").glob("*.tmp")) == []

    def test_unreadable_lease_is_safe_to_break(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        mgr.root.mkdir(parents=True)
        mgr.path("job").write_text("not json at all")
        lease = mgr.claim("job", "w1", attempt=1)
        assert lease is not None and lease.owner == "w1"

    def test_live_lists_only_unexpired(self, tmp_path):
        clock = FakeClock()
        mgr = self.manager(tmp_path, clock)
        mgr.claim("a", "w0", attempt=1)
        clock.advance(6.0)
        mgr.claim("b", "w1", attempt=1)
        clock.advance(5.0)  # "a" expired, "b" live
        live = mgr.live()
        assert [lease.job for lease in live] == ["b"]


class LeaseLifecycle(RuleBasedStateMachine):
    """Claim / renew / release / expiry over one job, three workers.

    The model tracks who *should* hold the job; the invariant checks the
    lease file agrees and that the protocol never double-grants: a live,
    unexpired lease is held by exactly the modelled owner.
    """

    OWNERS = ("w0", "w1", "w2")

    @initialize()
    def setup(self):
        import tempfile
        self.dir = tempfile.TemporaryDirectory()
        self.clock = FakeClock()
        self.ttl = 10.0
        self.managers = {
            owner: LeaseManager(Path(self.dir.name), ttl=self.ttl,
                                clock=self.clock)
            for owner in self.OWNERS
        }
        self.holder = None
        self.expires = 0.0

    def _live(self):
        return self.holder is not None and self.expires > self.clock.now

    @rule(owner=st.sampled_from(OWNERS))
    def claim(self, owner):
        lease = self.managers[owner].claim("job", owner, attempt=1)
        if self._live():
            assert lease is None, "double grant over a live lease"
        else:
            assert lease is not None
            if self.holder is not None:
                assert lease.reclaimed_from == self.holder
            self.holder, self.expires = owner, lease.expires

    @rule(owner=st.sampled_from(OWNERS))
    def renew(self, owner):
        ok = self.managers[owner].renew("job", owner)
        assert ok == (self._live() and self.holder == owner)
        if ok:
            self.expires = self.clock.now + self.ttl

    @rule(owner=st.sampled_from(OWNERS))
    def release(self, owner):
        self.managers[owner].release("job", owner)
        if self.holder == owner:
            self.holder = None

    @rule(dt=st.floats(min_value=0.1, max_value=15.0))
    def advance(self, dt):
        self.clock.advance(dt)

    @invariant()
    def single_grant(self):
        if not hasattr(self, "managers"):
            return
        lease = self.managers["w0"].read("job")
        if lease is not None and lease.expires > self.clock.now:
            assert self.holder == lease.owner
            assert list(Path(self.dir.name).glob("*.json")) == [
                self.managers["w0"].path("job")]
        elif lease is None:
            # Released (or never claimed): the model may still name an
            # expired holder, but never a live one.
            assert not self._live() or self.holder is None

    def teardown(self):
        if hasattr(self, "dir"):
            self.dir.cleanup()


LeaseLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestLeaseLifecycle = LeaseLifecycle.TestCase


class TestHeartbeat:
    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        mgr = LeaseManager(tmp_path / "leases", ttl=0.6)
        mgr.claim("job", "w0", attempt=1)
        with Heartbeat(mgr, "job", "w0") as heartbeat:
            time.sleep(1.2)  # two ttls: without renewal this would expire
            lease = mgr.read("job")
            assert lease.expires > time.time()
            assert lease.renewals >= 1
        assert not heartbeat.lost

    def test_heartbeat_reports_a_lost_lease(self, tmp_path):
        mgr = LeaseManager(tmp_path / "leases", ttl=0.6)
        mgr.claim("job", "w0", attempt=1)
        with Heartbeat(mgr, "job", "w0", interval=0.05) as heartbeat:
            mgr.path("job").unlink()  # a reclaimer took the job
            time.sleep(0.3)
        assert heartbeat.lost
        assert "job" not in mgr.owned


# ------------------------------------------------------- full-jitter retry

class TestRetryJitter:
    class Rng:
        def __init__(self):
            self.calls = []

        def uniform(self, low, high):
            self.calls.append((low, high))
            return 0.0  # sleep(0): harmless

    def test_wait_is_uniform_over_the_exponential_window(self):
        rng = self.Rng()
        runner._retry_wait(0.25, 0, rng=rng)
        runner._retry_wait(0.25, 3, rng=rng)
        assert rng.calls == [(0.0, 0.25), (0.0, 2.0)]

    def test_window_is_capped(self):
        rng = self.Rng()
        runner._retry_wait(0.25, 50, rng=rng)
        assert rng.calls == [(0.0, runner.MAX_RETRY_WAIT)]

    def test_zero_backoff_never_sleeps(self):
        rng = self.Rng()
        runner._retry_wait(0.0, 5, rng=rng)
        assert rng.calls == []


# ------------------------------------------------------------------- matrix

class TestMatrixSpec:
    def test_expand_is_the_cartesian_product(self):
        matrix = MatrixSpec.make(["KM", "GA"], models=("Base", "RLPV"),
                                 scales=(1, 2), seeds=(7,), num_sms=1)
        specs = matrix.expand()
        assert len(specs) == 8
        assert len({spec.digest() for spec in specs}) == 8
        # Deterministic order: the job graph is stable across rebuilds.
        assert [spec.digest() for spec in specs] == [
            spec.digest() for spec in matrix.expand()]

    def test_sweeps_multiply_the_design_space(self):
        matrix = MatrixSpec.make(["KM"], num_sms=1,
                                 reuse_buffer_entries=(64, 256))
        specs = matrix.expand()
        assert len(specs) == 2
        assert sorted(dict(spec.wir_overrides)["reuse_buffer_entries"]
                      for spec in specs) == [64, 256]
        # Scalar sweep values are normalized to singleton axes.
        single = MatrixSpec.make(["KM"], reuse_buffer_entries=64)
        assert len(single.expand()) == 1

    def test_dict_roundtrip(self):
        matrix = MatrixSpec.make(["KM", "GA"], models=("RLPV",), scales=(2,),
                                 seeds=(7, 11), reuse_buffer_entries=(64,))
        assert MatrixSpec.from_dict(matrix.to_dict()) == matrix

    def test_stored_engine_key_is_ignored(self):
        """Campaign files written while the matrix carried an engine still
        load, as the same matrix (expanding to the same job digests)."""
        matrix = MatrixSpec.make(["KM"], models=("Base", "RLPV"))
        legacy = dict(matrix.to_dict(), exec_engine="scalar")
        assert MatrixSpec.from_dict(legacy) == matrix
        assert "exec_engine" not in matrix.to_dict()

    def test_campaign_id_tracks_the_design(self):
        matrix = MatrixSpec.make(["KM"])
        base = matrix.campaign_id()
        assert base == MatrixSpec.make(["KM"]).campaign_id()  # stable
        assert base != MatrixSpec.make(["GA"]).campaign_id()
        assert base != MatrixSpec.make(["KM"], seeds=(11,)).campaign_id()


# -------------------------------------------------------------- journal fold

class TestFold:
    def test_states_and_attempts(self):
        path_records = [
            {"type": "claim", "data": {"job": "a", "worker": "w0"}},
            {"type": "failed", "data": {"job": "a", "failure": {}}},
            {"type": "reclaim", "data": {"job": "a", "dead_owner": "w0"}},
            {"type": "complete", "data": {"job": "a", "cycles": 9}},
            {"type": "quarantine", "data": {"job": "b"}},
            {"type": "noise", "data": {}},  # no job digest: ignored
        ]
        logs = fold_journal(path_records)
        assert logs["a"].attempts_consumed == 2  # one failure + one reclaim
        assert job_state(logs["a"], leased=False) == "done"
        assert job_state(logs.get("b"), leased=False) == "quarantined"
        assert job_state(None, leased=True) == "running"
        assert job_state(None, leased=False) == "pending"


# ------------------------------------------------- in-process campaign runs

SMALL = dict(models=("Base",), scales=(1,), num_sms=1)


class TestCampaignEndToEnd:
    def test_create_is_idempotent_and_stored_config_wins(self, tmp_path):
        matrix = MatrixSpec.make(["GA"], **SMALL)
        first = Campaign.create(matrix, base=tmp_path, checkpoint_every=400,
                                ttl=5.0, max_attempts=2)
        again = Campaign.create(matrix, base=tmp_path, checkpoint_every=800,
                                ttl=99.0, max_attempts=7)
        assert again.id == first.id  # cadence is not part of the id
        assert (again.checkpoint_every, again.ttl,
                again.max_attempts) == (400, 5.0, 2)
        assert list_campaigns(tmp_path) == [first.id]
        with pytest.raises(CampaignError, match="no campaign"):
            Campaign.open("feedfeedfeed", base=tmp_path)

    def test_bad_cadence_is_refused_before_the_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="at least 1 cycle"):
            Campaign.create(MatrixSpec.make(["GA"], **SMALL), base=tmp_path,
                            checkpoint_every=0)
        assert list_campaigns(tmp_path) == []

    def test_worker_drains_the_campaign_bit_identically(self, tmp_path):
        set_cache_dir(tmp_path)
        matrix = MatrixSpec.make(["GA"], **SMALL)
        campaign = Campaign.create(matrix, checkpoint_every=400)
        summary = run_worker(campaign, "w0")
        assert summary.completed == 1
        assert campaign_complete(campaign)

        status = campaign_status(campaign)
        assert status.complete
        assert status.counts["done"] == status.total == 1
        assert status.eta_seconds == 0.0
        assert (status.journal_corrupt, status.journal_torn_tail) == (0, False)

        results, merged = aggregate_results(campaign)
        (digest,) = campaign.jobs
        assert set(results) == {digest}

        # The campaign's published result is the plain harness result.
        clear_cache()
        set_cache_dir(None)
        clean = run_benchmark("GA", "Base", scale=1, num_sms=1)
        assert results[digest].to_json() == clean.result.to_json()
        assert merged == clean.result.stats

    @pytest.mark.parametrize("slot", ["other-run", "other-image"])
    def test_unusable_slot_journals_resumed_from_zero(self, tmp_path, slot):
        """The journal records the cycle the simulation really resumed
        from, not the one a slot holds: a slot from another run (meta
        mismatch) or another launch image (delta base mismatch) is
        refused, so the job ran from cycle 0."""
        set_cache_dir(tmp_path)
        matrix = MatrixSpec.make(["KM"], models=("RLPV",), scales=(2,))
        campaign = Campaign.create(matrix, checkpoint_every=400)
        ((digest, spec),) = campaign.jobs.items()
        seed = 11 if slot == "other-run" else spec.seed
        workload = build_workload("KM", scale=2, seed=seed)
        launch = KernelLaunch(workload.program, workload.grid,
                              workload.block, workload.image)
        if slot == "other-image":
            store = launch.image.global_mem
            store.write_block(0, store.read_block(0, 1) ^ 1)
        config = model_config("RLPV")
        config.num_sms = spec.num_sms
        gpu = GPU(config)
        gpu.checkpoint_meta_extra = {
            "workload": {"abbr": "KM", "scale": 2, "seed": seed}}
        status, state = gpu.run_to_cycle(launch, 1500)
        assert status == "paused"
        write_checkpoint(runner._ckpt_path(spec), state,
                         meta=gpu.checkpoint_meta(launch))

        assert run_worker(campaign, "w0").completed == 1
        (complete,) = [record["data"] for record
                       in read_journal(campaign.journal_path).records
                       if record["type"] == "complete"]
        assert complete["resumed_from_cycle"] == 0
        clear_cache()
        set_cache_dir(None)
        clean = run_benchmark("KM", "RLPV", scale=2)
        assert complete["cycles"] == clean.result.cycles

    def test_campaign_results_warm_the_harness_cache(self, tmp_path):
        """A campaign publishes under the digests figures, ``repro query``
        and ``repro serve`` look up, whatever its checkpoint cadence."""
        set_cache_dir(tmp_path)
        matrix = MatrixSpec.make(["GA"], models=("Base", "RLPV"))
        campaign = Campaign.create(matrix)
        assert campaign.checkpoint_every == 2000
        assert run_worker(campaign, "w0").completed == 2
        clear_cache()  # only the disk cache may answer now
        simulations = runner.COUNTS["simulations"]
        for model in ("Base", "RLPV"):
            run_benchmark("GA", model)
        assert runner.COUNTS["simulations"] == simulations

    def test_old_manifest_version_is_refused(self, tmp_path):
        """Version-1 manifests name jobs by cadence-bearing digests; they
        must fail loudly instead of publishing under the wrong address."""
        campaign = Campaign.create(MatrixSpec.make(["GA"], **SMALL),
                                   base=tmp_path)
        manifest_path = campaign.root / "campaign.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CampaignError, match="manifest version 1"):
            Campaign.open(campaign.id, base=tmp_path)

    def test_failures_persist_beyond_the_observing_process(self, tmp_path):
        """Satellite: quarantine + durable failure history.  The second
        ``Campaign.open`` plays the role of a fresh process asking
        ``repro campaign status`` after every worker died."""
        set_cache_dir(tmp_path)
        matrix = MatrixSpec.make(["GA", "KM"], **SMALL)
        campaign = Campaign.create(matrix, checkpoint_every=400,
                                   max_attempts=2)

        def poison(spec):
            if spec.abbr == "GA":
                raise RuntimeError("injected campaign failure (GA)")

        runner._TEST_HOOK = poison
        summary = run_worker(campaign, "w0", backoff=0.0)
        assert (summary.completed, summary.failed,
                summary.quarantined) == (1, 2, 1)

        reopened = Campaign.open(campaign.id, base=tmp_path)
        status = campaign_status(reopened)
        assert status.counts == {"done": 1, "running": 0, "pending": 0,
                                 "quarantined": 1}
        assert status.complete  # quarantine does not wedge the campaign
        assert len(status.failures) == 2
        failure = JobFailure.from_dict(status.failures[-1])
        assert failure.spec.abbr == "GA"
        assert "injected campaign failure" in failure.error
        rendered = render_status(status)
        assert "quarantined" in rendered
        assert "injected campaign failure" in rendered

    def test_status_shows_live_workers(self, tmp_path):
        set_cache_dir(tmp_path)
        matrix = MatrixSpec.make(["GA"], **SMALL)
        campaign = Campaign.create(matrix, checkpoint_every=400)
        (digest,) = campaign.jobs
        campaign.lease_manager().claim(digest, "w7", attempt=1)
        status = campaign_status(campaign)
        assert status.counts["running"] == 1
        assert status.live_workers == 1
        assert status.jobs[0].worker == "w7"
        assert not status.complete


# --------------------------------------------------- cache sweeps (verify)

class TestCampaignDebrisSweep:
    def test_orphaned_ckpt_slots_and_expired_leases(self, tmp_path):
        set_cache_dir(tmp_path)
        run = run_benchmark("GA", "Base", scale=1, num_sms=1)
        digest = RunSpec.make("GA", "Base", scale=1, num_sms=1).digest()
        assert run.result is not None

        ckpt = tmp_path / "ckpt"
        state = {"cycle": 120, "next_block_index": 0, "sms": [], "memory": {}}
        # (a) valid slot for a finished run: spent, orphaned.
        write_checkpoint(ckpt / f"{digest}.ckpt.json", state, meta={})
        # (b) unreadable slot: worthless on resume, orphaned.
        (ckpt / ("ee" * 32 + ".ckpt.json")).write_text("{broken")
        # (c) valid slot with no result yet: a future resume — kept.
        write_checkpoint(ckpt / ("ab" * 32 + ".ckpt.json"), state, meta={})

        leases = tmp_path / "campaign" / "deadbeef0000" / "leases"
        leases.mkdir(parents=True)
        (leases / "old.json").write_text(json.dumps(
            {"job": "old", "owner": "w0", "attempt": 1,
             "expires": time.time() - 60.0}))
        (leases / "junk.json").write_text("not a lease")
        (leases / "live.json").write_text(json.dumps(
            {"job": "live", "owner": "w1", "attempt": 1,
             "expires": time.time() + 600.0}))

        report = verify_cache_dir(tmp_path)
        # Campaign debris never pollutes the result-entry tallies.
        assert (report.total, report.ok, report.corrupt) == (1, 1, 0)
        assert (report.ckpt_orphans, report.ckpt_pruned) == (2, 0)
        assert (report.lease_expired, report.lease_pruned) == (2, 0)

        report = verify_cache_dir(tmp_path, prune=True)
        assert (report.ckpt_orphans, report.ckpt_pruned) == (2, 2)
        assert (report.lease_expired, report.lease_pruned) == (2, 2)
        assert sorted(p.name for p in ckpt.glob("*.ckpt.json")) == [
            "ab" * 32 + ".ckpt.json"]  # the useful slot survives
        assert sorted(p.name for p in leases.glob("*.json")) == ["live.json"]
        # And the swept cache now audits clean.
        report = verify_cache_dir(tmp_path)
        assert (report.ckpt_orphans, report.lease_expired) == (0, 0)

    def test_prune_never_touches_a_live_servers_work(self, tmp_path):
        """`cache verify --prune` racing a live serving/worker process:
        checkpoint slots held by an unexpired lease and temp files
        younger than the grace window are counted as in-use, not
        debris — prune must never break an in-flight job."""
        set_cache_dir(tmp_path)
        run_benchmark("GA", "Base", scale=1, num_sms=1)
        digest = RunSpec.make("GA", "Base", scale=1, num_sms=1).digest()

        # The run's checkpoint slot would normally be spent (the result
        # exists) — but a live lease on the digest pins it.
        ckpt = tmp_path / "ckpt"
        state = {"cycle": 120, "next_block_index": 0, "sms": [], "memory": {}}
        write_checkpoint(ckpt / f"{digest}.ckpt.json", state, meta={})
        leases = tmp_path / "campaign" / "adhoc-live" / "leases"
        leases.mkdir(parents=True)
        (leases / f"{digest}.json").write_text(json.dumps(
            {"job": digest, "owner": "serve-worker", "attempt": 1,
             "expires": time.time() + 600.0}))

        # A temp file mid-publish (fresh) vs genuine debris (old).
        fresh_tmp = tmp_path / digest[:2] / "inflight.json.12345.tmp"
        fresh_tmp.write_text("{half-written")
        old_tmp = tmp_path / digest[:2] / "abandoned.json.999.tmp"
        old_tmp.write_text("{half-written")
        import os
        stale = time.time() - 2 * runner.TMP_GRACE_SECONDS
        os.utime(old_tmp, (stale, stale))

        report = verify_cache_dir(tmp_path, prune=True)
        assert (report.ckpt_leased, report.ckpt_orphans) == (1, 0)
        assert (report.tmp_fresh, report.tmp_orphans,
                report.tmp_pruned) == (1, 1, 1)
        assert (ckpt / f"{digest}.ckpt.json").exists()  # lease pinned it
        assert fresh_tmp.exists()  # inside the grace window
        assert not old_tmp.exists()  # real debris is still swept

        # Once the lease expires, the slot is sweepable again.
        (leases / f"{digest}.json").write_text(json.dumps(
            {"job": digest, "owner": "serve-worker", "attempt": 1,
             "expires": time.time() - 1.0}))
        report = verify_cache_dir(tmp_path, prune=True)
        assert (report.ckpt_leased, report.ckpt_orphans) == (0, 1)
        assert not (ckpt / f"{digest}.ckpt.json").exists()


# ------------------------------------------------- ad-hoc campaigns (serve)

class TestAdHocCampaigns:
    def test_create_from_specs_preserves_digests_verbatim(self, tmp_path):
        specs = [RunSpec.make("GA", "Base", scale=1, num_sms=1),
                 RunSpec.make("GA", "RLPV", scale=1, num_sms=1)]
        campaign = Campaign.create_from_specs(specs, base=tmp_path)
        assert campaign.id.startswith("adhoc-")
        assert sorted(campaign.jobs) == sorted(s.digest() for s in specs)
        # Ad-hoc jobs run without checkpoints, and each enqueued spec
        # lands in the cache slot the enqueuing query will look up.
        assert campaign.checkpoint_every is None
        for digest, spec in campaign.jobs.items():
            assert spec in specs
            assert spec.digest() == digest

    def test_create_from_specs_is_idempotent_and_order_blind(self, tmp_path):
        specs = [RunSpec.make("GA", "Base", scale=1, num_sms=1),
                 RunSpec.make("GA", "RLPV", scale=1, num_sms=1)]
        first = Campaign.create_from_specs(specs, base=tmp_path)
        second = Campaign.create_from_specs(list(reversed(specs)),
                                            base=tmp_path)
        assert first.id == second.id
        assert len(list((tmp_path / "campaign").iterdir())) == 1

    def test_adhoc_campaign_has_no_matrix(self, tmp_path):
        campaign = Campaign.create_from_specs(
            [RunSpec.make("GA", "Base", scale=1, num_sms=1)], base=tmp_path)
        assert campaign.manifest["matrix"] is None
        with pytest.raises(CampaignError, match="ad-hoc"):
            _ = campaign.matrix
        # But it round-trips through open() like any campaign.
        assert Campaign.open(campaign.id, base=tmp_path).jobs \
            == campaign.jobs

    def test_empty_spec_list_is_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="at least one"):
            Campaign.create_from_specs([], base=tmp_path)

    def test_run_worker_drains_an_adhoc_campaign(self, tmp_path):
        set_cache_dir(tmp_path)
        spec = RunSpec.make("GA", "Base", scale=1, num_sms=1)
        campaign = Campaign.create_from_specs([spec], base=tmp_path)
        summary = run_worker(campaign, "w0")
        assert summary.completed == 1
        assert campaign_complete(campaign)
        assert campaign.result_path(spec.digest()).exists()

    def test_adhoc_id_matches_materialized_campaigns(self, tmp_path):
        specs = [RunSpec.make("GA", "Base", scale=1, num_sms=1),
                 RunSpec.make("GA", "RLPV", scale=1, num_sms=1)]
        digests = [spec.digest() for spec in specs]
        predicted = Campaign.adhoc_id(digests)
        assert predicted == Campaign.adhoc_id(list(reversed(digests)))
        campaign = Campaign.create_from_specs(specs, base=tmp_path)
        assert campaign.id == predicted


# ----------------------------------------------------- lost-lease abandons

class TestLostLeaseAbandon:
    def test_worker_abandons_instead_of_double_publishing(self, tmp_path):
        """Satellite: mid-simulation the worker's lease expires and a
        rival reclaims it.  The heartbeat flags the loss; the worker must
        journal an ``abandoned`` record and publish **no** completion —
        the reclaimer owns this attempt stream now, and two authoritative
        ``complete`` records for one claim would be a double-publish."""
        import threading

        set_cache_dir(tmp_path)
        spec = RunSpec.make("GA", "Base", scale=1, num_sms=1)
        # Tiny ttl → heartbeat renews every max(0.05, ttl/3) = 0.05s, so
        # the loss is noticed fast once the lease changes hands.
        campaign = Campaign.create_from_specs([spec], base=tmp_path,
                                              ttl=0.15)
        digest = spec.digest()
        rival = campaign.lease_manager()
        stolen = threading.Event()

        def hijack(run_spec):
            if stolen.is_set():
                return
            stolen.set()
            # Simulate expiry-and-reclaim while the worker is stalled in
            # its simulation: the rival breaks the lease and grants
            # itself a fresh one, exactly what LeaseManager.claim does
            # after a real ttl expiry.
            (campaign.root / "leases" / f"{digest}.json").unlink()
            assert rival._grant(digest, "rival", attempt=2) is not None
            time.sleep(0.3)  # > heartbeat interval: the loss is observed

        runner._TEST_HOOK = hijack
        summary = run_worker(campaign, "w0", should_stop=stolen.is_set)

        assert summary.abandoned == 1
        assert summary.completed == 0
        logs = fold_journal(read_journal(campaign.journal_path).records)
        log = logs[digest]
        assert len(log.abandons) == 1
        assert log.abandons[0]["worker"] == "w0"
        assert log.completes == []  # never double-published
        # The simulation itself was not wasted: the content-addressed
        # publish is idempotent, so the reclaimer's next lookup hits.
        assert campaign.result_path(digest).exists()
