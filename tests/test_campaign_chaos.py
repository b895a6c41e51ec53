"""The campaign chaos proof (DESIGN.md §14).

The acceptance obligation for the fault-tolerant campaign runner: drive a
real multi-process campaign whose workers SIGKILL themselves at checkpoint
writes, and require that it (a) converges, (b) *resumes* reclaimed jobs
from their checkpoint slots instead of restarting them, and (c) produces
results — per-job ``RunResult`` JSON and the merged stats registry —
bit-identical to a clean serial run of the same matrix that never
checkpointed.

Chaos model (shared with ``repro campaign run --chaos``): a fresh run
writes its first checkpoint inside the first cadence window
``[EVERY, 2*EVERY)``; a resumed run writes at ``>= 2*EVERY``.  Killing
only inside the window therefore guarantees convergence — each job dies
at most once per fresh attempt and always survives once it has a slot.
"""

from pathlib import Path

import pytest

import repro.ckpt.snapshot as snapshot
import repro.harness.runner as runner
from repro.campaign import (Campaign, MatrixSpec, aggregate_results,
                            campaign_status, read_journal, run_campaign)
from repro.harness.runner import clear_cache, run_benchmark, set_cache_dir
from repro.stats import StatGroup

#: Checkpoint cadence: well below the KM-scale-2 run length (~5000 cycles
#: on 2 SMs) so every fresh run is killable mid-flight.
EVERY = 400

#: Lease TTL for the chaos campaign.  Short, so a killed worker's jobs are
#: reclaimed quickly; heartbeats renew at ttl / 3 while workers live.
TTL = 4.0

MATRIX = MatrixSpec.make(["KM"], models=("Base", "RLPV"), scales=(2,))


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    monkeypatch.setattr(snapshot, "_TEST_HOOK", None)
    runner.set_job_guard(None)
    yield
    clear_cache()
    set_cache_dir(None)
    runner.set_job_guard(None)


def test_sigkilled_campaign_converges_bit_identically_to_serial(tmp_path):
    campaign_cache = tmp_path / "campaign-cache"
    set_cache_dir(campaign_cache)
    campaign = Campaign.create(MATRIX, checkpoint_every=EVERY, ttl=TTL)

    # chaos p=1.0: every worker dies at its first in-window checkpoint
    # write, so every job is guaranteed to exercise kill -> reclaim ->
    # resume at least once.
    report = run_campaign(campaign, workers=2, chaos="window:1.0:7")

    assert report.complete
    assert report.quarantined == 0
    assert report.done == report.total == len(MATRIX.expand())
    assert report.worker_kills >= 1  # chaos really fired
    assert report.respawns >= 1  # the coordinator replaced the dead

    journal = read_journal(campaign.journal_path)
    assert journal.corrupt == 0
    records = journal.records
    reclaims = [r for r in records if r["type"] == "reclaim"]
    completes = [r for r in records if r["type"] == "complete"]
    assert len(reclaims) >= 1
    assert {r["data"]["job"] for r in completes} == set(campaign.jobs)
    for reclaim in reclaims:
        assert reclaim["data"]["dead_owner"]  # attributable to a victim

    # Resume, not restart: every job that was reclaimed completed from a
    # checkpoint at least one cadence in (the victim's published slot).
    reclaimed_jobs = {r["data"]["job"] for r in reclaims}
    for complete in completes:
        if complete["data"]["job"] in reclaimed_jobs:
            assert complete["data"]["resumed_from_cycle"] >= EVERY

    status = campaign_status(campaign)
    assert status.complete
    assert status.counts["done"] == status.total
    results, merged = aggregate_results(campaign)
    assert set(results) == set(campaign.jobs)

    # No checkpoint slots survive their runs; at most lease debris remains
    # and the verifier knows how to account for all of it.
    assert not list(Path(campaign_cache).rglob("*.ckpt.json"))
    verify = runner.verify_cache_dir(campaign_cache)
    assert (verify.corrupt, verify.tmp_orphans) == (0, 0)
    assert verify.ok == len(campaign.jobs)

    # The oracle: a clean, uncached, serial run of the same matrix that
    # never checkpointed.  Cadence is not part of a run's identity, so the
    # digests match and equality here is bit-identity of the whole result
    # payload of a killed, resumed run with one that was never cut.
    clear_cache()
    set_cache_dir(None)
    serial = {}
    for spec in MATRIX.expand():
        run = run_benchmark(spec.abbr, spec.model, scale=spec.scale,
                            seed=spec.seed, num_sms=spec.num_sms)
        serial[spec.digest()] = run.result
    assert {d: r.to_json() for d, r in results.items()} == {
        d: r.to_json() for d, r in serial.items()}
    assert merged == StatGroup.merged(
        (r.stats for r in serial.values()), name="campaign")


def test_worker_killed_between_jobs_loses_nothing(tmp_path):
    """Kill a worker thread-of-control *outside* a checkpoint write: an
    in-process worker completes one job, then its process dies (modelled
    by a fresh worker taking over a campaign directory whose lease files
    still linger).  The second worker must skip the done job, break the
    stale lease, and finish the rest."""
    set_cache_dir(tmp_path)
    matrix = MatrixSpec.make(["GA", "KM"], models=("Base",), scales=(1,),
                             num_sms=1)
    campaign = Campaign.create(matrix, checkpoint_every=EVERY, ttl=0.5)
    digests = list(campaign.jobs)

    from repro.campaign import run_worker

    killed = {}

    def die_after_first(spec):
        if killed and spec.abbr != killed.get("abbr"):
            raise KeyboardInterrupt("worker torn down")
        killed["abbr"] = spec.abbr

    runner._TEST_HOOK = die_after_first
    with pytest.raises(KeyboardInterrupt):
        run_worker(campaign, "w0", backoff=0.0)
    # The victim's second job may still be leased; its heartbeat is gone.
    runner._TEST_HOOK = None
    clear_cache()

    import time as _time
    _time.sleep(0.6)  # let the orphaned lease expire
    summary = run_worker(campaign, "w1", backoff=0.0)
    assert summary.completed >= 1

    status = campaign_status(campaign)
    assert status.complete
    assert status.counts["done"] == len(digests)
