"""Concurrency semantics of the serve API — the PR's acceptance battery.

The headline invariant: **N ≥ 50 concurrent identical cold queries cost
exactly one campaign job and exactly one simulation.**  Figure 2 needs a
single PROFILE run, so "exactly one" is literal: one ad-hoc campaign
directory, one job digest inside it, ``COUNTS["simulations"] == 1`` after
the drain.  Dedup is layered — the JobManager's synchronous, idempotent
submit converges racing identical spec sets on one durable campaign, and
the campaign's per-job lease claim would keep even multiple *processes*
from re-simulating — and the storm here exercises both
through real sockets.
"""

import asyncio

import pytest

import repro.harness.runner as runner
from repro.harness.runner import clear_cache, run_benchmark, set_cache_dir
from tests.serve_util import get_json, http_get, wait_for_job, serving

STORM = 60  # > the N=50 floor the acceptance criterion names

COLD = "/v1/figure/fig2?workload=GA&scale=1&sms=1"


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    yield
    clear_cache()
    set_cache_dir(None)


class TestColdStorm:
    def test_concurrent_identical_cold_queries_cost_one_job(self, tmp_path):
        simulations_before = runner.COUNTS["simulations"]

        async def main():
            async with serving(tmp_path, worker=True) as (service, port):
                responses = await asyncio.gather(
                    *(get_json(port, COLD) for _ in range(STORM)))
                accepted = [doc for status, _, doc in responses
                            if status == 202]
                job_ids = {doc["job"] for doc in accepted}
                assert len(job_ids) == 1  # every 202 names the same job
                await wait_for_job(port, job_ids.pop())
                final = await get_json(port, COLD)
                return responses, final, service

        responses, final, service = asyncio.run(main())

        # Every storm response is a valid protocol answer: 202 while cold
        # (or 200 if it raced in after the worker published).
        assert {status for status, _, _ in responses} <= {200, 202}
        assert sum(1 for status, _, _ in responses if status == 202) >= 1

        # Exactly one campaign job was triggered by the whole storm...
        campaigns = sorted((tmp_path / "campaign").iterdir())
        assert len(campaigns) == 1
        assert service.jobs.counts["submitted"] == 1
        import json
        manifest = json.loads((campaigns[0] / "campaign.json").read_text())
        assert len(manifest["jobs"]) == 1  # fig2 == one PROFILE spec

        # ...and exactly one simulation was ever run for it.
        assert runner.COUNTS["simulations"] == simulations_before + 1

        # The cache is now warm: the re-query is a served 200.
        status, _, doc = final
        assert status == 200
        assert doc["figure"] == "fig2"
        assert set(doc["data"]) == {"repeated", "repeated_gt10"}

    def test_storm_coalesces_in_process(self, tmp_path):
        """JobManager.submit observably coalesces the storm: the first
        miss materializes the job, every later one finds it."""
        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                await asyncio.gather(
                    *(http_get(port, COLD) for _ in range(STORM)))
                return service

        service = asyncio.run(main())
        assert service.jobs.counts["submitted"] == 1
        assert service.jobs.counts["resubmitted"] == STORM - 1
        assert len(list((tmp_path / "campaign").iterdir())) == 1


class TestInterleavedStorm:
    def test_hit_and_miss_storms_stay_isolated(self, tmp_path):
        set_cache_dir(tmp_path)
        run_benchmark("GA", "Base", scale=1, num_sms=1)
        run_benchmark("GA", "RLPV", scale=1, num_sms=1)
        clear_cache()
        simulations_before = runner.COUNTS["simulations"]

        warm = "/v1/figure/fig17?workload=GA&scale=1&sms=1"
        cold = "/v1/figure/fig17?workload=KM&scale=1&sms=1"

        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                responses = await asyncio.gather(
                    *(get_json(port, warm if i % 2 == 0 else cold)
                      for i in range(STORM)))
                return responses, service

        responses, service = asyncio.run(main())
        hits = [r for i, r in enumerate(responses) if i % 2 == 0]
        misses = [r for i, r in enumerate(responses) if i % 2 == 1]

        # Every hit is a full 200 with one identical body; the miss storm
        # never bleeds into the hit path.
        assert all(status == 200 for status, _, _ in hits)
        etags = {headers["etag"] for _, headers, _ in hits}
        bodies = {str(doc) for _, _, doc in hits}
        assert len(etags) == 1 and len(bodies) == 1

        # Every miss is a 202 naming one shared durable job.
        assert all(status == 202 for status, _, _ in misses)
        assert len({doc["job"] for _, _, doc in misses}) == 1
        assert len(list((tmp_path / "campaign").iterdir())) == 1
        assert service.jobs.counts["submitted"] == 1

        # No worker ran: the miss storm didn't simulate anything inline.
        assert runner.COUNTS["simulations"] == simulations_before
        assert service.counts["hits"] == len(hits)
        assert service.counts["misses"] == len(misses)


class TestDrainThreadGC:
    def test_idle_drain_frees_a_finished_jobs_reference_cycles(
            self, tmp_path, monkeypatch):
        """A simulation's object graph is reference cycles, which only the
        cyclic GC frees; the drain thread runs it once idle, so a server
        whose hot path allocates little does not hold dead graphs."""
        import gc
        import time
        import weakref

        from repro.harness.runner import RunSpec
        from repro.serve import jobs as jobs_module

        class Node:
            pass

        refs = []

        def leave_a_cycle(spec):
            node = Node()
            node.self = node
            refs.append(weakref.ref(node))

        monkeypatch.setattr(runner, "_TEST_HOOK", leave_a_cycle)
        set_cache_dir(tmp_path / "cache")
        manager = jobs_module.JobManager(tmp_path)
        gc.disable()  # only an explicit collection may free the cycle
        manager.start()
        try:
            manager.submit([RunSpec.make("HT", "Base", scale=1, num_sms=1)])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not (
                    refs and refs[0]() is None):
                time.sleep(0.05)
            assert manager.counts["drained"] == 1
            assert refs and refs[0]() is None
        finally:
            manager.stop()
            gc.enable()
