"""The serve chaos battery (DESIGN.md §17) — behaviour under overload,
slow clients, crashing workers, and shutdown.

The contract every scenario here enforces: a response is a correct fresh
document (byte-identical to ``repro query``), a correct stale-*marked*
document, or a well-formed 503/504/408 envelope with a Retry-After —
never a hang (every await sits under a hard timeout) and never a
malformed byte.  The graceful-lifecycle half pins the SIGTERM ladder:
readyz flips first, in-flight requests finish (or 504 at their
deadline), the JobManager stops at a job boundary, exit code 0.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.harness.runner as runner
import repro.serve.jobs as jobs_module
from repro.harness.runner import clear_cache, run_benchmark, set_cache_dir
from repro.serve import (ResilienceConfig, Response, canonical_json,
                         figure_document)
from repro.serve.query import parse_query
from tests.serve_util import (get_json, http_get, parse_response,
                              raw_request, serving, wait_for_job)

#: Nothing in this battery may legitimately block longer than this.
HANG = 30.0

WARM = "/v1/figure/fig17?workload=GA&scale=1&sms=1"
COLD = "/v1/figure/fig17?workload=KM&scale=1&sms=1"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, HANG))


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    monkeypatch.setattr(jobs_module, "_TEST_DRAIN_HOOK", None)
    yield
    clear_cache()
    set_cache_dir(None)


def warm_fig17_ga(tmp_path):
    """Put the two GA runs fig17 needs into the cache, then detach."""
    set_cache_dir(tmp_path)
    run_benchmark("GA", "Base", scale=1, num_sms=1)
    run_benchmark("GA", "RLPV", scale=1, num_sms=1)
    clear_cache()


def expected_fig17_ga(service):
    """The exact bytes `repro query fig17 --workload GA` would print."""
    query = parse_query("fig17", {"workload": ["GA"], "scale": ["1"],
                                  "sms": ["1"]})
    loaded, missing = service.collect(query)
    assert missing == []
    return canonical_json(figure_document(query, loaded)).encode()


def add_slow_route(service, gate: asyncio.Event):
    """A handler that parks until *gate* is set — saturation on demand."""
    async def slow(svc, request) -> Response:
        await gate.wait()
        return Response.json(200, {"slept": True})

    service.router.get("/slow", slow)


# -------------------------------------------------------------- admission

class TestAdmissionControl:
    def test_storm_past_the_limit_sheds_cleanly(self, tmp_path):
        config = ResilienceConfig(max_concurrent=2, shed_retry_after=1.0)

        async def main():
            async with serving(tmp_path, worker=False,
                               resilience=config) as (service, port):
                release = asyncio.Event()
                add_slow_route(service, release)
                storm = [asyncio.ensure_future(get_json(port, "/slow"))
                         for _ in range(4)]  # 2× the admission limit
                # Wait until the gate decided about every request.
                while (service.gate.counts["admitted"]
                       + service.gate.counts["shed"]) < 4:
                    await asyncio.sleep(0.01)
                # Saturated — but the liveness probe is exempt and green.
                status, _, health = await get_json(port, "/v1/healthz")
                assert status == 200 and health["ok"] is True
                assert health["admission"]["in_flight"] == 2
                release.set()
                responses = await asyncio.gather(*storm)
                return service, responses

        service, responses = run(main())
        by_status = sorted(status for status, _, _ in responses)
        assert by_status == [200, 200, 503, 503]
        for status, headers, doc in responses:
            if status == 503:
                assert headers["retry-after"] == "1"
                assert doc["error"]["code"] == "overloaded"
            else:
                assert doc == {"slept": True}
        assert service.gate.counts == {"admitted": 2, "shed": 2}
        assert service.gate.in_flight == 0  # every slot released
        assert service.access_log.outcome_counts.get("shed") == 2


# -------------------------------------------------------------- deadlines

class TestDeadlines:
    def test_expired_budget_answers_a_structured_504(self, tmp_path):
        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                release = asyncio.Event()
                add_slow_route(service, release)
                started = time.monotonic()
                status, headers, doc = await get_json(
                    port, "/slow", headers={"X-Repro-Deadline": "0.1"})
                elapsed = time.monotonic() - started
                release.set()
                return service, status, doc, elapsed

        service, status, doc, elapsed = run(main())
        assert status == 504
        assert doc["error"]["code"] == "deadline-exceeded"
        assert "0.10s" in doc["error"]["message"]
        assert elapsed < 5.0  # the header lowered the 30s default
        assert service.counts["timeouts"] == 1
        assert service.gate.in_flight == 0  # the slot was released
        assert service.access_log.outcome_counts.get("timeout") == 1

    def test_header_cannot_disable_the_budget(self, tmp_path):
        """A zero/garbage deadline clamps to the floor instead of making
        every request (or no request) time out."""
        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                answers = []
                for value in ("0", "-3", "banana"):
                    status, _, _ = await get_json(
                        port, "/v1/healthz",
                        headers={"X-Repro-Deadline": value})
                    answers.append(status)
                return answers

        assert run(main()) == [200, 200, 200]


# -------------------------------------------------------------- slow-loris

class TestSlowLoris:
    CONFIG = ResilienceConfig(header_timeout=0.2, keepalive_timeout=0.3)

    def test_unfinished_header_block_gets_408_and_a_close(self, tmp_path):
        async def main():
            async with serving(tmp_path, worker=False,
                               resilience=self.CONFIG) as (service, port):
                raw = await asyncio.wait_for(raw_request(
                    port, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"), 5.0)
                return service, raw

        service, raw = run(main())
        status, headers, body = parse_response(raw)
        assert status == 408
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "request-timeout"
        assert service.access_log.outcome_counts.get("slow-client") == 1

    def test_mute_connection_is_dropped_quietly(self, tmp_path):
        """A connection that never sends a request line is closed at the
        keep-alive idle timeout without any response bytes."""
        async def main():
            async with serving(tmp_path, worker=False,
                               resilience=self.CONFIG) as (_, port):
                return await asyncio.wait_for(raw_request(port, b""), 5.0)

        assert run(main()) == b""


# ---------------------------------------------------------- circuit breaker

class TestCircuitBreakerDegradation:
    def test_breaker_open_serves_stale_marked_documents(self, tmp_path):
        """Corrupt-cache-entry-under-load: a fresh hit deposits the stale
        copy; the entry is then corrupted and the breaker tripped — the
        same query answers 200 with an explicit stale marking and a
        distinct ETag, byte-correct modulo the marking, instead of
        failing closed."""
        warm_fig17_ga(tmp_path)

        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                fresh_status, fresh_headers, fresh_body = await http_get(
                    port, WARM)
                assert fresh_status == 200
                assert fresh_body == expected_fig17_ga(service)

                # Corrupt one backing entry under the service (and drop
                # the in-process memo so the next lookup really hits the
                # damaged disk slot), then trip the breaker (threshold
                # default 3 consecutive failures).
                digest = json.loads(fresh_body)["runs"]["GA"]["Base"]
                entry = Path(service.base) / digest[:2] / f"{digest}.json"
                entry.write_bytes(b'{"corrupt": tru')
                clear_cache()
                for _ in range(3):
                    service.breaker.record_failure()
                assert service.breaker.state == "open"

                stale_status, stale_headers, stale_body = await http_get(
                    port, WARM)
                health = (await get_json(port, "/v1/healthz"))[2]

                # A query with no stale copy fails closed — but well-formed.
                miss_status, miss_headers, miss_doc = await get_json(
                    port, COLD)
                return (service, fresh_headers, stale_status, stale_headers,
                        stale_body, fresh_body, health,
                        miss_status, miss_headers, miss_doc)

        (service, fresh_headers, stale_status, stale_headers, stale_body,
         fresh_body, health, miss_status, miss_headers, miss_doc) = run(main())

        assert stale_status == 200
        stale_doc = json.loads(stale_body)
        assert stale_doc.pop("stale") is True  # explicit staleness field
        assert stale_doc == json.loads(fresh_body)  # correct modulo marking
        assert stale_headers["etag"] == \
            '"stale-' + fresh_headers["etag"].strip('"') + '"'
        assert "stale" in stale_headers.get("warning", "").lower() or \
            "110" in stale_headers.get("warning", "")
        assert service.counts["stale_served"] == 1

        assert health["breaker"]["state"] == "open"
        assert health["requests"]["stale_served"] == 1

        assert miss_status == 503
        assert miss_doc["error"]["code"] == "breaker-open"
        assert int(miss_headers["retry-after"]) >= 1

    def test_worker_failures_trip_the_breaker_organically(self, tmp_path):
        """The real feedback loop: poisoned simulations quarantine the
        job, the drain outcome reports a failure, and with threshold 1
        the breaker opens — no test reaching into breaker internals."""
        config = ResilienceConfig(breaker_failures=1, breaker_cooldown=60.0)

        def poison(spec):
            raise RuntimeError("injected chaos failure")

        async def main():
            async with serving(tmp_path, worker=True,
                               resilience=config) as (service, port):
                runner._TEST_HOOK = poison
                status, _, doc = await get_json(port, COLD)
                assert status == 202
                final = await wait_for_job(port, doc["job"])
                assert final["state"] == "failed"
                deadline = asyncio.get_running_loop().time() + 10.0
                while service.breaker.state != "open":
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                return service.breaker.snapshot()

        snapshot = run(main())
        assert snapshot["state"] == "open"
        assert snapshot["trips"] == 1


# ------------------------------------------------------------- worker chaos

@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestWorkerWatchdog:
    def test_crashed_drain_thread_is_restarted_and_work_survives(
            self, tmp_path, monkeypatch):
        """Kill the drain thread (the in-process analogue of SIGKILLing a
        worker) while a job is queued: the watchdog notices, restarts it,
        the queued job still completes, and the restart is visible in
        healthz."""
        config = ResilienceConfig(watchdog_interval=0.05)
        crashes = {"left": 1}

        def crash_once():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected drain-thread death")

        monkeypatch.setattr(jobs_module, "_TEST_DRAIN_HOOK", crash_once)

        async def main():
            async with serving(tmp_path, worker=True,
                               resilience=config) as (service, port):
                status, _, doc = await get_json(port, COLD)
                assert status == 202
                deadline = asyncio.get_running_loop().time() + 10.0
                while service.jobs.counts["watchdog_restarts"] < 1:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                final = await wait_for_job(port, doc["job"])
                assert final["state"] == "done"
                assert service.jobs.worker_alive  # the restarted thread
                return (await get_json(port, "/v1/healthz"))[2]

        health = run(main())
        assert health["jobs"]["watchdog_restarts"] >= 1
        assert health["jobs"]["worker_alive"] is True

    def test_storm_under_worker_chaos_never_malforms(self, tmp_path,
                                                     monkeypatch):
        """The acceptance storm: 2× the admission limit, warm and cold
        queries interleaved, the drain thread crashing and restarting
        underneath.  Every response is a byte-exact fresh 200, a
        well-formed 202 with Retry-After, or a well-formed 503 with
        Retry-After — nothing else, and nobody hangs."""
        warm_fig17_ga(tmp_path)
        config = ResilienceConfig(max_concurrent=4, watchdog_interval=0.05)
        crashes = {"left": 3}

        def crash_sometimes():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected drain-thread death")

        monkeypatch.setattr(jobs_module, "_TEST_DRAIN_HOOK",
                            crash_sometimes)

        async def main():
            async with serving(tmp_path, worker=True,
                               resilience=config) as (service, port):
                expected = expected_fig17_ga(service)
                responses = await asyncio.gather(
                    *(http_get(port, WARM if i % 2 == 0 else COLD)
                      for i in range(24)))
                return expected, responses

        expected, responses = run(main())
        statuses = [status for status, _, _ in responses]
        assert set(statuses) <= {200, 202, 503}
        assert statuses.count(200) >= 1  # the warm half got real answers
        for status, headers, body in responses:
            doc = json.loads(body)  # never a malformed byte
            if status == 200:
                assert body == expected  # byte-identical to `repro query`
            elif status == 202:
                assert int(headers["retry-after"]) >= 1
                assert doc["status"] in ("pending", "deferred")
            else:
                assert int(headers["retry-after"]) >= 1
                assert "error" in doc


# -------------------------------------------------------- graceful lifecycle

class TestGracefulShutdown:
    def test_drain_completes_in_flight_and_flips_readyz(self, tmp_path):
        config = ResilienceConfig(drain_deadline=5.0)

        async def main():
            async with serving(tmp_path, worker=False,
                               resilience=config) as (service, port):
                release = asyncio.Event()
                add_slow_route(service, release)
                ready_before = (await get_json(port, "/v1/readyz"))[0]
                in_flight = asyncio.ensure_future(get_json(port, "/slow"))
                while service.gate.in_flight == 0:
                    await asyncio.sleep(0.01)

                service.begin_shutdown()
                # Readiness flips immediately; liveness stays green.
                ready_status, ready_headers, ready_doc = await get_json(
                    port, "/v1/readyz")
                health_status, _, health_doc = await get_json(
                    port, "/v1/healthz")

                asyncio.get_running_loop().call_later(0.2, release.set)
                clean = await service.shutdown()
                status, _, doc = await in_flight
                return (ready_before, ready_status, ready_headers,
                        ready_doc, health_status, health_doc, clean,
                        status, doc)

        (ready_before, ready_status, ready_headers, ready_doc,
         health_status, health_doc, clean, status, doc) = run(main())
        assert ready_before == 200
        assert ready_status == 503
        assert ready_doc == {"ready": False, "draining": True}
        assert ready_headers["retry-after"] == "5"
        assert health_status == 200
        assert health_doc["ok"] is True and health_doc["ready"] is False
        assert clean is True  # nobody was cut off at the drain deadline
        assert (status, doc) == (200, {"slept": True})  # finished in drain

    def test_drain_deadline_cuts_off_stragglers(self, tmp_path):
        """A request that outlives the drain deadline is cancelled rather
        than holding shutdown hostage."""
        config = ResilienceConfig(drain_deadline=0.2)

        async def main():
            async with serving(tmp_path, worker=False,
                               resilience=config) as (service, port):
                never = asyncio.Event()  # intentionally never set
                add_slow_route(service, never)
                straggler = asyncio.ensure_future(http_get(port, "/slow"))
                while service.gate.in_flight == 0:
                    await asyncio.sleep(0.01)
                started = time.monotonic()
                clean = await service.shutdown()
                elapsed = time.monotonic() - started
                straggler.cancel()
                return clean, elapsed

        clean, elapsed = run(main())
        assert clean is False
        assert elapsed < 5.0  # the deadline, not the straggler, ruled

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The full process-level ladder: SIGTERM → readyz flips during
        the grace window while healthz stays live → exit code 0."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        ready_file = tmp_path / "ready"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dir", str(tmp_path / "cache"), "--port", "0",
             "--ready", str(ready_file), "--shutdown-grace", "1.0",
             "--drain-deadline", "5.0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 20.0
            while not ready_file.exists():
                assert proc.poll() is None, "server died on startup"
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            _, port = ready_file.read_text().split()
            base = f"http://127.0.0.1:{port}"

            def fetch(path):
                try:
                    with urllib.request.urlopen(base + path,
                                                timeout=5.0) as resp:
                        return resp.status
                except urllib.error.HTTPError as err:
                    return err.code

            assert fetch("/v1/readyz") == 200
            assert fetch("/v1/healthz") == 200

            proc.send_signal(signal.SIGTERM)
            # Inside the grace window the listener is still up but the
            # readiness probe already answers 503 (liveness stays 200).
            assert fetch("/v1/readyz") == 503
            assert fetch("/v1/healthz") == 200

            assert proc.wait(timeout=20.0) == 0
            out = proc.stdout.read().decode()
            assert "draining" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
