"""Results-as-a-service: the HTTP endpoints over the result store.

Endpoint map (all GET/HEAD, JSON bodies):

========================  ==================================================
``/`` , ``/v1``           service index: endpoints, figures, known knobs
``/v1/healthz``           liveness + effort counters (never shed)
``/v1/readyz``            readiness: 200 serving, 503 once draining begins
``/v1/figure/{fig}``      one figure for one workload (``?workload=KM&...``)
``/v1/suite/{fig}``       one figure across the whole Table I suite
``/v1/result/{digest}``   one raw result payload, byte-exact from the cache
``/v1/jobs/{id}``         background job state (folded from the journal)
========================  ==================================================

The cache-hit path never simulates: runs are answered via
:func:`~repro.harness.runner.lookup_result` and figure documents are
ETagged by their RunSpec digests (``If-None-Match`` revalidates to 304).
A miss returns **202 Accepted** with a job handle after enqueueing the
missing specs on the campaign runner.  ``JobManager.submit`` runs
synchronously on the event loop and converges identical spec sets on one
ad-hoc campaign, so a storm of identical cold queries costs one job, and
under that the campaign workers' lease-based single-flight makes even
many server replicas cost one simulation.

Every request additionally climbs the overload ladder (DESIGN.md §17):
admission gate (503 + ``Retry-After`` past the high-water mark), a
per-request deadline (504 envelope on expiry), and — on the miss path —
a circuit breaker around campaign enqueue that degrades to explicitly
stale-marked cached documents while the compute backend is failing.
``SIGTERM`` flips ``/v1/readyz``, drains in-flight requests under a
deadline, and stops the JobManager checkpoint-safely.
"""

from __future__ import annotations

import asyncio
import signal
import time
from math import ceil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness import runner
from repro.harness.runner import RunSpec, _read_payload
from repro.serve.etag import document_etag, matches, result_etag, stale_etag
from repro.serve.figures import (FIGURES, canonical_json, figure_document,
                                 load_cached)
from repro.serve.http import (AccessLog, HttpServer, Request, Response,
                              Router, error_response)
from repro.serve.jobs import JobManager, JobQueueFull
from repro.serve.query import (MAX_SCALE, MAX_SMS, QueryError, QuerySpec,
                               known_workloads, parse_query, required_specs)
from repro.serve.resilience import (DEADLINE_HEADER, AdmissionGate,
                                    CircuitBreaker, ResilienceConfig,
                                    StaleDocCache, clamp_deadline)

DEFAULT_PORT = 8753


def _is_digest(text: str) -> bool:
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def _retry_after(seconds: float) -> str:
    """``Retry-After`` header value: whole seconds, never below 1."""
    return str(max(1, ceil(seconds)))


class ResultService:
    """One serving process: router + cache reads + background jobs."""

    def __init__(self, base: Path, access_log: Optional[Path] = None,
                 worker: bool = True,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        self.base = Path(base)
        self.base.mkdir(parents=True, exist_ok=True)
        runner.set_cache_dir(self.base)
        self.config = resilience or ResilienceConfig()
        self.gate = AdmissionGate(self.config.max_concurrent)
        self.breaker = CircuitBreaker(threshold=self.config.breaker_failures,
                                      cooldown=self.config.breaker_cooldown)
        self.stale = StaleDocCache(keep=self.config.stale_keep)
        self.jobs = JobManager(self.base,
                               max_pending=self.config.max_pending_jobs,
                               on_outcome=self._job_outcome)
        self.access_log = AccessLog(access_log)
        self.worker = worker
        #: Flipped false the instant shutdown begins; /v1/readyz reads it.
        self.ready = True
        #: Observable effort counters (tests and /v1/healthz read these).
        self.counts = {"requests": 0, "hits": 0, "misses": 0,
                       "not_modified": 0, "timeouts": 0, "stale_served": 0}
        self.router = build_router()
        self.server = HttpServer(
            self.router, self._dispatch, self.access_log,
            keepalive_timeout=self.config.keepalive_timeout,
            header_timeout=self.config.header_timeout)
        self._watchdog: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        if self.worker:
            self.jobs.start()
            self._watchdog = asyncio.get_running_loop().create_task(
                self._watch_worker())
        return await self.server.start(host, port)

    async def close(self) -> None:
        """Abrupt teardown (tests); production exits via :meth:`shutdown`."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        await self.server.close()
        self.jobs.stop()

    def begin_shutdown(self) -> None:
        """Synchronous first step of shutdown, safe in a signal handler:
        readiness flips *immediately*, before any draining starts."""
        self.ready = False

    async def shutdown(self) -> bool:
        """Graceful sequence: unready → grace → stop accepting → drain →
        stop the JobManager at a job boundary.  True = fully clean."""
        self.begin_shutdown()
        if self.config.shutdown_grace > 0:
            # Let load balancers observe the readyz flip and stop routing.
            await asyncio.sleep(self.config.shutdown_grace)
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        self.server.stop_accepting()
        clean = await self.server.drain(self.config.drain_deadline)
        await self.server.close()
        # Checkpoint-safe by construction: the stop event winds run_worker
        # down at a job boundary, and anything cut off lives durably in
        # its campaign directory (journal, leases, checkpoint slots).
        self.jobs.stop()
        return clean

    def _job_outcome(self, ok: bool) -> None:
        """Background-drain outcome (from the worker thread) → breaker."""
        if ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    async def _watch_worker(self) -> None:
        """Restart a crashed drain thread; counts surface in healthz."""
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            self.jobs.ensure_worker()

    # -- the overload ladder ----------------------------------------------

    async def _dispatch(self, handler, request: Request,
                        captures: Dict[str, str]) -> Response:
        self.counts["requests"] += 1
        # Probes are exempt: liveness/readiness must answer even (indeed,
        # especially) when the service is saturated or draining.
        if handler in (handle_health, handle_ready):
            return await handler(self, request, **captures)
        if not self.gate.try_acquire():
            response = error_response(
                503, "overloaded",
                f"{self.gate.limit} requests already in flight; retry "
                "shortly")
            response.headers.append(
                ("Retry-After", _retry_after(self.config.shed_retry_after)))
            response.outcome = "shed"
            return response
        budget = clamp_deadline(request.header(DEADLINE_HEADER), self.config)
        try:
            return await asyncio.wait_for(
                handler(self, request, **captures), budget)
        except asyncio.TimeoutError:
            self.counts["timeouts"] += 1
            response = error_response(
                504, "deadline-exceeded",
                f"request exceeded its {budget:.2f}s budget")
            response.outcome = "timeout"
            return response
        finally:
            self.gate.release()

    # -- shared hit/miss machinery ----------------------------------------

    def collect(self, query: QuerySpec
                ) -> Tuple[Dict[str, Dict[str, object]], List[RunSpec]]:
        """Load what the cache has; list the specs it is missing."""
        loaded: Dict[str, Dict[str, object]] = {}
        missing: List[RunSpec] = []
        for abbr, by_role in required_specs(query).items():
            loaded[abbr] = {}
            for role, spec in by_role.items():
                run = load_cached(spec)
                if run is None:
                    missing.append(spec)
                else:
                    loaded[abbr][role] = run
        return loaded, missing

    async def answer(self, request: Request, query: QuerySpec) -> Response:
        key = canonical_json(query.to_dict())
        loaded, missing = self.collect(query)
        if not missing:
            self.counts["hits"] += 1
            doc = figure_document(query, loaded)
            etag = document_etag(query.fig, doc["runs"])
            # Deposit the fresh answer for stale-serving while the
            # breaker is open; the doc dict is never mutated afterwards
            # (degrade() serves a copy), so sharing it here is safe.
            self.stale.put(key, doc, etag)
            return self.conditional(request, etag,
                                    canonical_json(doc).encode())
        if not self.breaker.allow():
            return self.degrade(request, key)
        return self.accept(missing)

    def degrade(self, request: Request, key: str) -> Response:
        """Breaker open: a stale-marked cached document, or a 503."""
        entry = self.stale.get(key)
        if entry is None:
            response = error_response(
                503, "breaker-open",
                "the compute backend is failing and no cached document "
                "exists for this query; retry after the cooldown")
            response.headers.append(
                ("Retry-After", str(self.breaker.retry_after())))
            response.outcome = "breaker"
            return response
        self.counts["stale_served"] += 1
        doc = dict(entry.doc)
        doc["stale"] = True
        response = self.conditional(request, stale_etag(entry.etag),
                                    canonical_json(doc).encode())
        response.headers.append(("Warning", '110 - "Response is Stale"'))
        response.outcome = "stale"
        return response

    def accept(self, missing: List[RunSpec]) -> Response:
        """202: enqueue *missing* (once, however many callers race here:
        ``submit`` is idempotent per spec set and never yields the loop)."""
        self.counts["misses"] += 1
        digests = sorted(spec.digest() for spec in missing)
        try:
            job = self.jobs.submit(missing)
        except JobQueueFull as err:
            # Bounded backlog: acknowledge the work exists but enqueue
            # nothing — the client's retry re-submits the identical set.
            response = Response.json(202, {
                "status": "deferred",
                "missing": digests,
                "detail": str(err),
            }, headers=[("Retry-After",
                         _retry_after(self.config.deferred_retry_after))])
            response.outcome = "deferred"
            return response
        return Response.json(202, {
            "status": "pending",
            "job": job.id,
            "missing": digests,
            "poll": f"/v1/jobs/{job.id}",
        }, headers=[("Retry-After", "1"),
                    ("Location", f"/v1/jobs/{job.id}")])

    def conditional(self, request: Request, etag: str,
                    body: bytes) -> Response:
        """200 with ETag, or 304 when ``If-None-Match`` revalidates."""
        if matches(etag, request.header("if-none-match")):
            self.counts["not_modified"] += 1
            return Response(304, body, headers=[("ETag", etag)])
        return Response(200, body, headers=[("ETag", etag)])


# ----------------------------------------------------------------- handlers

async def handle_index(service: ResultService, request: Request) -> Response:
    return Response.json(200, {
        "service": "repro-serve",
        "endpoints": [
            "/v1/figure/{fig}?workload=KM&model=RLPV&scale=1&seed=7&sms=N",
            "/v1/suite/{fig}",
            "/v1/result/{digest}",
            "/v1/jobs/{id}",
            "/v1/healthz",
            "/v1/readyz",
        ],
        "figures": {name: {"roles": list(figure.roles), "doc": figure.doc}
                    for name, figure in FIGURES.items()},
        "workloads": known_workloads(),
        "limits": {"scale": MAX_SCALE, "sms": MAX_SMS},
    })


async def handle_health(service: ResultService, request: Request) -> Response:
    return Response.json(200, {
        "ok": True,
        "ready": service.ready,
        "requests": service.counts,
        "admission": {"in_flight": service.gate.in_flight,
                      "limit": service.gate.limit,
                      **service.gate.counts},
        "breaker": service.breaker.snapshot(),
        "stale_docs": len(service.stale),
        "statuses": {str(status): count for status, count
                     in sorted(service.access_log.status_counts.items())},
        "outcomes": dict(service.access_log.outcome_counts),
        "jobs": {"known": len(service.jobs),
                 "worker_alive": service.jobs.worker_alive,
                 **service.jobs.counts},
        "harness": dict(runner.COUNTS),
    })


async def handle_ready(service: ResultService, request: Request) -> Response:
    """Readiness (routing), distinct from /v1/healthz (liveness): flips
    503 the instant shutdown begins, while liveness keeps answering 200
    so orchestrators drain instead of killing."""
    if service.ready:
        return Response.json(200, {"ready": True})
    return Response.json(503, {"ready": False, "draining": True},
                         headers=[("Retry-After", "5")])


async def handle_figure(service: ResultService, request: Request,
                        fig: str) -> Response:
    try:
        query = parse_query(fig, request.query, suite=False)
    except QueryError as err:
        return error_response(400, "bad-query", str(err), param=err.param)
    return await service.answer(request, query)


async def handle_suite(service: ResultService, request: Request,
                       fig: str) -> Response:
    try:
        query = parse_query(fig, request.query, suite=True)
    except QueryError as err:
        return error_response(400, "bad-query", str(err), param=err.param)
    return await service.answer(request, query)


async def handle_result(service: ResultService, request: Request,
                        digest: str) -> Response:
    if not _is_digest(digest):
        return error_response(
            400, "bad-digest",
            "result digests are 64 lowercase hex characters",
            param="digest")
    path = service.base / digest[:2] / f"{digest}.json"
    if not path.exists():
        return error_response(404, "not-found",
                              f"no result for digest {digest[:12]}…")
    status, _ = _read_payload(path)
    if status != "ok":
        return error_response(
            404, "unusable-entry",
            f"the entry for {digest[:12]}… is {status}-damaged or from "
            "another cache format")
    # Byte-exact file contents: the payload is already canonical JSON.
    return service.conditional(request, result_etag(digest),
                               path.read_bytes())


async def handle_job(service: ResultService, request: Request,
                     id: str) -> Response:
    job = service.jobs.get(id)
    if job is None:
        return error_response(404, "not-found", f"no such job: {id}")
    return Response.json(200, service.jobs.status(job))


def build_router() -> Router:
    router = Router()
    router.get("/", handle_index)
    router.get("/v1", handle_index)
    router.get("/v1/healthz", handle_health)
    router.get("/v1/readyz", handle_ready)
    router.get("/v1/figure/{fig}", handle_figure)
    router.get("/v1/suite/{fig}", handle_suite)
    router.get("/v1/result/{digest}", handle_result)
    router.get("/v1/jobs/{id}", handle_job)
    return router


# ---------------------------------------------------------------- CLI entry

def serve_forever(base: Path, host: str = "127.0.0.1",
                  port: int = DEFAULT_PORT,
                  access_log: Optional[Path] = None,
                  worker: bool = True,
                  ready: Optional[Path] = None,
                  resilience: Optional[ResilienceConfig] = None) -> None:
    """Run the service until SIGTERM/SIGINT (the ``repro serve`` verb).

    *ready*, if given, is written with ``host port`` once the socket is
    bound — scripts starting a server on port 0 read the real port back.

    Termination is graceful: the signal handler flips readiness
    synchronously (so ``/v1/readyz`` answers 503 before anything else
    happens), then the main coroutine drains in-flight requests under the
    configured deadline, stops the JobManager at a job boundary, and the
    process exits 0.
    """

    async def main() -> None:
        service = ResultService(base, access_log=access_log, worker=worker,
                                resilience=resilience)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            service.begin_shutdown()  # readyz flips before draining starts
            stop.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _on_signal)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loops fall back to KeyboardInterrupt
        bound_host, bound_port = await service.start(host, port)
        print(f"serving results from {service.base} on "
              f"http://{bound_host}:{bound_port}", flush=True)
        if ready is not None:
            ready.write_text(f"{bound_host} {bound_port}\n")
        await stop.wait()
        print("serve: draining...", flush=True)
        started = time.monotonic()
        clean = await service.shutdown()
        print(f"serve: drained {'cleanly' if clean else 'with stragglers'} "
              f"in {time.monotonic() - started:.2f}s", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down")
