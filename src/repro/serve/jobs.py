"""Background job management: cache misses become campaign jobs.

A query that cannot be answered from the disk cache is turned into an
*ad-hoc* campaign (:meth:`Campaign.create_from_specs` — the missing
RunSpecs, no matrix, no checkpoint cadence) and handed to a
single daemon worker thread that drains campaigns one at a time through
:func:`~repro.campaign.engine.run_worker`.  That reuses the whole PR-7
fault-tolerance stack for free: leases, the append-only journal,
quarantine for poison specs, and — critically — the per-job lease claim
(:meth:`LeaseManager.claim`) that lets exactly one worker, in this or any
other process, simulate each job: the second dedup layer under the serve
API (:meth:`JobManager.submit`'s idempotency being the first).

Job identity is the ad-hoc campaign id, itself derived from the sorted
spec digests: submitting the same missing set twice — from this process,
another replica, or after a restart — converges on one durable campaign
directory.  Job *state* is never stored; it is folded on demand from the
campaign journal and live leases, exactly like ``repro campaign status``.
Each job keeps a :class:`~repro.campaign.journal.JournalTail`, so a status
poll reads only the journal bytes appended since the previous poll.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.engine import (DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL,
                                   Campaign, job_state, run_worker)
from repro.campaign.journal import JournalTail
from repro.harness.runner import RunSpec

#: Test seam: called at the top of every drain-loop iteration (before the
#: queue get).  Chaos tests monkeypatch it to raise and kill the drain
#: thread mid-service, proving the watchdog restart path.
_TEST_DRAIN_HOOK: Optional[Callable[[], None]] = None


class JobQueueFull(Exception):
    """The pending-job queue is at its bound; nothing was enqueued."""


@dataclass
class Job:
    """One submitted unit of background work (== one ad-hoc campaign)."""

    id: str
    digests: List[str]
    created: float
    campaign: Campaign = field(repr=False)
    #: Set if the worker thread itself crashed while draining this job
    #: (job-level simulation failures live in the journal instead).
    worker_error: Optional[str] = None
    #: The campaign journal, folded incrementally across status polls.
    journal: JournalTail = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.journal = JournalTail(self.campaign.journal_path)


class JobManager:
    """Submit RunSpec sets; a daemon thread simulates them durably.

    Resilience contract (DESIGN.md §17): the pending queue is **bounded**
    (past ``max_pending`` a submit raises :class:`JobQueueFull` and the
    service answers 202-deferred instead of queueing unboundedly), every
    drain outcome is reported through ``on_outcome`` (feeding the serve
    circuit breaker), :meth:`stop` winds the worker down cooperatively at
    a job boundary, and :meth:`ensure_worker` is the watchdog that detects
    a *crashed* drain thread and restarts it — requeueing whatever job it
    was holding, which is safe because campaigns are durable and resume.
    """

    def __init__(self, base: Path, ttl: float = DEFAULT_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 worker_id: str = "serve-worker",
                 max_pending: int = 0,
                 on_outcome: Optional[Callable[[bool], None]] = None) -> None:
        self.base = Path(base)
        self.ttl = ttl
        self.max_attempts = max_attempts
        self.worker_id = worker_id
        self.max_pending = int(max_pending)  # 0 = unbounded (legacy tests)
        self.on_outcome = on_outcome
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: The job the drain thread is currently simulating (for watchdog
        #: requeue after a thread crash).
        self._current: Optional[Job] = None
        #: Observable effort counters (tests and /v1/healthz read these).
        self.counts = {"submitted": 0, "resubmitted": 0, "drained": 0,
                       "rejected": 0, "watchdog_restarts": 0}

    # -- lifecycle ---------------------------------------------------------

    @property
    def worker_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.worker_alive:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._drain, daemon=True,
                                        name=self.worker_id)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Wind the worker down at a job boundary (checkpoint-safe).

        The stop event makes the in-flight ``run_worker`` return at its
        next between-jobs check; anything unfinished stays durable in its
        campaign directory (leases expire, journal is append-only), so a
        later start — this process or any other — resumes it.  A worker
        mid-*simulation* past the timeout is abandoned as a daemon
        thread, which is the same crash-safety story campaign workers
        already honour.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._queue.put(None)
        self._thread.join(timeout=timeout)
        self._thread = None

    def ensure_worker(self) -> bool:
        """Watchdog: restart the drain thread if it crashed; True = restarted.

        A healthy thread, or one we stopped on purpose, is left alone.
        After a crash the job it was draining is requeued — the campaign
        directory still holds every completed unit, so the redo costs
        only the unfinished remainder.
        """
        if self._stop.is_set() or self.worker_alive:
            return False
        if self._thread is None:
            return False  # never started (worker=False services)
        self.counts["watchdog_restarts"] += 1
        crashed_on = self._current
        self._current = None
        if crashed_on is not None:
            self._queue.put(crashed_on)
        self._thread = threading.Thread(target=self._drain, daemon=True,
                                        name=self.worker_id)
        self._thread.start()
        return True

    # -- submission and lookup --------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> Job:
        """Enqueue *specs*; idempotent per distinct spec set.

        Re-submitting a set already known to this manager returns the
        existing job without queueing a duplicate drain (the campaign
        directory is durable either way, so even a restarted server
        resumes rather than redoing finished work).  A *new* set past the
        ``max_pending`` bound raises :class:`JobQueueFull` **before** the
        campaign directory is materialized: deferred work leaves no
        debris, and the client's retry re-submits the identical set.
        """
        digests = sorted({spec.digest() for spec in specs})
        campaign_id = Campaign.adhoc_id(digests)
        with self._lock:
            existing = self._jobs.get(campaign_id)
            if existing is not None:
                self.counts["resubmitted"] += 1
                return existing
            if self.max_pending and self._queue.qsize() >= self.max_pending:
                self.counts["rejected"] += 1
                raise JobQueueFull(
                    f"{self._queue.qsize()} jobs already pending "
                    f"(bound {self.max_pending})")
        campaign = Campaign.create_from_specs(
            specs, base=self.base, ttl=self.ttl,
            max_attempts=self.max_attempts)
        with self._lock:
            existing = self._jobs.get(campaign.id)
            if existing is not None:
                self.counts["resubmitted"] += 1
                return existing
            job = Job(id=campaign.id, digests=sorted(campaign.jobs),
                      created=time.time(), campaign=campaign)
            self._jobs[job.id] = job
            self.counts["submitted"] += 1
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def status(self, job: Job) -> Dict:
        """The job's state document, folded live from campaign storage."""
        live = {lease.job for lease in job.campaign.lease_manager().live()}
        with self._lock:  # one tail per job, shared by request threads
            logs = job.journal.poll().logs
            states = {digest: job_state(logs.get(digest), digest in live)
                      for digest in job.digests}
        return {
            "id": job.id,
            "state": self._overall(job, states),
            "created": job.created,
            "jobs": states,
            "counts": {
                "total": len(states),
                "done": sum(1 for s in states.values() if s == "done"),
                "running": sum(1 for s in states.values() if s == "running"),
                "pending": sum(1 for s in states.values() if s == "pending"),
                "quarantined": sum(1 for s in states.values()
                                   if s == "quarantined"),
            },
            **({"error": job.worker_error} if job.worker_error else {}),
        }

    @staticmethod
    def _overall(job: Job, states: Dict[str, str]) -> str:
        if all(state == "done" for state in states.values()):
            return "done"
        if job.worker_error or any(state == "quarantined"
                                   for state in states.values()):
            return "failed"
        if any(state == "running" for state in states.values()):
            return "running"
        return "queued"

    # -- the worker thread -------------------------------------------------

    def _drain(self) -> None:
        while True:
            if _TEST_DRAIN_HOOK is not None:
                _TEST_DRAIN_HOOK()  # outside the try: crashes kill the thread
            job = self._queue.get()
            if job is None or self._stop.is_set():
                return
            self._current = job
            ok = False
            try:
                summary = run_worker(job.campaign, self.worker_id,
                                     should_stop=self._stop.is_set)
                ok = summary.quarantined == 0
            except Exception as err:  # noqa: BLE001 - surfaced via status
                job.worker_error = f"{type(err).__name__}: {err}"
            finally:
                self._current = None
                self.counts["drained"] += 1
                # A stop-interrupted drain proves nothing about backend
                # health either way; don't feed it to the breaker.
                if self.on_outcome is not None and not self._stop.is_set():
                    self.on_outcome(ok)
