"""Job leases: exclusive, expiring claims over campaign jobs.

A lease is one small JSON file under ``<campaign>/leases/<digest>.json``
naming its owner, attempt number, and wall-clock expiry.  The protocol is
built from two filesystem primitives that are atomic on POSIX:

* **grant** — ``open(O_CREAT | O_EXCL)``: of any number of racing
  claimants, exactly one creates the file and owns the job;
* **reclaim** — ``os.rename`` of an *expired* lease to a unique tombstone:
  of any number of racing reclaimers, exactly one rename succeeds (the
  losers see ``ENOENT``), and only the winner goes on to grant itself a
  fresh lease.

A live worker renews its lease from a heartbeat thread well before expiry
(interval ``ttl / 3``); a SIGKILLed worker's heartbeat dies with it, the
lease runs out, and any surviving worker reclaims the job.  A worker whose
renewal discovers the lease was lost (expired and reclaimed during a long
stall) abandons ownership — its in-flight result commit stays safe because
the result cache is content-addressed and written atomically, so duplicate
completions are idempotent.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from repro.ckpt import atomic_write_text

#: Default lease lifetime.  Heartbeats renew at ttl / 3, so a lease only
#: expires after ~3 consecutive missed heartbeats — i.e. a dead worker.
DEFAULT_TTL = 30.0

_TOMBSTONE_COUNTER = itertools.count()


@dataclass
class Lease:
    """One granted claim (the decoded contents of a lease file)."""

    job: str
    owner: str
    attempt: int
    expires: float
    renewals: int = 0
    #: Owner of the expired lease this grant broke, if any ("" for a
    #: fresh claim).  Lets the worker journal reclaims attributably.
    reclaimed_from: str = ""

    def to_dict(self) -> dict:
        return {"job": self.job, "owner": self.owner,
                "attempt": self.attempt, "expires": self.expires,
                "renewals": self.renewals}


class LeaseManager:
    """Grant, renew, release, and reclaim leases under one directory.

    ``clock`` is injectable so the lease lifecycle can be driven by a fake
    clock in tests (see the hypothesis state machine in
    ``tests/test_campaign.py``).
    """

    def __init__(self, root: Path, ttl: float = DEFAULT_TTL,
                 clock: Callable[[], float] = time.time) -> None:
        self.root = Path(root)
        self.ttl = ttl
        self.clock = clock
        #: Jobs this manager currently believes it owns (local bookkeeping
        #: only; the lease files are the ground truth).
        self.owned: set = set()

    def path(self, job: str) -> Path:
        return self.root / f"{job}.json"

    def read(self, job: str) -> Optional[Lease]:
        """Decode a lease file; ``None`` when missing or unreadable.

        An unreadable lease is treated like an expired one: it cannot
        prove liveness, so it is safe to break.
        """
        try:
            payload = json.loads(self.path(job).read_text())
            return Lease(job=payload["job"], owner=payload["owner"],
                         attempt=int(payload["attempt"]),
                         expires=float(payload["expires"]),
                         renewals=int(payload.get("renewals", 0)))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _grant(self, job: str, owner: str, attempt: int,
               reclaimed_from: str = "") -> Optional[Lease]:
        lease = Lease(job=job, owner=owner, attempt=attempt,
                      expires=self.clock() + self.ttl,
                      reclaimed_from=reclaimed_from)
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path(job),
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        try:
            os.write(fd, json.dumps(lease.to_dict(),
                                    sort_keys=True).encode())
        finally:
            os.close(fd)
        self.owned.add(job)
        return lease

    def claim(self, job: str, owner: str, attempt: int) -> Optional[Lease]:
        """Try to acquire *job*; ``None`` when a live lease blocks it.

        An expired (or undecodable) existing lease is broken first: the
        rename-to-tombstone guarantees at most one of any number of racing
        reclaimers proceeds to the fresh grant.  The tombstone uses the
        cache-wide ``*.tmp`` suffix so a reclaimer killed between rename
        and unlink leaves only debris ``repro cache verify --prune``
        already sweeps.
        """
        granted = self._grant(job, owner, attempt)
        if granted is not None:
            return granted
        current = self.read(job)
        if current is not None and current.expires > self.clock():
            return None  # live holder
        dead_owner = current.owner if current is not None else ""
        tombstone = self.root / (f"{job}.{os.getpid()}."
                                 f"{next(_TOMBSTONE_COUNTER)}.tmp")
        try:
            os.rename(self.path(job), tombstone)
        except FileNotFoundError:
            return None  # another reclaimer won the race
        try:
            tombstone.unlink()
        except OSError:
            pass
        # A third claimant may slip in between our rename and this grant;
        # O_EXCL keeps the outcome single-granted either way.
        return self._grant(job, owner, attempt, reclaimed_from=dead_owner)

    def renew(self, job: str, owner: str) -> bool:
        """Extend a held lease; ``False`` means the lease was lost.

        Renewal refuses to touch a lease that is missing, owned by someone
        else, or already expired — an expired lease is up for reclaim, and
        overwriting it could stomp a racing reclaimer's fresh grant.
        """
        current = self.read(job)
        if (current is None or current.owner != owner
                or current.expires <= self.clock()):
            self.owned.discard(job)
            return False
        renewed = Lease(job=job, owner=owner, attempt=current.attempt,
                        expires=self.clock() + self.ttl,
                        renewals=current.renewals + 1)
        atomic_write_text(self.path(job),
                          json.dumps(renewed.to_dict(), sort_keys=True))
        return True

    def release(self, job: str, owner: str) -> None:
        """Drop a held lease (no-op if it was already lost or reclaimed)."""
        self.owned.discard(job)
        current = self.read(job)
        if current is None or current.owner != owner:
            return
        try:
            self.path(job).unlink()
        except OSError:
            pass

    def live(self) -> List[Lease]:
        """Every currently unexpired lease under this manager's root."""
        now = self.clock()
        leases = []
        if not self.root.exists():
            return leases
        for path in sorted(self.root.glob("*.json")):
            lease = self.read(path.stem)
            if lease is not None and lease.expires > now:
                leases.append(lease)
        return leases


class Heartbeat:
    """Background renewal of one held lease until stopped.

    Dies with the process — which is the point: a SIGKILLed worker stops
    heartbeating and its lease expires on schedule.  ``lost`` flips when a
    renewal discovers the lease is gone; the worker checks it before
    journalling completion and *abandons* the job instead (the reclaimer
    owns the publish), so a superseded attempt never double-publishes.
    """

    def __init__(self, manager: LeaseManager, job: str, owner: str,
                 interval: Optional[float] = None) -> None:
        self.manager = manager
        self.job = job
        self.owner = owner
        self.interval = (interval if interval is not None
                         else max(0.05, manager.ttl / 3.0))
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.manager.renew(self.job, self.owner):
                self.lost = True
                return

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

