"""Campaign progress, failure history, ETA, and merged-result aggregation.

Everything here is a *pure read*: status is derived by folding the journal,
the live leases, and the result cache — it works identically while workers
run, after they all died, or on a campaign directory copied off a dead
machine.  That is what makes ``repro campaign status`` able to report the
failure history of a process that no longer exists (the failures were
journalled, not merely raised as :class:`~repro.harness.runner.SuiteError`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.harness.runner as runner
from repro.campaign.engine import Campaign, job_state
from repro.campaign.journal import JobLog, JournalTail
from repro.harness.reporting import format_table
from repro.sim.gpu import RunResult
from repro.stats import StatGroup

#: Display order of job states.
STATE_ORDER = ("done", "running", "pending", "quarantined")


@dataclass
class JobStatus:
    """One job's derived status."""

    digest: str
    abbr: str
    model: str
    state: str
    attempts: int
    #: Live lease owner while running, else "".
    worker: str = ""
    #: Cycle the completing worker resumed from (0 = ran from scratch).
    resumed_from_cycle: int = 0
    cycles: int = 0
    failures: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "digest": self.digest, "abbr": self.abbr, "model": self.model,
            "state": self.state, "attempts": self.attempts,
            "worker": self.worker,
            "resumed_from_cycle": self.resumed_from_cycle,
            "cycles": self.cycles, "failures": self.failures,
        }


@dataclass
class CampaignStatus:
    """Snapshot of a whole campaign, fit for humans and ``--json``."""

    campaign_id: str
    total: int
    counts: Dict[str, int]
    jobs: List[JobStatus]
    #: Every journalled failure record, campaign-wide, oldest first.
    failures: List[Dict]
    live_workers: int
    eta_seconds: Optional[float]
    journal_corrupt: int
    journal_torn_tail: bool

    @property
    def complete(self) -> bool:
        return (self.counts.get("done", 0)
                + self.counts.get("quarantined", 0)) == self.total

    def to_dict(self) -> Dict:
        return {
            "campaign_id": self.campaign_id,
            "total": self.total,
            "counts": self.counts,
            "complete": self.complete,
            "live_workers": self.live_workers,
            "eta_seconds": self.eta_seconds,
            "journal": {"corrupt_records": self.journal_corrupt,
                        "torn_tail": self.journal_torn_tail},
            "failures": self.failures,
            "jobs": [job.to_dict() for job in self.jobs],
        }


def campaign_status(campaign: Campaign,
                    clock: Callable[[], float] = time.time
                    ) -> CampaignStatus:
    """Fold journal + leases + cache into one status snapshot."""
    journal = JournalTail(campaign.journal_path).poll()
    logs = journal.logs
    manager = campaign.lease_manager(clock=clock)
    live = {lease.job: lease for lease in manager.live()}

    jobs: List[JobStatus] = []
    failures: List[Dict] = []
    counts = {state: 0 for state in STATE_ORDER}
    for digest, spec in campaign.jobs.items():
        log = logs.get(digest)
        state = job_state(log, digest in live)
        counts[state] += 1
        status = JobStatus(
            digest=digest, abbr=spec.abbr, model=spec.model, state=state,
            attempts=log.attempts_consumed if log is not None else 0,
            worker=live[digest].owner if digest in live else "",
        )
        if log is not None:
            status.failures = [entry["failure"] for entry in log.failures
                               if "failure" in entry]
            failures.extend(status.failures)
            if log.completes:
                first = log.completes[0]
                status.cycles = int(first.get("cycles", 0))
                status.resumed_from_cycle = int(
                    first.get("resumed_from_cycle", 0))
        jobs.append(status)

    return CampaignStatus(
        campaign_id=campaign.id,
        total=len(jobs),
        counts=counts,
        jobs=jobs,
        failures=failures,
        live_workers=len({lease.owner for lease in live.values()}),
        eta_seconds=_estimate_eta(journal.records, logs, counts,
                                  len({l.owner for l in live.values()})),
        journal_corrupt=journal.corrupt,
        journal_torn_tail=journal.torn_tail,
    )


def _estimate_eta(records, logs: Dict[str, JobLog], counts: Dict[str, int],
                  live_workers: int) -> Optional[float]:
    """Remaining wall clock from observed grant→complete durations."""
    last_grant: Dict[str, float] = {}
    durations: List[float] = []
    for record in records:
        data = record.get("data", {})
        digest = data.get("job")
        if not digest:
            continue
        if record["type"] in ("claim", "reclaim"):
            last_grant[digest] = record["time"]
        elif record["type"] == "complete" and digest in last_grant:
            durations.append(max(0.0, record["time"] - last_grant[digest]))
    remaining = counts.get("pending", 0) + counts.get("running", 0)
    if not durations or remaining == 0:
        return 0.0 if remaining == 0 else None
    average = sum(durations) / len(durations)
    return average * remaining / max(1, live_workers)


# ------------------------------------------------------------- aggregation

def aggregate_results(campaign: Campaign
                      ) -> Tuple[Dict[str, RunResult], StatGroup]:
    """Load every completed job's :class:`RunResult` from the cache and
    merge their stats registries into one campaign-wide tree.

    Raises :class:`KeyError`-free: jobs whose payload is missing or fails
    its checksum are simply skipped (they will rerun on resume), so
    aggregation over a damaged cache degrades instead of crashing.
    """
    logs = JournalTail(campaign.journal_path).poll().logs
    results: Dict[str, RunResult] = {}
    for digest in campaign.jobs:
        log = logs.get(digest)
        if log is None or not log.completes:
            continue
        path = campaign.result_path(digest)
        if not path.exists():
            continue
        status, payload = runner._read_payload(path)
        if status != "ok":
            continue
        results[digest] = RunResult.from_dict(payload["result"])
    merged = StatGroup.merged(
        (result.stats for result in results.values()), name="campaign")
    return results, merged


# --------------------------------------------------------------- rendering

def render_status(status: CampaignStatus) -> str:
    """Human-readable status block (summary + failures + quarantine)."""
    lines = [
        f"campaign {status.campaign_id}: "
        + ", ".join(f"{status.counts.get(state, 0)} {state}"
                    for state in STATE_ORDER)
        + f" (of {status.total})"
    ]
    if status.live_workers:
        lines.append(f"live workers: {status.live_workers}")
    if status.eta_seconds is not None:
        lines.append(f"eta: {status.eta_seconds:.0f}s"
                     if status.eta_seconds else "eta: done")
    if status.journal_corrupt:
        lines.append(f"journal: {status.journal_corrupt} corrupt record(s) "
                     "skipped")
    rows = []
    for job in status.jobs:
        if job.state == "done" and not job.failures:
            continue  # keep the table focused on work left / trouble seen
        rows.append([job.abbr, job.model, job.digest[:12], job.state,
                     job.attempts, job.worker or "-",
                     job.failures[-1]["error"][:40] if job.failures else "-"])
    if rows:
        lines.append(format_table(
            ["abbr", "model", "digest", "state", "attempts", "worker",
             "last failure"],
            rows, title="jobs needing attention"))
    return "\n".join(lines)
