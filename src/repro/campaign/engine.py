"""Campaign engine: durable job graph, leased workers, chaos-safe resume.

A **campaign** is one durable directory under the content-addressed result
cache::

    <cache>/campaign/<id>/
        campaign.json       # materialized job graph (atomic write, immutable)
        journal.jsonl       # append-only event log (claims, completes, ...)
        leases/<digest>.json# live worker claims with TTL + heartbeats
        workers/<wid>.log   # per-worker subprocess output

``campaign.json`` freezes the matrix expansion into ``RunSpec`` digests, so
the job graph survives any coordinator death; everything that *happens* is
an append to the journal.  No state is ever rewritten in place — deriving
"where are we?" is a pure fold over (journal records, live leases, disk
cache), so a campaign killed at any instruction boundary is resumable by
simply running it again.

Workers are plain processes (``repro campaign work``) that share nothing
but the filesystem: they claim jobs through the lease protocol
(:mod:`repro.campaign.lease`), heartbeat while simulating, and publish
results through the existing harness disk cache.  A SIGKILLed worker's
lease expires and a survivor *reclaims* the job — resuming from the PR-5
checkpoint slot the victim left under ``<cache>/ckpt/`` instead of
restarting.  A job whose attempts (failures + reclaims) reach
``max_attempts`` is parked in **quarantine** with its failure records
rather than wedging the campaign.

The coordinator (:func:`run_campaign`) only spawns and replaces workers;
it holds no authoritative state and can itself be killed and rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import repro.harness.runner as runner
from repro.ckpt import atomic_write_text
from repro.campaign.journal import (MAX_ERROR_CHARS, JobLog, JournalTail,
                                    append_record)
from repro.campaign.lease import DEFAULT_TTL, Heartbeat, LeaseManager
from repro.campaign.spec import MatrixSpec
from repro.harness.runner import JobFailure, RunSpec

#: Bump when the campaign manifest layout changes incompatibly.  Version 2
#: dropped the checkpoint cadence from job digests: a version-1 manifest
#: names its jobs by digests no run publishes under any more.
CAMPAIGN_VERSION = 2

#: A job that costs this many attempts (worker deaths + raised errors)
#: is quarantined instead of being granted again.
DEFAULT_MAX_ATTEMPTS = 3

#: Default checkpoint cadence for campaign jobs (cycles); every job runs
#: with a checkpoint slot so reclaimed work resumes instead of restarting.
DEFAULT_CHECKPOINT_EVERY = 2000

#: Environment seam for tests and CI chaos: ``"window:<p>:<seed>"`` makes
#: a worker SIGKILL itself with probability ``p`` at any checkpoint write
#: in the first cadence window of a *fresh* run (a resumed run writes past
#: the window and always survives, so chaos terminates).
CHAOS_ENV = "REPRO_CAMPAIGN_CHAOS"

#: Environment seam: comma-separated benchmark abbrs whose simulation
#: raises inside campaign workers (poison-job / quarantine tests).
FAIL_ENV = "REPRO_CAMPAIGN_FAIL_ABBRS"


class CampaignError(RuntimeError):
    """A campaign directory is missing, malformed, or incompatible."""


def campaign_base(base: Optional[os.PathLike] = None) -> Path:
    """The campaign root under a result-cache directory."""
    root = Path(base) if base is not None else runner.cache_dir()
    if root is None:
        raise CampaignError(
            "campaigns need an on-disk cache (set REPRO_CACHE_DIR or pass "
            "a directory)")
    return root / "campaign"


def list_campaigns(base: Optional[os.PathLike] = None) -> List[str]:
    root = campaign_base(base)
    if not root.exists():
        return []
    return sorted(p.parent.name for p in root.glob("*/campaign.json"))


# ------------------------------------------------------------------ campaign

class Campaign:
    """Handle over one durable campaign directory."""

    def __init__(self, cache_base: Path, manifest: Dict) -> None:
        self.base = Path(cache_base)
        self.manifest = manifest
        self.id: str = manifest["id"]
        self.root = campaign_base(cache_base) / self.id
        self.jobs: Dict[str, RunSpec] = {
            entry["digest"]: RunSpec.from_dict(entry["spec"])
            for entry in manifest["jobs"]
        }

    # -- config views ------------------------------------------------------

    @property
    def matrix(self) -> MatrixSpec:
        if self.manifest.get("matrix") is None:
            raise CampaignError(
                f"campaign {self.id} is ad-hoc (built from explicit specs); "
                "it has no experiment matrix")
        return MatrixSpec.from_dict(self.manifest["matrix"])

    @property
    def ttl(self) -> float:
        return float(self.manifest["ttl"])

    @property
    def max_attempts(self) -> int:
        return int(self.manifest["max_attempts"])

    @property
    def checkpoint_every(self) -> Optional[int]:
        return self.manifest.get("checkpoint_every")

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def lease_manager(self, clock: Callable[[], float] = time.time
                      ) -> LeaseManager:
        return LeaseManager(self.root / "leases", ttl=self.ttl, clock=clock)

    def result_path(self, digest: str) -> Path:
        return self.base / digest[:2] / f"{digest}.json"

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, matrix: MatrixSpec,
               base: Optional[os.PathLike] = None,
               checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
               ttl: float = DEFAULT_TTL,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> "Campaign":
        """Materialize (or re-open) the campaign a matrix defines.

        Idempotent: the campaign id is the matrix digest, so creating the
        same matrix twice resumes the existing campaign — its stored
        manifest (including ``checkpoint_every`` / ``ttl`` /
        ``max_attempts``) wins, because live workers may already be
        honouring it.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            # Checked before the manifest exists: a stored cadence wins
            # over later flags, so a bad one would poison every job.
            raise CampaignError("checkpoint_every must be at least 1 cycle")
        return cls._materialize(base, matrix.campaign_id(), matrix.to_dict(),
                                matrix.expand(), checkpoint_every, ttl,
                                max_attempts)

    @classmethod
    def create_from_specs(cls, specs: Sequence[RunSpec],
                          base: Optional[os.PathLike] = None,
                          ttl: float = DEFAULT_TTL,
                          max_attempts: int = DEFAULT_MAX_ATTEMPTS
                          ) -> "Campaign":
        """Materialize (or re-open) an *ad-hoc* campaign from explicit specs.

        This is the programmatic enqueue path the serve API uses.  The
        campaign id is derived from the sorted job digests, so
        re-submitting the same spec set resumes the existing campaign
        instead of duplicating it.
        """
        if not specs:
            raise CampaignError("an ad-hoc campaign needs at least one spec")
        by_digest = {spec.digest(): spec for spec in specs}
        digests = sorted(by_digest)
        return cls._materialize(base, cls.adhoc_id(digests), None,
                                [by_digest[digest] for digest in digests],
                                None, ttl, max_attempts)

    @classmethod
    def _materialize(cls, base: Optional[os.PathLike], campaign_id: str,
                     matrix: Optional[Dict], specs: Sequence[RunSpec],
                     checkpoint_every: Optional[int], ttl: float,
                     max_attempts: int) -> "Campaign":
        """Write a new campaign's manifest, or open the one already there."""
        cache_root = Path(base) if base is not None else runner.cache_dir()
        if cache_root is None:
            raise CampaignError(
                "campaigns need an on-disk cache (set REPRO_CACHE_DIR or "
                "pass a directory)")
        manifest_path = campaign_base(cache_root) / campaign_id / "campaign.json"
        if manifest_path.exists():
            return cls.open(campaign_id, base=cache_root)
        manifest = {
            "version": CAMPAIGN_VERSION,
            "id": campaign_id,
            "matrix": matrix,
            "checkpoint_every": checkpoint_every,
            "ttl": ttl,
            "max_attempts": max_attempts,
            "jobs": [{"digest": spec.digest(), "spec": spec.to_dict()}
                     for spec in specs],
        }
        atomic_write_text(manifest_path,
                          json.dumps(manifest, sort_keys=True, indent=1))
        return cls(cache_root, manifest)

    @staticmethod
    def adhoc_id(digests: Sequence[str]) -> str:
        """The durable id an ad-hoc campaign over *digests* would get.

        Pure function of the sorted digest set — callers (the serve
        JobManager) use it to answer "is this spec set already known?"
        without materializing a campaign directory first.
        """
        ordered = sorted(digests)
        return ("adhoc-"
                + hashlib.sha256("\n".join(ordered).encode())
                .hexdigest()[:16])

    @classmethod
    def open(cls, campaign_id: str,
             base: Optional[os.PathLike] = None) -> "Campaign":
        cache_root = Path(base) if base is not None else runner.cache_dir()
        if cache_root is None:
            raise CampaignError("no cache directory (set REPRO_CACHE_DIR)")
        manifest_path = campaign_base(cache_root) / campaign_id / "campaign.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise CampaignError(
                f"no campaign {campaign_id!r} under {campaign_base(cache_root)} "
                f"(known: {', '.join(list_campaigns(cache_root)) or 'none'})"
            ) from None
        except (OSError, ValueError) as err:
            raise CampaignError(
                f"unreadable campaign manifest {manifest_path}: {err}"
            ) from None
        if manifest.get("version") != CAMPAIGN_VERSION:
            raise CampaignError(
                f"campaign {campaign_id} has manifest version "
                f"{manifest.get('version')!r}; this build speaks "
                f"{CAMPAIGN_VERSION}")
        return cls(cache_root, manifest)


# ------------------------------------------------------------- journal fold

def job_state(log: Optional[JobLog], leased: bool) -> str:
    """One job's state: ``done`` | ``quarantined`` | ``running`` | ``pending``."""
    if log is not None and log.completes:
        return "done"
    if log is not None and log.quarantined:
        return "quarantined"
    if leased:
        return "running"
    return "pending"


# ---------------------------------------------------------------- the worker

@dataclass
class WorkerSummary:
    """What one worker process accomplished before draining out."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    reclaimed: int = 0
    quarantined: int = 0
    #: Jobs finished locally but *not* published because the worker's
    #: lease had expired and been reclaimed mid-run (the reclaimer owns
    #: the publish; completing anyway would double-publish).
    abandoned: int = 0


def run_worker(campaign: Campaign, worker_id: str,
               backoff: float = 0.25, poll: float = 0.2,
               progress: Optional[Callable[[str], None]] = None,
               should_stop: Optional[Callable[[], bool]] = None
               ) -> WorkerSummary:
    """Claim-and-run jobs until every campaign job is done or quarantined.

    Runs in-process (tests call it directly); ``repro campaign work``
    wraps it for the subprocess backend.  Each simulation runs under the
    job's lease, so the scheduler's claim is the only cross-worker dedup.

    *should_stop*, checked between jobs, lets an embedding process (the
    serve JobManager draining on SIGTERM) wind the worker down at a job
    boundary — always checkpoint-safe, since unfinished jobs stay leased
    or pending in the durable campaign and any process can resume them.
    """
    manager = campaign.lease_manager()
    summary = WorkerSummary(worker_id)
    journal = JournalTail(campaign.journal_path)
    while True:
        if should_stop is not None and should_stop():
            return summary
        logs = journal.poll().logs
        live = {lease.job for lease in manager.live()}
        states = {digest: job_state(logs.get(digest), digest in live)
                  for digest in campaign.jobs}
        if all(state in ("done", "quarantined")
               for state in states.values()):
            return summary
        if not _claim_and_run(campaign, manager, logs, states, worker_id,
                              backoff, summary, progress):
            # Everything unfinished is held by live siblings: wait for
            # a completion or an expiry worth reclaiming.
            time.sleep(poll)


def _claim_and_run(campaign: Campaign, manager: LeaseManager,
                   logs: Dict[str, JobLog], states: Dict[str, str],
                   worker_id: str, backoff: float, summary: WorkerSummary,
                   progress: Optional[Callable[[str], None]]) -> bool:
    """Try one job: claim, simulate, journal the outcome.  False = nothing
    claimable this pass."""
    for digest, spec in campaign.jobs.items():
        if states[digest] not in ("pending", "running"):
            continue
        log = logs.get(digest)
        attempts = log.attempts_consumed if log is not None else 0
        if attempts >= campaign.max_attempts:
            # Poison job: park it (once) with its failure history intact.
            if not (log is not None and log.quarantined):
                append_record(campaign.journal_path, "quarantine",
                              {"job": digest, "worker": worker_id,
                               "attempts": attempts})
                summary.quarantined += 1
                if progress is not None:
                    progress(f"{worker_id}: quarantined {spec.abbr}/"
                             f"{spec.model} after {attempts} attempts")
            continue
        lease = manager.claim(digest, worker_id, attempts + 1)
        if lease is None:
            continue  # live holder (possibly granted since our scan)
        if lease.reclaimed_from:
            summary.reclaimed += 1
            append_record(campaign.journal_path, "reclaim",
                          {"job": digest, "worker": worker_id,
                           "attempt": lease.attempt,
                           "dead_owner": lease.reclaimed_from})
        else:
            append_record(campaign.journal_path, "claim",
                          {"job": digest, "worker": worker_id,
                           "attempt": lease.attempt})
        _execute_job(campaign, manager, digest, spec, lease.attempt,
                     worker_id, backoff, summary, progress)
        return True
    return False


def _execute_job(campaign: Campaign, manager: LeaseManager, digest: str,
                 spec: RunSpec, attempt: int, worker_id: str, backoff: float,
                 summary: WorkerSummary,
                 progress: Optional[Callable[[str], None]]) -> None:
    resumed: List[int] = []
    with Heartbeat(manager, digest, worker_id) as heartbeat:
        try:
            runner._obtain_result(spec, campaign.checkpoint_every, resumed)
        except Exception as err:  # noqa: BLE001 - journalled per job
            failure = JobFailure(
                spec=spec, digest=digest, kind="error",
                error=f"{type(err).__name__}: {err}"[:MAX_ERROR_CHARS],
                attempts=attempt)
            append_record(campaign.journal_path, "failed",
                          {"job": digest, "worker": worker_id,
                           "attempt": attempt,
                           "failure": failure.to_dict()})
            summary.failed += 1
            manager.release(digest, worker_id)
            if progress is not None:
                progress(f"{worker_id}: {spec.abbr}/{spec.model} failed "
                         f"(attempt {attempt}): {failure.error}")
            time.sleep(runner._retry_delay(backoff, attempt - 1))
            return
    if heartbeat.lost:
        # The lease expired and may already be reclaimed: the reclaimer
        # owns this attempt's publish now.  Journalling "complete" here
        # would double-publish the job (two workers both claiming the
        # authoritative completion for one attempt stream), so record the
        # abandonment instead and let the owner finish.  The simulation
        # itself is not wasted — the content-addressed cache write is
        # idempotent, so the reclaimer's lookup hits immediately.
        append_record(campaign.journal_path, "abandoned",
                      {"job": digest, "worker": worker_id,
                       "attempt": attempt})
        summary.abandoned += 1
        manager.release(digest, worker_id)  # no-op if reclaimed already
        if progress is not None:
            progress(f"{worker_id}: {spec.abbr}/{spec.model} abandoned "
                     f"(lease lost mid-run, attempt {attempt})")
        return
    result = runner._RESULT_CACHE[spec][0]
    # The cycle the simulation really resumed from: 0 on a cache hit, a
    # fresh start, or a slot it refused or dropped.
    resumed_from = max(resumed, default=0)
    append_record(campaign.journal_path, "complete",
                  {"job": digest, "worker": worker_id, "attempt": attempt,
                   "cycles": result.cycles,
                   "resumed_from_cycle": resumed_from})
    summary.completed += 1
    manager.release(digest, worker_id)
    if progress is not None:
        progress(f"{worker_id}: {spec.abbr}/{spec.model} done "
                 f"({result.cycles} cycles"
                 + (f", resumed from {resumed_from}" if resumed_from else "")
                 + ")")


def worker_main(base: os.PathLike, campaign_id: str, worker_id: str,
                chaos: Optional[str] = None) -> int:
    """Entry point of one worker process (``repro campaign work``)."""
    runner.set_cache_dir(base)
    campaign = Campaign.open(campaign_id, base=base)
    chaos = chaos or os.environ.get(CHAOS_ENV)
    if chaos:
        _install_chaos(chaos, worker_id, campaign.checkpoint_every)
    fail_abbrs = [abbr for abbr in
                  os.environ.get(FAIL_ENV, "").split(",") if abbr]
    if fail_abbrs:
        def _poison(spec: RunSpec) -> None:
            if spec.abbr in fail_abbrs:
                raise RuntimeError(f"injected campaign failure ({spec.abbr})")
        runner._TEST_HOOK = _poison
    summary = run_worker(campaign, worker_id)
    print(f"{worker_id}: drained — {summary.completed} completed, "
          f"{summary.failed} failed, {summary.reclaimed} reclaimed, "
          f"{summary.quarantined} quarantined")
    return 0


def _install_chaos(chaos: str, worker_id: str,
                   checkpoint_every: Optional[int]) -> None:
    """Arm the checkpoint-write SIGKILL hook (see :data:`CHAOS_ENV`)."""
    import repro.ckpt.snapshot as snapshot

    try:
        kind, prob, seed = chaos.split(":")
        prob = float(prob)
    except ValueError:
        raise CampaignError(
            f"malformed chaos spec {chaos!r} (want 'window:<p>:<seed>')"
        ) from None
    if kind != "window":
        raise CampaignError(f"unknown chaos kind {kind!r}")
    rng = random.Random(f"{seed}:{worker_id}")
    # Fresh runs write their first checkpoint inside [cadence, 2*cadence)
    # (idle skipping can push past the exact cadence cycle); a resumed run
    # writes at >= 2*cadence.  Killing only inside the window therefore
    # guarantees chaos converges: every job survives once it has a slot.
    limit = 2 * (checkpoint_every or 0)

    def _kill(cycle: int, _path) -> None:
        if cycle < limit and rng.random() < prob:
            os.kill(os.getpid(), signal.SIGKILL)

    snapshot._TEST_HOOK = _kill


# ------------------------------------------------------------- backends

class LocalBackend:
    """Spawn workers as local subprocesses (stdout to per-worker logs)."""

    def spawn(self, campaign: Campaign, worker_id: str,
              chaos: Optional[str] = None) -> subprocess.Popen:
        argv = worker_argv(campaign, worker_id, chaos=chaos)
        log_dir = campaign.root / "workers"
        log_dir.mkdir(parents=True, exist_ok=True)
        log = open(log_dir / f"{worker_id}.log", "ab")
        try:
            return subprocess.Popen(argv, env=_worker_env(),
                                    stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()


def worker_argv(campaign: Campaign, worker_id: str,
                chaos: Optional[str] = None) -> List[str]:
    argv = [sys.executable, "-m", "repro", "campaign", "work",
            "--dir", str(campaign.base), "--id", campaign.id,
            "--worker-id", worker_id]
    if chaos:
        argv += ["--chaos", chaos]
    return argv


def _worker_env() -> Dict[str, str]:
    """Subprocess env with the repro package importable."""
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    return env


# ----------------------------------------------------------- the coordinator

@dataclass
class CampaignRunReport:
    """Outcome of one :func:`run_campaign` coordination pass."""

    campaign_id: str
    complete: bool
    done: int
    quarantined: int
    total: int
    #: Workers spawned beyond the initial fleet (each one replaced a
    #: worker that died — SIGKILL, crash — before the campaign finished).
    respawns: int = 0
    #: How many worker processes exited on a signal (negative returncode).
    worker_kills: int = 0


def campaign_complete(campaign: Campaign,
                      journal: Optional[JournalTail] = None) -> bool:
    """Whether every job is done or quarantined.  Pass the same *journal*
    tail to repeated calls so each reads only what was appended since."""
    logs = (journal or JournalTail(campaign.journal_path)).poll().logs
    return all(
        job_state(logs.get(digest), leased=False) in ("done", "quarantined")
        for digest in campaign.jobs)


def run_campaign(campaign: Campaign, workers: int = 2,
                 chaos: Optional[str] = None,
                 backend: Optional[LocalBackend] = None,
                 poll: float = 0.25,
                 max_respawns: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignRunReport:
    """Drive a worker fleet until the campaign converges.

    The coordinator is stateless: it spawns ``workers`` processes,
    replaces any that die before the job graph is drained, and returns
    when every job is done or quarantined.  Killing the coordinator
    mid-run loses nothing — rerunning it (or ``repro campaign resume``)
    picks up from the journal.
    """
    backend = backend or LocalBackend()
    if max_respawns is None:
        # Generous ceiling: every job may burn its full attempt budget,
        # each costing one worker; past that something is structurally
        # wrong and respawning would loop forever.
        max_respawns = workers + len(campaign.jobs) * campaign.max_attempts
    generation = 0
    respawns = 0
    kills = 0
    fleet: Dict[str, subprocess.Popen] = {}
    journal = JournalTail(campaign.journal_path)
    for index in range(max(1, workers)):
        worker_id = f"w{index}"
        fleet[worker_id] = backend.spawn(campaign, worker_id, chaos=chaos)
    try:
        while True:
            done = campaign_complete(campaign, journal)
            for worker_id, proc in list(fleet.items()):
                code = proc.poll()
                if code is None:
                    continue
                del fleet[worker_id]
                if code < 0:
                    kills += 1
                if done or code == 0:
                    continue
                if respawns >= max_respawns:
                    raise CampaignError(
                        f"campaign {campaign.id}: {respawns} worker "
                        "respawns without convergence — giving up (see "
                        f"{campaign.root / 'workers'} logs)")
                generation += 1
                respawns += 1
                replacement = f"{worker_id.split('.')[0]}.g{generation}"
                if progress is not None:
                    progress(f"worker {worker_id} died (exit {code}); "
                             f"respawning as {replacement}")
                fleet[replacement] = backend.spawn(campaign, replacement,
                                                   chaos=chaos)
            if not fleet:
                if campaign_complete(campaign, journal):
                    break
                # Every worker drained out (exit 0) yet jobs remain — a
                # stale live lease from a dead external worker; one more
                # worker will reclaim it after expiry.
                generation += 1
                respawns += 1
                if respawns > max_respawns:
                    raise CampaignError(
                        f"campaign {campaign.id} cannot converge")
                worker_id = f"w0.g{generation}"
                fleet[worker_id] = backend.spawn(campaign, worker_id,
                                                 chaos=chaos)
            time.sleep(poll)
    finally:
        for proc in fleet.values():
            proc.terminate()
        for proc in fleet.values():
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
    logs = journal.poll().logs
    states = [job_state(logs.get(d), leased=False) for d in campaign.jobs]
    return CampaignRunReport(
        campaign_id=campaign.id,
        complete=all(s in ("done", "quarantined") for s in states),
        done=states.count("done"),
        quarantined=states.count("quarantined"),
        total=len(states),
        respawns=respawns,
        worker_kills=kills,
    )
