"""Run benchmarks against design points: memoised, parallel, and disk-cached.

Experiments repeatedly need the same (benchmark, model) run — e.g. Base
appears as the normalisation baseline in most figures — so completed runs
are cached at three levels:

* an in-process **result memo** keyed by the full simulation
  parameterisation (:class:`RunSpec`);
* an in-process **run memo** additionally keyed by the energy parameters,
  so two calls differing only in :class:`EnergyParams` share the simulation
  but never an :class:`EnergyReport`;
* an optional **on-disk cache** of serialized results, content-addressed by
  the SHA-256 digest of the simulation parameterisation (spec + cache
  format version), enabled by setting ``REPRO_CACHE_DIR`` or calling
  :func:`set_cache_dir`.  A payload holds no energy, so every
  :class:`EnergyParams` reads the same entry.  A warm cache lets repeated
  figure sweeps and pytest benches skip simulation entirely.

:func:`prefetch` (and :func:`run_suite` with ``jobs=N``) farms missing
simulations out to a ``multiprocessing`` pool; workers return serialized
results, so parallel sweeps are bit-identical to serial ones.

The harness is crash-proof: a worker that raises, or hangs past the
per-job ``timeout``, is recorded as a :class:`JobFailure` naming the
failing :class:`RunSpec` (a poison-pill job can never wedge the pool or
poison the suite), optionally retried with exponential backoff, and the
rest of the suite completes.  Disk-cache payloads carry a format version
and a content checksum, so truncated or bit-rotted entries are detected,
deleted, and transparently re-simulated; :func:`verify_cache_dir` audits
(and optionally prunes) a cache directory wholesale.

The experiment default of 2 SMs (instead of Table II's 15) keeps full-suite
sweeps laptop-fast and raises per-SM occupancy at our small grid sizes
(latency hiding depends on resident warps per SM, not on the SM count);
per-SM statistics and all model-relative comparisons are unaffected by the
SM count, and it can be overridden per run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.ckpt import (CheckpointError, atomic_write_text, canonical_sha256,
                        read_checkpoint)
from repro.core.models import model_config
from repro.energy import EnergyParams, EnergyReport, compute_energy
from repro.profiling import RedundancyProfile, RedundancyProfiler
from repro.sim.gpu import GPU, KernelLaunch, RunResult
from repro.stats import dataclass_to_dict
from repro.workloads import BuiltWorkload, build_workload

#: SM count used by the experiment drivers (see module docstring).
EXPERIMENT_SMS = 2

#: Bump when the serialized result layout or simulator behaviour changes in
#: a way that invalidates previously cached runs.  Format 2 added the
#: payload checksum and the ``checked`` spec field.
CACHE_FORMAT = 2

#: Version of the ``result`` dictionary layout inside a payload; bump when
#: :meth:`RunResult.to_dict` changes shape without invalidating old runs.
RESULT_SCHEMA = 1

#: Test seam: when set, called with the :class:`RunSpec` at the top of
#: every simulation — including inside forked pool workers, which inherit
#: it.  The harness failure tests install crashing / hanging behaviours.
_TEST_HOOK: Optional[Callable[["RunSpec"], None]] = None


# --------------------------------------------------------------------- specs

@dataclass(frozen=True)
class RunSpec:
    """The complete parameterisation of one simulation."""

    abbr: str
    model: str = "Base"
    scale: int = 1
    seed: int = 7
    num_sms: int = EXPERIMENT_SMS
    profile: bool = False
    #: Sorted (name, value) pairs of WIR config overrides.
    wir_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Run under the lockstep golden-model oracle (``repro.check``).
    checked: bool = False
    #: Collect per-cycle stall attribution (``sm*.stall.*``; ``repro.trace``).
    trace_stalls: bool = False

    @classmethod
    def make(
        cls,
        abbr: str,
        model: str = "Base",
        scale: int = 1,
        seed: int = 7,
        num_sms: int = EXPERIMENT_SMS,
        profile: bool = False,
        checked: bool = False,
        trace_stalls: bool = False,
        **wir_overrides,
    ) -> "RunSpec":
        return cls(abbr, model, scale, seed, num_sms, profile,
                   tuple(sorted(wir_overrides.items())), checked=checked,
                   trace_stalls=trace_stalls)

    def to_dict(self) -> Dict[str, object]:
        return {
            "abbr": self.abbr,
            "model": self.model,
            "scale": self.scale,
            "seed": self.seed,
            "num_sms": self.num_sms,
            "profile": self.profile,
            "wir_overrides": [
                [name, dataclass_to_dict(value)]
                for name, value in self.wir_overrides
            ],
            "checked": self.checked,
            "trace_stalls": self.trace_stalls,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        # Stored ``exec_engine`` and ``checkpoint_every`` keys (payloads,
        # journals and campaign files written when they were part of the
        # spec) are ignored: engines are bit-identical and cadence only
        # decides how a run survives, so neither named a different run.
        return cls(
            abbr=data["abbr"],
            model=data["model"],
            scale=data["scale"],
            seed=data["seed"],
            num_sms=data["num_sms"],
            profile=data["profile"],
            wir_overrides=tuple(
                (name, value) for name, value in data["wir_overrides"]
            ),
            checked=data.get("checked", False),
            trace_stalls=data.get("trace_stalls", False),
        )

    def digest(self) -> str:
        """Content address of this run's result."""
        payload = {
            "format": CACHE_FORMAT,
            "spec": self.to_dict(),
            # Energy is computed after a load, so it names no result; the
            # default key stays in the hash to keep every address stable.
            "energy": _DEFAULT_ENERGY_KEY,
        }
        return canonical_sha256(payload)


def _energy_key(params: Optional[EnergyParams]) -> Tuple:
    """Hashable identity of an energy parameterisation."""
    p = params if params is not None else EnergyParams()
    return tuple(sorted(dataclass_to_dict(p).items()))


_DEFAULT_ENERGY_KEY = _energy_key(None)


# ---------------------------------------------------------------- run object

@dataclass
class BenchmarkRun:
    """One completed (benchmark, model) simulation."""

    abbr: str
    model: str
    workload: BuiltWorkload
    result: RunResult
    energy: EnergyReport
    profile: Optional[RedundancyProfile] = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def reuse_fraction(self) -> float:
        return self.result.reuse_fraction


# ------------------------------------------------------------------- caching

#: spec -> (result, profile, workload-or-None).  The workload is the live,
#: verified post-run instance for in-process simulations and ``None`` for
#: results rehydrated from a worker or the disk cache.
_RESULT_CACHE: Dict[RunSpec, Tuple[RunResult, Optional[RedundancyProfile],
                                   Optional[BuiltWorkload]]] = {}

#: (spec, energy key) -> BenchmarkRun.  Keyed by the energy parameters too:
#: a second call with different ``EnergyParams`` must never see the first
#: call's ``EnergyReport``.
_RUN_CACHE: Dict[Tuple[RunSpec, Tuple], BenchmarkRun] = {}

#: spec -> default-parameter EnergyReport of its memoised result.
_ENERGY_CACHE: Dict[RunSpec, EnergyReport] = {}

#: Observable effort counters (tests and the CLI read these).
COUNTS = {"simulations": 0, "memo_hits": 0, "disk_hits": 0, "disk_writes": 0,
          "disk_corrupt": 0}


@dataclass(frozen=True)
class JobFailure:
    """One simulation job that failed permanently (after any retries).

    ``kind`` is ``"error"`` (the worker raised) or ``"timeout"`` (no result
    within the per-job deadline — which also covers a worker process that
    died without reporting back).  ``digest`` names the on-disk cache slot
    the result would have filled, so a failed job is fully identifiable
    from logs alone.
    """

    spec: RunSpec
    digest: str
    kind: str
    error: str
    attempts: int

    def __str__(self) -> str:
        return (f"{self.spec.abbr}/{self.spec.model} [{self.kind} after "
                f"{self.attempts} attempt(s), digest {self.digest[:12]}]: "
                f"{self.error}")

    def to_dict(self) -> Dict[str, object]:
        """JSON form for durable failure records (the campaign journal
        persists these so failure history survives the observing process)."""
        return {"spec": self.spec.to_dict(), "digest": self.digest,
                "kind": self.kind, "error": self.error,
                "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobFailure":
        return cls(spec=RunSpec.from_dict(data["spec"]),
                   digest=data["digest"], kind=data["kind"],
                   error=data["error"], attempts=data["attempts"])


class SuiteError(RuntimeError):
    """One or more suite jobs failed; carries the :class:`JobFailure` list."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        super().__init__(
            f"{len(failures)} suite job(s) failed:\n"
            + "\n".join(f"  - {failure}" for failure in failures))
        self.failures = list(failures)


_cache_dir: Optional[Path] = None
_cache_dir_from_env = False


def set_cache_dir(path: Optional[os.PathLike]) -> None:
    """Point the on-disk result cache at *path* (``None`` reverts to
    whatever ``REPRO_CACHE_DIR`` says, i.e. usually off)."""
    global _cache_dir, _cache_dir_from_env
    _cache_dir = Path(path) if path is not None else None
    _cache_dir_from_env = False


def cache_dir() -> Optional[Path]:
    """The active on-disk cache directory (``REPRO_CACHE_DIR`` by default)."""
    global _cache_dir, _cache_dir_from_env
    env = os.environ.get("REPRO_CACHE_DIR")
    if _cache_dir is None or _cache_dir_from_env:
        _cache_dir = Path(env) if env else None
        _cache_dir_from_env = True
    return _cache_dir


def clear_cache() -> None:
    """Drop the in-process memos (the on-disk cache is left alone)."""
    _RESULT_CACHE.clear()
    _RUN_CACHE.clear()
    _ENERGY_CACHE.clear()


def _cache_path(digest: str) -> Optional[Path]:
    base = cache_dir()
    if base is None:
        return None
    return base / digest[:2] / f"{digest}.json"


def _payload_from(spec: RunSpec, result: RunResult,
                  profile: Optional[RedundancyProfile]) -> Dict[str, object]:
    payload = {
        "format": CACHE_FORMAT,
        "schema": RESULT_SCHEMA,
        "spec": spec.to_dict(),
        "result": result.to_dict(),
        "profile": dataclasses.asdict(profile) if profile is not None else None,
    }
    payload["checksum"] = canonical_sha256(payload)
    return payload


def _rehydrate(payload: Dict[str, object]) -> Tuple[RunResult,
                                                    Optional[RedundancyProfile]]:
    result = RunResult.from_dict(payload["result"])
    profile = (RedundancyProfile(**payload["profile"])
               if payload.get("profile") is not None else None)
    return result, profile


def _read_payload(path: Path) -> Tuple[str, Optional[Dict[str, object]]]:
    """Classify one cache file: ``("ok", payload)``, ``("version", None)``
    for a format we no longer speak (left alone), or ``("corrupt", None)``
    for truncated / bit-rotted / checksum-mismatched content."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return "corrupt", None
    if not isinstance(payload, dict):
        return "corrupt", None
    if payload.get("format") != CACHE_FORMAT:
        return "version", None
    if payload.get("checksum") != canonical_sha256(payload, omit="checksum"):
        return "corrupt", None
    return "ok", payload


def _unlink(path: Path) -> bool:
    """Delete *path*; whether it is gone now (an error just leaves it)."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _disk_load(spec: RunSpec) -> Optional[Dict[str, object]]:
    path = _cache_path(spec.digest())
    if path is None or not path.exists():
        return None
    status, payload = _read_payload(path)
    if status == "ok":
        COUNTS["disk_hits"] += 1
        return payload
    if status == "corrupt":
        # A damaged entry must never masquerade as a result: drop it and
        # let the caller re-simulate into a fresh slot.
        COUNTS["disk_corrupt"] += 1
        _unlink(path)
    return None


def lookup_result(spec: RunSpec) -> Optional[Tuple[RunResult,
                                                  Optional[RedundancyProfile]]]:
    """Answer *spec* from the memo or the disk cache — never simulate.

    This is the read-only entry point the serve API answers cache hits
    through: a ``None`` return means "someone must simulate", which the
    caller turns into a 202 + background job rather than blocking an
    event loop on a simulation.  Hits are memoised like any other load.
    """
    cached = _RESULT_CACHE.get(spec)
    if cached is not None:
        COUNTS["memo_hits"] += 1
        return cached[0], cached[1]
    payload = _disk_load(spec)
    if payload is None:
        return None
    result, profile = _rehydrate(payload)
    _RESULT_CACHE[spec] = (result, profile, None)
    return result, profile


def default_energy(spec: RunSpec, result: RunResult) -> EnergyReport:
    """``compute_energy(result)`` for *spec*'s memoised *result*, computed
    once per spec (serve answers every cache hit with it)."""
    report = _ENERGY_CACHE.get(spec)
    if report is None:
        report = _ENERGY_CACHE[spec] = compute_energy(result)
    return report


def _disk_store(spec: RunSpec, payload: Dict[str, object]) -> None:
    path = _cache_path(spec.digest())
    if path is None:
        return
    # Unique per-process temp name: two workers (or a worker and a retry of
    # the same spec) racing on one slot must never interleave writes into a
    # shared ".tmp" file; each publishes atomically via os.replace.
    atomic_write_text(path, json.dumps(payload, sort_keys=True))
    COUNTS["disk_writes"] += 1


def _ckpt_path(spec: RunSpec) -> Optional[Path]:
    """Checkpoint slot for one run, next to the result cache."""
    base = cache_dir()
    if base is None:
        return None
    return base / "ckpt" / f"{spec.digest()}.ckpt.json"


#: ``*.tmp`` files younger than this are presumed to belong to a live
#: writer and are never treated as orphans by :func:`verify_cache_dir`.
TMP_GRACE_SECONDS = 60.0


@dataclass
class CacheReport:
    """Outcome of a :func:`verify_cache_dir` audit."""

    total: int = 0
    ok: int = 0
    corrupt: int = 0
    version_mismatch: int = 0
    pruned: int = 0
    corrupt_paths: List[str] = field(default_factory=list)
    #: Valid payloads filed under a digest their own spec no longer
    #: hashes to (written when cadence or energy was part of the
    #: address): no lookup can ever reach them.
    unaddressable: int = 0
    unaddressable_pruned: int = 0
    #: Orphaned ``*.tmp`` files (killed mid-write) found under the cache.
    tmp_orphans: int = 0
    tmp_pruned: int = 0
    #: ``*.tmp`` files younger than :data:`TMP_GRACE_SECONDS` — presumed
    #: to belong to a live writer (e.g. a serving process mid-publish),
    #: so never counted as orphans or pruned.
    tmp_fresh: int = 0
    #: Checkpoint slots whose run already completed (result present) or
    #: whose container no longer verifies — dead weight either way.
    ckpt_orphans: int = 0
    ckpt_pruned: int = 0
    #: Checkpoint slots skipped because a live campaign lease proves some
    #: worker is (or may be) using them right now.
    ckpt_leased: int = 0
    #: Expired (or undecodable) campaign lease files; their workers are
    #: gone and any claimant would break them anyway.
    lease_expired: int = 0
    lease_pruned: int = 0


def verify_cache_dir(base: Optional[os.PathLike] = None,
                     prune: bool = False) -> CacheReport:
    """Audit every entry of an on-disk result cache.

    Checks each ``*.json`` payload's parseability, format version,
    content checksum, and that its spec still hashes to its file name.
    With ``prune=True`` corrupt and unaddressable entries are deleted
    (version-mismatched entries are always left alone — an older tool may
    still want them).  Also swept: orphaned ``*.tmp`` files (half-written
    payloads, checkpoints, or lease tombstones abandoned by killed
    workers), checkpoint slots under ``<cache>/ckpt/`` whose result
    already exists or whose container fails verification, and expired
    campaign lease files under ``<cache>/campaign/*/leases/`` — all
    counted always, deleted under ``prune=True``.  Defaults to the active
    :func:`cache_dir`.
    """
    root = Path(base) if base is not None else cache_dir()
    report = CacheReport()
    if root is None or not root.exists():
        return report
    now = time.time()
    for path in sorted(root.glob("*/*.json")):
        if path.parent.name in ("ckpt", "campaign"):
            continue  # not result entries; audited separately below
        report.total += 1
        status, payload = _read_payload(path)
        if status == "ok" and not _addressable(payload, path.stem):
            report.unaddressable += 1
            if prune and _unlink(path):
                report.unaddressable_pruned += 1
        elif status == "ok":
            report.ok += 1
        elif status == "version":
            report.version_mismatch += 1
        else:
            report.corrupt += 1
            report.corrupt_paths.append(str(path))
            if prune and _unlink(path):
                report.pruned += 1
    for path in sorted(root.rglob("*.tmp")):
        # A young temp file may be a live writer mid-publish (a serving
        # process, a campaign worker): deleting it would race the final
        # os.replace.  Only debris older than the grace window is swept.
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue  # vanished: its writer just published
        if age < TMP_GRACE_SECONDS:
            report.tmp_fresh += 1
            continue
        report.tmp_orphans += 1
        if prune and _unlink(path):
            report.tmp_pruned += 1
    _sweep_ckpt_slots(root, report, prune, now)
    _sweep_leases(root, report, prune, now)
    return report


def _addressable(payload: Dict[str, object], digest: str) -> bool:
    """Whether *payload*'s own spec hashes to the *digest* it is filed
    under."""
    try:
        return RunSpec.from_dict(payload["spec"]).digest() == digest
    except (KeyError, TypeError):
        return False  # no spec at all: nothing can address it


def _live_lease_jobs(root: Path, now: float) -> set:
    """Job digests currently held by a live (unexpired) campaign lease."""
    live = set()
    for path in root.glob("campaign/*/leases/*.json"):
        try:
            lease = json.loads(path.read_text())
            if float(lease["expires"]) > now:
                live.add(str(lease["job"]))
        except (OSError, ValueError, KeyError, TypeError):
            continue  # undecodable: not provably live
    return live


def _sweep_ckpt_slots(root: Path, report: CacheReport, prune: bool,
                      now: float) -> None:
    """Count (and optionally delete) checkpoint slots that can never help:
    the run already has a verified result, or the container is damaged.
    Slots whose digest is held by a live campaign lease are off-limits —
    the leaseholder may be about to read or rewrite them."""
    from repro.ckpt import CheckpointError, read_checkpoint

    leased = _live_lease_jobs(root, now)
    for path in sorted((root / "ckpt").glob("*.ckpt.json")):
        digest = path.name[: -len(".ckpt.json")]
        if digest in leased:
            report.ckpt_leased += 1
            continue
        result_path = root / digest[:2] / f"{digest}.json"
        orphaned = False
        if result_path.exists() and _read_payload(result_path)[0] == "ok":
            orphaned = True  # run finished; the slot is spent
        else:
            try:
                read_checkpoint(path)
            except CheckpointError:
                orphaned = True  # unreadable: worth nothing on resume
        if orphaned:
            report.ckpt_orphans += 1
            if prune and _unlink(path):
                report.ckpt_pruned += 1


def _sweep_leases(root: Path, report: CacheReport, prune: bool,
                  now: float) -> None:
    """Count (and optionally delete) expired or undecodable lease files."""
    for path in sorted(root.glob("campaign/*/leases/*.json")):
        try:
            lease = json.loads(path.read_text())
            expired = float(lease["expires"]) <= now
        except (OSError, ValueError, KeyError, TypeError):
            expired = True  # cannot prove liveness: safe to break
        if expired:
            report.lease_expired += 1
            if prune and _unlink(path):
                report.lease_pruned += 1


# ---------------------------------------------------------------- simulation

def _simulate(spec: RunSpec, checkpoint_every: Optional[int] = None,
              resumed_from: Optional[List[int]] = None
              ) -> Tuple[RunResult, Optional[RedundancyProfile],
                         BuiltWorkload]:
    """Run one simulation in this process (no caching).

    ``checkpoint_every`` snapshots the run every N cycles into its slot
    next to the result cache, and resumes from a slot a killed attempt
    left there.  It changes how the run survives, never what it computes,
    so it is not part of *spec*.  *resumed_from*, when given, is appended
    the cycle the run actually resumed from (0 when it started fresh,
    including after refusing or dropping the slot).
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1 cycle")
    if _TEST_HOOK is not None:
        _TEST_HOOK(spec)
    COUNTS["simulations"] += 1
    config = model_config(spec.model, **dict(spec.wir_overrides))
    config.num_sms = spec.num_sms
    config.trace.stalls = spec.trace_stalls
    workload = build_workload(spec.abbr, scale=spec.scale, seed=spec.seed)

    profilers: List[RedundancyProfiler] = []
    factory = None
    if spec.profile:
        def factory():  # noqa: E306 - small closure
            p = RedundancyProfiler()
            profilers.append(p)
            return p

    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    if spec.checked:
        from repro.check.oracle import CheckedGPU
        gpu = CheckedGPU(config, profiler_factory=factory,
                         benchmark=spec.abbr)
    else:
        gpu = GPU(config, profiler_factory=factory)

    ckpt_path = _ckpt_path(spec) if checkpoint_every is not None else None
    resume = None
    if ckpt_path is not None:
        gpu.checkpoint_every = checkpoint_every
        gpu.checkpoint_path = ckpt_path
        gpu.checkpoint_meta_extra = {
            "workload": {"abbr": spec.abbr, "scale": spec.scale,
                         "seed": spec.seed},
        }
        if ckpt_path.exists():
            try:
                ckpt = read_checkpoint(ckpt_path)
            except CheckpointError:
                # A damaged checkpoint is worth exactly nothing: drop it
                # and restart from cycle 0.
                ckpt = None
                _unlink(ckpt_path)
            if ckpt is not None and ckpt["meta"] == gpu.checkpoint_meta(launch):
                resume = ckpt["state"]

    try:
        result = gpu.run(launch, resume=resume)
    except CheckpointError:
        if resume is None:
            raise
        # The slot's memory delta was taken against another launch image.
        # The refusal came before the image was touched: restart from 0.
        resume = None
        result = gpu.run(launch)
    if resumed_from is not None:
        resumed_from.append(resume["cycle"] if resume is not None else 0)
    workload.verify()
    if ckpt_path is not None:
        # The run completed; its checkpoint slot is spent.
        _unlink(ckpt_path)

    merged: Optional[RedundancyProfile] = None
    if profilers:
        merged = profilers[0].profile
        for p in profilers[1:]:
            merged = merged.merge(p.profile)
    return result, merged, workload


def _worker(conn, spec_data: Dict[str, object],
            checkpoint_every: Optional[int]) -> None:
    """Job process: simulate one spec and send ``("ok", payload)`` or
    ``("error", text)`` back over *conn*."""
    try:
        spec = RunSpec.from_dict(spec_data)
        result, profile, _ = _simulate(spec, checkpoint_every)
        message = ("ok", _payload_from(spec, result, profile))
    except Exception as err:  # noqa: BLE001 - reported per spec
        message = ("error", f"{type(err).__name__}: {err}")
    conn.send(message)


def _obtain_result(
    spec: RunSpec, checkpoint_every: Optional[int] = None,
    resumed_from: Optional[List[int]] = None,
) -> Tuple[RunResult, Optional[RedundancyProfile], Optional[BuiltWorkload]]:
    """Result memo -> disk cache -> fresh simulation, in that order.

    *resumed_from* is as for :func:`_simulate` (left empty on a hit)."""
    cached = _RESULT_CACHE.get(spec)
    if cached is not None:
        COUNTS["memo_hits"] += 1
        return cached

    payload = _disk_load(spec)
    if payload is not None:
        result, profile = _rehydrate(payload)
        entry = (result, profile, None)
    else:
        result, profile, workload = _simulate(spec, checkpoint_every,
                                              resumed_from)
        _disk_store(spec, _payload_from(spec, result, profile))
        entry = (result, profile, workload)
    _RESULT_CACHE[spec] = entry
    return entry


# ------------------------------------------------------------------ frontend

def run_benchmark(
    abbr: str,
    model: str = "Base",
    scale: int = 1,
    seed: int = 7,
    num_sms: int = EXPERIMENT_SMS,
    profile: bool = False,
    checked: bool = False,
    trace_stalls: bool = False,
    energy_params: Optional[EnergyParams] = None,
    checkpoint_every: Optional[int] = None,
    **wir_overrides,
) -> BenchmarkRun:
    """Simulate one benchmark under one design point (memoised).

    ``wir_overrides`` tweak the model's WIR config, e.g.
    ``run_benchmark("SF", "RLPV", reuse_buffer_entries=512)``.
    ``checked=True`` referees the run against the lockstep golden model
    (raising :class:`repro.check.DivergenceError` on any disagreement).
    ``checkpoint_every=N`` snapshots a simulated run every N cycles (needs
    an on-disk cache dir); it is not part of the run's identity.
    """
    spec = RunSpec.make(abbr, model, scale=scale, seed=seed, num_sms=num_sms,
                        profile=profile, checked=checked,
                        trace_stalls=trace_stalls, **wir_overrides)
    run_key = (spec, _energy_key(energy_params))
    run = _RUN_CACHE.get(run_key)
    if run is not None:
        return run

    result, merged_profile, workload = _obtain_result(spec, checkpoint_every)
    if workload is None:
        # Rehydrated result: rebuild the (pre-run) workload so callers can
        # still reach the program and launch geometry.
        workload = build_workload(abbr, scale=scale, seed=seed)

    run = BenchmarkRun(
        abbr=abbr,
        model=model,
        workload=workload,
        result=result,
        energy=compute_energy(result, energy_params),
        profile=merged_profile,
    )
    _RUN_CACHE[run_key] = run
    return run


def _failure(spec: RunSpec, kind: str, error: str,
             attempts: int) -> JobFailure:
    return JobFailure(spec=spec, digest=spec.digest(),
                      kind=kind, error=error, attempts=attempts)


#: Ceiling on a single retry sleep, whatever the attempt count.
MAX_RETRY_WAIT = 30.0


def _retry_delay(backoff: float, attempt: int,
                 rng: "random.Random" = random) -> float:
    """Seconds before a retry: exponential backoff with **full jitter**.

    The wait is drawn uniformly from ``[0, backoff * 2**attempt]`` (capped
    at :data:`MAX_RETRY_WAIT`) instead of being the deterministic
    ``backoff * 2**attempt``: a batch of workers that all failed at the
    same moment (shared cache blip, campaign worker wave) would otherwise
    retry in lockstep and hammer the cache directory again together.
    """
    if backoff <= 0:
        return 0.0  # the rng is not even drawn
    return rng.uniform(0.0, min(backoff * (2 ** attempt), MAX_RETRY_WAIT))


def _parallel_simulate(missing: Sequence[RunSpec], jobs: int,
                       timeout: Optional[float], retries: int, backoff: float,
                       checkpoint_every: Optional[int]) -> List[JobFailure]:
    """Simulate *missing* specs, one forked process per job, keeping up to
    *jobs* of them running.

    Work-conserving: the moment a job ends the next queued spec starts, so
    a slow job never idles the other slots.  ``timeout`` bounds each job's
    wall clock from its own start; a job past it is killed.  A worker that
    raises surfaces as an ``"error"`` failure; one that hangs, or dies
    without reporting (its pipe ends with no message: SIGKILL, OOM), as a
    ``"timeout"``, the latter at once.  A failed spec is re-queued up to
    *retries* times, not before its own jittered backoff, which holds no
    slot.  No job process outlives this call.
    """
    from multiprocessing.connection import wait

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
    inf = float("inf")
    failures: List[JobFailure] = []
    queue = [(0.0, spec, 0) for spec in missing]  # (not before, spec, attempt)
    running: Dict[object, tuple] = {}  # pipe -> (process, spec, attempt, deadline)
    try:
        while queue or running:
            free = len(running) < jobs
            wake = min([job[3] for job in running.values()]
                       + [item[0] for item in queue if free], default=inf)
            ready = wait(list(running), None if wake == inf
                         else max(0.0, wake - time.monotonic()))
            now = time.monotonic()
            ended = []
            for reader, (proc, spec, attempt, deadline) in list(running.items()):
                if reader in ready:
                    try:
                        message = reader.recv()
                    except EOFError:  # died without a word: SIGKILL, OOM
                        proc.join()
                        message = ("timeout", "worker died without reporting "
                                   f"(exit code {proc.exitcode})")
                elif deadline <= now:
                    proc.kill()
                    message = ("timeout", f"no result within {timeout:g}s")
                else:
                    continue
                proc.join()
                reader.close()
                del running[reader]
                ended.append((spec, attempt, message))
            for item in [i for i in queue if i[0] <= now][:jobs - len(running)]:
                queue.remove(item)
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_worker, args=(
                    writer, item[1].to_dict(), checkpoint_every))
                proc.start()
                writer.close()
                running[reader] = (proc, item[1], item[2], time.monotonic()
                                   + (inf if timeout is None else timeout))
            # Only now, with the freed slots refilled, store what ended.
            for spec, attempt, (kind, body) in ended:
                if kind == "ok":
                    COUNTS["simulations"] += 1  # the worker's count died with it
                    _disk_store(spec, body)
                    _RESULT_CACHE[spec] = (*_rehydrate(body), None)
                elif attempt < retries:
                    queue.append((time.monotonic() + _retry_delay(
                        backoff, attempt), spec, attempt + 1))
                else:
                    failures.append(_failure(spec, kind, body, attempt + 1))
    finally:
        for reader, (proc, *_) in running.items():
            proc.kill()
            proc.join()
            reader.close()
    return failures


def prefetch(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    strict: bool = True,
    failures_out: Optional[List[JobFailure]] = None,
    checkpoint_every: Optional[int] = None,
) -> int:
    """Ensure every spec's result is available, simulating missing ones in
    up to *jobs* worker processes at a time.  Returns the number of
    simulations attempted.

    Workers return *serialized* results, so a parallel sweep is bit-identical
    to a serial one; completed payloads land in the disk cache (when enabled)
    and the in-process memo.

    ``timeout`` bounds each job's wall clock from its own start (hung
    workers are killed, dead ones reported at once); ``retries`` re-runs a
    failed job that many extra times with exponential ``backoff``.
    Failures are appended to ``failures_out`` (when given) and raised as
    one :class:`SuiteError` unless ``strict=False``.  ``checkpoint_every``
    is as for :func:`run_benchmark`.
    """
    missing: List[RunSpec] = []
    seen = set()
    for spec in specs:
        if spec in seen or lookup_result(spec) is not None:
            continue
        seen.add(spec)
        missing.append(spec)

    if not missing:
        return 0

    failures = _parallel_simulate(missing, max(jobs, 1), timeout, retries,
                                  backoff, checkpoint_every)
    if failures_out is not None:
        failures_out.extend(failures)
    if failures and strict:
        raise SuiteError(failures)
    return len(missing)


def run_suite(
    abbrs: Sequence[str],
    model: str = "Base",
    jobs: int = 1,
    energy_params: Optional[EnergyParams] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    strict: bool = True,
    failures_out: Optional[List[JobFailure]] = None,
    **kwargs,
) -> Dict[str, BenchmarkRun]:
    """Run a list of benchmarks under one design point.

    ``jobs > 1`` simulates cache-missing benchmarks in parallel; results
    are identical to a serial run.  A benchmark whose job fails (raises,
    or exceeds the per-job ``timeout`` under ``jobs > 1``) is omitted from
    the returned mapping and recorded as a :class:`JobFailure` in
    ``failures_out``; with ``strict=True`` (the default) the suite then
    raises :class:`SuiteError` *after* every other benchmark completed.
    """
    specs = [RunSpec.make(abbr, model, **kwargs) for abbr in abbrs]
    failures: List[JobFailure] = []
    if jobs > 1:
        prefetch(specs, jobs=jobs, timeout=timeout, retries=retries, backoff=backoff,
                 strict=False, failures_out=failures)
    failed = {failure.spec for failure in failures}
    runs: Dict[str, BenchmarkRun] = {}
    for abbr, spec in zip(abbrs, specs):
        if spec in failed:
            continue
        try:
            runs[abbr] = run_benchmark(abbr, model,
                                       energy_params=energy_params, **kwargs)
        except Exception as err:  # noqa: BLE001 - recorded per spec
            failures.append(_failure(spec, "error",
                                     f"{type(err).__name__}: {err}", 1))
    if failures_out is not None:
        failures_out.extend(failures)
    if failures and strict:
        raise SuiteError(failures)
    return runs
