"""campaign-sweep: a few hundred short jobs through the campaign runner.

A :class:`MatrixSpec` of eight short Table I benchmarks x {Base, RLPV} x
12 data seeds (192 jobs) is created on an empty cache and run by
``run_campaign(workers=nproc)`` with every other option at its default,
including the 2000-cycle checkpoint cadence, which half of the jobs run
past.  The seed axis is drawn from ``SEED_POOL`` by the benchmark seed.
Campaigns repeat while another one would end within ``--seconds`` (at
least one; one at the default 30 s).
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import layers
from perfbench.common import (NPROC, SEED_POOL, SHORT_BENCHMARKS, Outcome,
                              SpeedProbe,
                              import_seconds, load_expected, own_peak_rss_mb,
                              percentile, subprocess_env)
from perfbench.tracer import Tracer, install, merge_dir, result_counts

ENTRY = Path(__file__).resolve().parent / "entry.py"
SEEDS_PER_RUN = 12


def campaign_seeds(seed: int) -> Tuple[int, ...]:
    return tuple(sorted(random.Random(seed).sample(SEED_POOL, SEEDS_PER_RUN)))


class TracedBackend:
    """Spawns campaign workers through ``entry.py`` and notes spawn times."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        self.spawned: Dict[str, float] = {}

    def spawn(self, campaign, worker_id: str, chaos=None):
        argv = [sys.executable, str(ENTRY), "campaign-worker",
                "--dir", str(campaign.base), "--id", campaign.id,
                "--worker-id", worker_id, "--trace-dir", str(self.trace_dir)]
        log_dir = campaign.root / "workers"
        log_dir.mkdir(parents=True, exist_ok=True)
        self.spawned[worker_id] = time.time()
        with open(log_dir / f"{worker_id}.log", "ab") as log:
            return subprocess.Popen(argv, env=subprocess_env(), stdout=log,
                                    stderr=subprocess.STDOUT)


def _run_campaign(matrix, cache: Path, backend=None):
    """Create and run one campaign; returns (campaign, report, wall,
    wall-clock return time)."""
    from repro.campaign import Campaign, run_campaign

    start = time.perf_counter()
    campaign = Campaign.create(matrix, base=cache)
    if backend is None:
        report = run_campaign(campaign, workers=NPROC)
    else:
        report = run_campaign(campaign, workers=NPROC, backend=backend)
    return campaign, report, time.perf_counter() - start, time.time()


def _check(campaign, report, expected: Dict, outcome: Outcome,
           load_results: bool) -> Dict[str, float]:
    """Every job done and its published cycles equal to the pin."""
    from repro.campaign import fold_journal, read_journal
    from repro.harness import runner

    outcome.attempted += len(campaign.jobs)
    if report.quarantined or not report.complete:
        outcome.fail(f"campaign {campaign.id}: {report}")
    logs = fold_journal(read_journal(campaign.journal_path).records)
    totals: Dict[str, float] = {}
    if load_results:
        runner.set_cache_dir(campaign.base)
    for digest, spec in campaign.jobs.items():
        pin = expected["pool"][f"{spec.abbr}/{spec.model}/{spec.seed}"]
        log = logs.get(digest)
        if log is None or not log.completes or log.quarantined:
            outcome.fail(f"job {spec.abbr}/{spec.model}/{spec.seed} not done")
            continue
        cycles = log.completes[-1].get("cycles")
        if cycles != pin[0] or not campaign.result_path(digest).exists():
            outcome.fail(f"job {spec.abbr}/{spec.model}/{spec.seed}: "
                         f"{cycles} cycles published, pinned {pin[0]}")
            continue
        if load_results:
            result = runner.lookup_result(spec)[0]
            for key, value in result_counts(result, spec.model).items():
                totals[key] = totals.get(key, 0) + value
    return totals


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.campaign import MatrixSpec

    outcome = Outcome()
    expected = load_expected()
    outcome.values["setup_s"] = import_seconds("repro.campaign")
    matrix = MatrixSpec.make(SHORT_BENCHMARKS, models=("Base", "RLPV"),
                             seeds=campaign_seeds(seed))
    jobs = 0
    wall = 0.0
    untraced = {}
    slices = 0.0    # wall time in probe slices, summed over campaigns
    while True:
        with SpeedProbe() as probe:
            campaign, report, elapsed, _ = _run_campaign(
                matrix, work / f"cache{jobs}")
        slices += elapsed * 1000.0 / probe.slice_ms
        jobs += report.done
        wall += elapsed
        untraced = _check(campaign, report, expected, outcome, trace)
        if trace or wall + elapsed > seconds:
            break
    outcome.values["peak_rss_mb"] = own_peak_rss_mb()
    outcome.values["op_slices"] = slices / jobs
    outcome.details["op_ms"] = wall * 1000.0 / jobs
    outcome.details["jobs_per_min"] = jobs / wall * 60.0
    if trace:
        _traced_pass(matrix, wall, untraced, expected, work, outcome)
    return outcome


def job_seconds(records: List[Dict]) -> List[Tuple[float, float, str]]:
    """(claim time, complete time, worker) of every completed job attempt."""
    claimed: Dict[str, Tuple[float, str]] = {}
    spans = []
    for record in records:
        data = record.get("data", {})
        if record["type"] in ("claim", "reclaim"):
            claimed[data["job"]] = (record["time"], data["worker"])
        elif record["type"] == "complete" and data["job"] in claimed:
            start, worker = claimed.pop(data["job"])
            spans.append((start, record["time"], worker))
    return spans


def _traced_pass(matrix, untraced_wall: float, untraced: Dict[str, float],
                 expected: Dict, work: Path, outcome: Outcome) -> None:
    from repro.campaign import read_journal

    tracer = install(Tracer(work / "trace"))
    backend = TracedBackend(tracer.out_dir)
    try:
        campaign, report, wall, returned = _run_campaign(
            matrix, work / "cache-traced", backend)
    finally:
        tracer.uninstall()
    _check(campaign, report, expected, outcome, False)
    doc = merge_dir(tracer.out_dir, [tracer.snapshot()])
    values = layers.traced_values("campaign-sweep", doc, untraced, wall,
                                  outcome)

    records = read_journal(campaign.journal_path).records
    jobs = job_seconds(records)
    durations_ms = [(end - start) * 1000.0 for start, end, _ in jobs]
    outcome.details["job_p50_ms"] = percentile(durations_ms, 50)
    outcome.details["job_p90_ms"] = percentile(durations_ms, 90)
    first_claim: Dict[str, float] = {}
    for start, _, worker in jobs:
        first_claim[worker] = min(start, first_claim.get(worker, start))
    values["campaign.worker_start_share"] = statistics.median(
        first_claim[w] - t for w, t in backend.spawned.items()
        if w in first_claim) / wall
    values["campaign.busy_ratio"] = (
        sum(end - start for start, end, _ in jobs) / (NPROC * wall))
    values["campaign.tail_share"] = (
        returned - max(end for _, end, _ in jobs)) / wall
    values["trace.overhead_ratio"] = wall / untraced_wall
    outcome.values = values
