"""Shared pieces of the benchmark: paths, metric table, percentiles, memory."""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for caches, campaign directories and trace files; every
#: run gets its own subdirectory and removes it when done.
WORK = ROOT / ".perfbench-work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
PROBE = Path(__file__).resolve().parent / "probe.py"

#: Worker processes / connections per workload (the machine has 2 cores).
NPROC = min(2, os.cpu_count() or 1)

WORKLOADS = ("figures-cold", "campaign-sweep", "serve-mixed")

#: Simulations the three figure drivers need, and the short Table I
#: benchmarks the campaign and the cold serve queries draw from.
FIGURE_MODELS = ("Base", "RLPV", "Affine+RLPV")
#: First four finish below the 2000-cycle checkpoint cadence, last four
#: run past it.
SHORT_BENCHMARKS = ("DW", "GA", "HT", "CF", "BO", "WT", "CU", "SN")
COLD_BENCHMARKS = ("DW",)
#: Data seeds the campaign seed axis and the cold serve queries are drawn
#: from; ``expected.json`` pins every (benchmark, model, seed) cycle count.
SEED_POOL = tuple(range(1000, 1040))

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: End-to-end metrics; every workload reports every one.  ``op_slices`` is
#: the time a user waits per operation of the workload -- per simulation of
#: the whole regeneration (figures-cold), per job from ``Campaign.create``
#: until ``run_campaign`` returns (campaign-sweep), the median hot-request
#: latency (serve-mixed) -- divided by the median slice time ``probe.py``
#: measured during that phase, which cancels most of the machine's drift.
#: The raw milliseconds are printed as the detail ``op_ms``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.12),
    Metric("op_slices", "probe_slices", "lower", 0.2),
)


def _layer(names: Sequence[str], unit: str, better: str) -> List[Metric]:
    return [Metric(name, unit, better) for name in names]


_MODELS = ("Base", "RLPV", "Affine_RLPV")
_WIR_MODELS = ("RLPV", "Affine_RLPV")

#: Wrapped functions whose calls and self time the traced run reports.
TIMED_FUNCTIONS = (
    "pipeline.ReuseProbeStage.issue", "pipeline.RenameStage.run",
    "pipeline.OperandReadStage.schedule_reads", "pipeline.ExecuteStage.run",
    "pipeline.AllocateVerifyStage.run", "pipeline.WritebackRetireStage.retire",
    "core.ReuseBuffer.lookup", "core.ValueSignatureBuffer.lookup",
    "core.ValueSignatureBuffer.insert", "core.H3Hash.hash_value",
    "core.RenameTables.lookup", "core.VerifyCache.access",
    "core.WIRUnit.allocate_register",
    "memory.SMMemoryPort.access", "memory.MemorySubsystem.service_l1_miss",
)

#: Wrapped functions whose self time alone the traced run reports.
SELF_TIMED = (
    "harness.run_benchmark", "workloads.build_workload", "workloads.verify",
    "sim.gpu_run", "energy.compute_energy", "ckpt.write",
    "campaign.read_journal", "campaign.append_record", "campaign.execute_job",
    "serve.parse_query", "serve.collect", "serve.figure_document",
    "serve.canonical_json",
)

#: Per-layer metrics; the traced run prints every one on every workload.
#: Self time is a share (self seconds summed over processes / wall seconds
#: of the traced phase) and every other number a count or a ratio, so a
#: layer a workload does not run reads 0 rather than a fixed time.
PER_LAYER = tuple(
    _layer(["harness.run_benchmark.self_share"], "ratio", "lower")
    + _layer(["harness.lookup_result.calls"], "count", "lower")
    + _layer(["harness.lookup_result.hit_ratio", "harness.pool.busy_ratio"],
             "ratio", "higher")
    + _layer([f"{key}.self_share" for key in (
        "workloads.build_workload", "workloads.verify", "sim.gpu_run")],
        "ratio", "lower")
    + _layer(["sim.us_per_inst.Base"], "us/inst", "lower")
    + _layer([f"sim.cost_vs_base.{m}" for m in _WIR_MODELS], "ratio", "lower")
    + _layer([f"sim.cycles.{m}" for m in _MODELS], "cycles", "lower")
    + _layer([f"sim.insts.{m}" for m in _MODELS], "insts", "lower")
    + [metric for name in TIMED_FUNCTIONS for metric in (
        Metric(f"{name}.calls", "count", "lower"),
        Metric(f"{name}.self_share", "ratio", "lower"))]
    + _layer([f"core.{ratio}.{m}" for ratio in (
        "reuse_ratio", "rb.hit_ratio", "vsb.hit_ratio", "vc.hit_ratio")
        for m in _WIR_MODELS] + ["memory.l1d.hit_ratio"], "ratio", "higher")
    + _layer(["energy.compute_energy.calls"], "count", "lower")
    + _layer(["energy.compute_energy.self_share"], "ratio", "lower")
    + _layer(["ckpt.write.calls"], "count", "lower")
    + _layer(["ckpt.write.self_share"], "ratio", "lower")
    + _layer(["ckpt.write.bytes"], "bytes", "lower")
    + _layer([f"campaign.{key}.self_share" for key in (
        "read_journal", "append_record", "execute_job")], "ratio", "lower")
    + _layer(["campaign.lease.grant_ratio", "campaign.busy_ratio"], "ratio",
             "higher")
    + _layer(["campaign.worker_start_share", "campaign.tail_share"], "ratio",
             "lower")
    + _layer([f"serve.{key}.self_share" for key in (
        "parse_query", "collect", "figure_document", "canonical_json")],
        "ratio", "lower")
    + _layer(["serve.hot_tail_ratio", "serve.cpu_share",
              "serve.cold.queue_share"], "ratio", "lower")
    + _layer(["serve.shed", "serve.timeouts", "serve.stale"], "count",
             "lower")
    + _layer(["trace.overhead_ratio"], "ratio", "lower")
)


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a wrong program output)."""


class TooFewSamples(BenchmarkError):
    """A percentile was asked of too few samples to be meaningful."""


#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0 < q < 100), refusing thin tails.

    With ``n`` samples, ``n * (100 - q) / 100`` of them lie beyond the
    percentile; fewer than :data:`MIN_BEYOND` raises :class:`TooFewSamples`.
    """
    n = len(values)
    if n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    ordered = sorted(values)
    rank = q / 100.0 * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    #: Numbers worth a look that are not metrics (printed to stderr).
    details: Dict[str, float] = field(default_factory=dict)

    def detail(self, name: str, values: Sequence[float], q: float) -> None:
        """Note a percentile in :attr:`details` if there are enough
        samples for it (a detail never stops the run)."""
        try:
            self.details[name] = percentile(values, q)
        except TooFewSamples:
            pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def metrics_for(trace: bool) -> List[Metric]:
    return list(PER_LAYER if trace else END_TO_END)


def result_line(workload: str, trace: bool, outcome: Outcome) -> Dict:
    """The final JSON object; every metric of the run, with its unit."""
    metrics = {}
    for metric in metrics_for(trace):
        if metric.name not in outcome.values:
            if not trace:
                raise BenchmarkError(
                    f"{workload} did not measure {metric.name}")
            value = 0
        else:
            value = outcome.values[metric.name]
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------ processes

def subprocess_env() -> Dict[str, str]:
    """Environment for program processes: the package importable, scratch
    files inside the checkout."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(WORK)
    return env


#: Set-up repeats per run; set-up reports their median.
SETUP_REPEATS = 5


def import_seconds(module: str) -> float:
    """Median wall seconds a fresh interpreter takes to import *module*."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       env=subprocess_env(), check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process and of its waited-for children,
    whichever is larger (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


class SpeedProbe:
    """Runs ``probe.py`` beside a timed phase; after the ``with`` block,
    :attr:`slice_ms` is the median CPU milliseconds of its slice."""

    def __enter__(self) -> "SpeedProbe":
        self.proc = subprocess.Popen([sys.executable, str(PROBE)],
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError("speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError("speed probe did not stop")
        self.slice_ms = json.loads(out.strip().splitlines()[-1])["slice_ms"]


class RunDir:
    """A fresh scratch directory for one run, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def load_expected() -> Dict:
    return json.loads(EXPECTED.read_text())


def save_trace(workload: str, doc: Dict) -> None:
    """Keep the traced run's merged data (aggregates, counts, spans) after
    the run directory is gone, for looking into a number afterwards."""
    (WORK / f"trace-{workload}.json").write_text(json.dumps(doc))
