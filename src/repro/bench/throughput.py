"""Simulator throughput measurement and perf-regression gating.

The unit under test is the *simulator*, not the modelled GPU: the headline
metric is cycles simulated per wall-clock second.  Three design decisions
keep the numbers comparable across commits and machines:

* **Pinned subset.**  A fixed set of (workload, scale) pairs, each timed
  under Base and under RLPV (the paper's headline design point, where the
  WIR unit is live), chosen to cover the arithmetic/memory/divergence mix
  of the full suite while finishing in minutes.  Changing the subset
  invalidates the baseline, so it is part of the report and compared by
  the gate.
* **Best-of-N timing.**  Wall times on shared machines are noisy (±30%
  between runs is routine); the *minimum* over N repetitions estimates the
  noise-free cost far better than the mean.  Every per-entry wall time in
  the report is a best-of-``reps`` minimum.
* **Machine normalization.**  A short calibration microkernel (pure-Python
  dict/arithmetic churn plus a small numpy loop — the same instruction mix
  that dominates the simulator) is timed on every run.  Throughputs are
  scaled by ``calibration_s / reference_s`` so a report from a faster or
  slower machine lands near the committed baseline; the regression gate
  compares *normalized* aggregates only.

Runs bypass the harness result caches entirely (direct ``GPU.run`` on a
freshly built workload) — a cache hit would time nothing.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.models import model_config
from repro.sim.gpu import GPU, KernelLaunch
from repro.workloads import build_workload

#: Bump when the report layout changes incompatibly.
BENCH_SCHEMA_VERSION = 2

#: Committed report / baseline filename (repo root).
DEFAULT_REPORT_NAME = "BENCH_sim_throughput.json"

#: Gate threshold: fail when a normalized aggregate drops by more than this.
REGRESSION_TOLERANCE = 0.15

#: (abbr, scale) pairs timed under every model in ``MODELS``.  Covers
#: compute-bound (KM, BS), memory-heavy (SD, MQ), branchy (BP) and
#: tiny-kernel (HW) shapes.
PINNED_SUBSET: Tuple[Tuple[str, int], ...] = (
    ("KM", 5),
    ("SD", 4),
    ("MQ", 5),
    ("BS", 6),
    ("HW", 2),
    ("BP", 3),
)

#: Engines measured, in report order.  "scalar" is the oracle interpreter;
#: "fast" is the default engine (compiled per-instruction kernels plus
#: trace-compiled superblocks, DESIGN.md §8 and §16).  Both are
#: bit-identical by construction — see tests/test_exec_differential.py.
ENGINES: Tuple[str, ...] = ("scalar", "fast")

#: Design points measured, in report order: Base (superblocks compile) and
#: RLPV (a live WIR unit keeps every instruction on the per-instruction
#: path).  Aggregates, speedups and the regression gate are per model.
MODELS: Tuple[str, ...] = ("Base", "RLPV")

#: Calibration wall time on the machine the committed baseline was measured
#: on.  Units cancel in the normalization ratio; the constant only anchors
#: "normalized" to mean "as if on the reference machine".
CALIBRATION_REFERENCE_S = 0.048

_SEED = 7
_NUM_SMS = 2


def calibrate_machine(reps: int = 5) -> float:
    """Best-of-*reps* wall time of the calibration microkernel, seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        # Python-side churn: dict updates, integer mixing, attribute-free
        # loops — the shape of the simulator's scheduler/scoreboard work.
        acc = 0
        table: Dict[int, int] = {}
        for i in range(150_000):
            key = i & 1023
            table[key] = i
            acc += table[key] ^ (i >> 3)
        # numpy-side churn: small-vector elementwise ops, the shape of the
        # execution engines' 32-lane kernels.
        lanes = np.arange(4096, dtype=np.uint32)
        for _ in range(300):
            lanes = (lanes * np.uint32(2654435761)) & np.uint32(0xFFFFFFFF)
        if int(lanes[0]) + acc < 0:  # defeat dead-code elimination
            raise AssertionError
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class BenchEntry:
    """One (workload, model, engine) measurement."""

    abbr: str
    scale: int
    model: str
    engine: str
    cycles: int
    instructions: int
    wall_s: float          # best-of-reps minimum
    cycles_per_sec: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "abbr": self.abbr,
            "scale": self.scale,
            "model": self.model,
            "engine": self.engine,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "wall_s": round(self.wall_s, 6),
            "cycles_per_sec": round(self.cycles_per_sec, 1),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchEntry":
        return cls(
            abbr=data["abbr"], scale=data["scale"], model=data["model"],
            engine=data["engine"], cycles=data["cycles"],
            instructions=data["instructions"], wall_s=data["wall_s"],
            cycles_per_sec=data["cycles_per_sec"],
        )


@dataclass
class BenchReport:
    """A full throughput report (what ``BENCH_sim_throughput.json`` holds)."""

    calibration_s: float
    reps: int
    entries: List[BenchEntry] = field(default_factory=list)
    subset: Tuple[Tuple[str, int], ...] = PINNED_SUBSET
    machine: str = ""

    @property
    def normalization(self) -> float:
        """Multiplier mapping raw throughput to reference-machine units."""
        return self.calibration_s / CALIBRATION_REFERENCE_S

    def entries_for(self, model: str, engine: str) -> List[BenchEntry]:
        return [e for e in self.entries
                if e.model == model and e.engine == engine]

    def aggregate_cps(self, model: str, engine: str,
                      normalized: bool = False) -> float:
        """Geometric-mean cycles/sec across the subset for one
        (*model*, *engine*) pair."""
        values = [e.cycles_per_sec for e in self.entries_for(model, engine)]
        if not values:
            return 0.0
        mean = statistics.geometric_mean(values)
        return mean * self.normalization if normalized else mean

    def speedup(self, model: str) -> float:
        """Aggregate fast-engine throughput over the scalar oracle for
        *model*."""
        scalar = self.aggregate_cps(model, "scalar")
        return self.aggregate_cps(model, "fast") / scalar if scalar else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "machine": self.machine,
            "calibration": {
                "seconds": round(self.calibration_s, 6),
                "reference_seconds": CALIBRATION_REFERENCE_S,
                "normalization": round(self.normalization, 4),
            },
            "reps": self.reps,
            "subset": [list(pair) for pair in self.subset],
            "entries": [e.to_dict() for e in self.entries],
            "aggregate": {
                model: {
                    engine: {
                        "cycles_per_sec": round(
                            self.aggregate_cps(model, engine), 1),
                        "normalized_cycles_per_sec": round(
                            self.aggregate_cps(model, engine,
                                               normalized=True), 1),
                    }
                    for engine in ENGINES
                }
                for model in MODELS
            },
            "speedup": {model: round(self.speedup(model), 3)
                        for model in MODELS},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchReport":
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench report schema {version!r} "
                f"(this build reads version {BENCH_SCHEMA_VERSION})")
        return cls(
            calibration_s=data["calibration"]["seconds"],
            reps=data["reps"],
            entries=[BenchEntry.from_dict(e) for e in data["entries"]],
            subset=tuple((abbr, scale) for abbr, scale in data["subset"]),
            machine=data.get("machine", ""),
        )

    @classmethod
    def load(cls, path) -> "BenchReport":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _time_once(abbr: str, scale: int, engine: str,
               model: str = "Base") -> Tuple[float, int, int]:
    """One uncached simulation; returns (wall_s, cycles, instructions)."""
    config = model_config(model)
    config.num_sms = _NUM_SMS
    config.exec_engine = engine
    workload = build_workload(abbr, scale=scale, seed=_SEED)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    gpu = GPU(config)
    t0 = time.perf_counter()
    result = gpu.run(launch)
    wall = time.perf_counter() - t0
    workload.verify()
    return wall, result.cycles, result.issued_instructions


def measure_subset(
    reps: int = 3,
    subset: Sequence[Tuple[str, int]] = PINNED_SUBSET,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Measure the pinned subset under every model and engine; returns the
    report.

    Interleaves engines per workload and model (scalar rep, fast rep, ...)
    so slow machine-wide drift (thermal, noisy neighbours) hits both
    engines alike.
    """
    report = BenchReport(
        calibration_s=calibrate_machine(),
        reps=reps,
        subset=tuple(subset),
        machine=f"{platform.machine()}/{platform.python_implementation()}"
                f"-{platform.python_version()}",
    )
    for abbr, scale in subset:
        for model in MODELS:
            best: Dict[str, Tuple[float, int, int]] = {}
            for rep in range(reps):
                for engine in ENGINES:
                    sample = _time_once(abbr, scale, engine, model=model)
                    if engine not in best or sample[0] < best[engine][0]:
                        best[engine] = sample
            cps: Dict[str, float] = {}
            for engine in ENGINES:
                wall, cycles, instructions = best[engine]
                cps[engine] = cycles / wall if wall else 0.0
                report.entries.append(BenchEntry(
                    abbr=abbr, scale=scale, model=model, engine=engine,
                    cycles=cycles, instructions=instructions, wall_s=wall,
                    cycles_per_sec=cps[engine],
                ))
            if progress is not None:
                scalar_cps = cps.get("scalar", 0.0)
                parts = []
                for engine in ENGINES:
                    text = f"{engine} {cps[engine]:,.0f} c/s"
                    if engine != "scalar" and scalar_cps:
                        text += f" ({cps[engine] / scalar_cps:.2f}x)"
                    parts.append(text)
                progress(f"{abbr}@{scale} {model}: " + ", ".join(parts))
    return report


def speedup_table(report: BenchReport) -> str:
    """Per-workload speedup table in markdown (the CI bench artifact)."""
    header = "| workload | model | scalar c/s | fast c/s | fast speedup |"
    lines = [header, "|" + " --- |" * 5]
    by_key: Dict[Tuple[str, int, str], Dict[str, BenchEntry]] = {}
    for entry in report.entries:
        key = (entry.abbr, entry.scale, entry.model)
        by_key.setdefault(key, {})[entry.engine] = entry

    def row(label: str, model: str, scalar: float, fast: float) -> str:
        ratio = f"{fast / scalar:.2f}x" if scalar else "-"
        return (f"| {label} | {model} | {scalar:,.0f} | {fast:,.0f} "
                f"| {ratio} |")

    for abbr, scale in report.subset:
        for model in MODELS:
            cell = by_key.get((abbr, scale, model), {})
            scalar, fast = cell.get("scalar"), cell.get("fast")
            if scalar and fast:
                lines.append(row(f"{abbr}@{scale}", model,
                                 scalar.cycles_per_sec, fast.cycles_per_sec))
    for model in MODELS:
        lines.append(row("aggregate", model,
                         report.aggregate_cps(model, "scalar"),
                         report.aggregate_cps(model, "fast")))
    return "\n".join(lines) + "\n"


@dataclass
class GateResult:
    """Outcome of comparing a fresh report against the committed baseline."""

    ok: bool
    messages: List[str] = field(default_factory=list)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = REGRESSION_TOLERANCE,
) -> GateResult:
    """Regression gate: normalized aggregates must not drop > *tolerance*.

    Also trips when the pinned subset changed (the aggregates would not be
    comparable) or when cycle counts moved for the same spec — a correctness
    drift the perf gate is well placed to catch early.
    """
    result = GateResult(ok=True)
    if tuple(current.subset) != tuple(baseline.subset):
        result.ok = False
        result.messages.append(
            "pinned subset changed; regenerate the baseline "
            f"(baseline {list(baseline.subset)}, current {list(current.subset)})")
        return result

    base_cycles = {(e.abbr, e.scale, e.model, e.engine): e.cycles
                   for e in baseline.entries}
    for entry in current.entries:
        key = (entry.abbr, entry.scale, entry.model, entry.engine)
        expected = base_cycles.get(key)
        if expected is not None and expected != entry.cycles:
            result.ok = False
            result.messages.append(
                f"cycle-count drift on {entry.abbr}@{entry.scale} "
                f"{entry.model}/{entry.engine}: baseline {expected}, "
                f"now {entry.cycles}")

    for model in MODELS:
        for engine in ENGINES:
            base = baseline.aggregate_cps(model, engine, normalized=True)
            cur = current.aggregate_cps(model, engine, normalized=True)
            if not base:
                continue
            ratio = cur / base
            label = (f"{model}/{engine}: normalized {cur:,.0f} c/s vs "
                     f"baseline {base:,.0f} c/s ({ratio:.2f}x)")
            if ratio < 1.0 - tolerance:
                result.ok = False
                worst = _worst_entry(current, baseline, model, engine)
                if worst is not None:
                    abbr, scale, base_cps, cur_cps = worst
                    label += (f"; worst offender {abbr}@{scale}: baseline "
                              f"{base_cps:,.0f} c/s, now {cur_cps:,.0f} c/s")
                result.messages.append(f"REGRESSION {label}")
            else:
                result.messages.append(f"ok {label}")
    return result


def _worst_entry(
    current: BenchReport, baseline: BenchReport, model: str, engine: str,
) -> Optional[Tuple[str, int, float, float]]:
    """The (abbr, scale) whose normalized per-entry throughput dropped the
    most for (*model*, *engine*), with (baseline, current) cycles/sec — so
    an aggregate REGRESSION names the workload to profile first."""
    base_cps = {(e.abbr, e.scale): e.cycles_per_sec * baseline.normalization
                for e in baseline.entries_for(model, engine)}
    worst: Optional[Tuple[float, str, int, float, float]] = None
    for entry in current.entries_for(model, engine):
        expected = base_cps.get((entry.abbr, entry.scale))
        if not expected:
            continue
        cur = entry.cycles_per_sec * current.normalization
        ratio = cur / expected
        if worst is None or ratio < worst[0]:
            worst = (ratio, entry.abbr, entry.scale, expected, cur)
    if worst is None:
        return None
    return worst[1], worst[2], worst[3], worst[4]
