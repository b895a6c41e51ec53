"""Per-layer metrics from merged trace data, and the traced-run checks."""

from __future__ import annotations

from typing import Dict, List

from perfbench.common import SELF_TIMED, TIMED_FUNCTIONS, Outcome, save_trace
from perfbench.tracer import MODEL_KEYS, RATIO_STATS, self_seconds

_SIM = tuple(TIMED_FUNCTIONS) + (
    "harness.simulate", "workloads.build_workload", "workloads.verify",
    "sim.gpu_run")
_CAMPAIGN = ("campaign.read_journal", "campaign.append_record",
             "campaign.lease.claim", "campaign.execute_job")

#: Wrapped functions each workload must call at least once.  A wrapper at
#: zero calls means a pre-bound fast path bypassed it, so the traced
#: numbers would silently miss that layer.
EXPECTED_CALLS = {
    "figures-cold": _SIM + ("harness.run_benchmark", "harness.prefetch",
                            "energy.compute_energy"),
    "campaign-sweep": _SIM + _CAMPAIGN + ("ckpt.write",),
    "serve-mixed": _SIM + _CAMPAIGN + (
        "harness.lookup_result", "energy.compute_energy", "serve.parse_query",
        "serve.collect", "serve.figure_document", "serve.canonical_json"),
}

def sim_count_keys(counts: Dict[str, float]) -> List[str]:
    """Keys of the simulated counts that must not move under tracing."""
    return sorted(k for k in counts
                  if k.startswith(("sim.cycles.", "sim.insts.", "core.",
                                   "memory.l1d.")))


def missing_calls(workload: str, aggs: Dict[str, list]) -> List[str]:
    return [key for key in EXPECTED_CALLS[workload]
            if aggs.get(key, (0,))[0] == 0]


def purity_problems(untraced: Dict[str, float],
                    traced: Dict[str, float]) -> List[str]:
    """Every simulated count of the traced run equals the untraced run's."""
    keys = sorted(set(sim_count_keys(untraced)) | set(sim_count_keys(traced)))
    return [f"traced {key} = {traced.get(key)} but untraced = "
            f"{untraced.get(key)}"
            for key in keys if traced.get(key) != untraced.get(key)]


def traced_values(workload: str, doc: Dict, untraced: Dict[str, float],
                  wall: float, outcome: Outcome) -> Dict[str, float]:
    """Keep the merged trace, fail the run on a purity or coverage problem,
    and return the per-layer values (*wall*: the traced phase's seconds)."""
    save_trace(workload, doc)
    for problem in purity_problems(untraced, doc["counts"]):
        outcome.fail(problem)
    for key in missing_calls(workload, doc["aggs"]):
        outcome.fail(f"wrapper {key} saw no calls")
    return layer_values(doc, wall)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(doc: Dict, wall: float) -> Dict[str, float]:
    """Per-layer metric values from one merged trace document; self times
    are shares of the traced phase's *wall* seconds."""
    aggs, counts = doc["aggs"], doc["counts"]
    values: Dict[str, float] = {}

    def calls(key: str) -> int:
        return aggs.get(key, (0,))[0]

    for name in TIMED_FUNCTIONS:
        values[f"{name}.calls"] = calls(name)
    for name in TIMED_FUNCTIONS + SELF_TIMED:
        values[f"{name}.self_share"] = self_seconds(aggs, name) / wall
    values["harness.lookup_result.calls"] = calls("harness.lookup_result")
    values["harness.lookup_result.hit_ratio"] = _ratio(
        counts.get("harness.lookup_result.hits", 0),
        calls("harness.lookup_result"))
    values["energy.compute_energy.calls"] = calls("energy.compute_energy")
    values["ckpt.write.calls"] = calls("ckpt.write")
    values["ckpt.write.bytes"] = counts.get("ckpt.write.bytes", 0)
    values["campaign.lease.grant_ratio"] = _ratio(
        counts.get("campaign.lease.grants", 0), calls("campaign.lease.claim"))

    def us_per_inst(m: str) -> float:
        return _ratio(counts.get(f"sim.gpu_run_s.{m}", 0.0) * 1e6,
                      counts.get(f"sim.insts.{m}", 0))

    values["sim.us_per_inst.Base"] = us_per_inst("Base")
    for m in MODEL_KEYS.values():
        values[f"sim.cycles.{m}"] = counts.get(f"sim.cycles.{m}", 0)
        values[f"sim.insts.{m}"] = counts.get(f"sim.insts.{m}", 0)
        if m == "Base":
            continue
        values[f"sim.cost_vs_base.{m}"] = _ratio(us_per_inst(m),
                                                 values["sim.us_per_inst.Base"])
        for name in RATIO_STATS:
            values[f"{name}.{m}"] = _ratio(counts.get(f"{name}.{m}.num", 0),
                                           counts.get(f"{name}.{m}.den", 0))
    values["memory.l1d.hit_ratio"] = _ratio(counts.get("memory.l1d.hits", 0),
                                            counts.get("memory.l1d.accesses",
                                                       0))
    return values
