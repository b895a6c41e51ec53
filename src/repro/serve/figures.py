"""Figure-level metrics, computed identically for HTTP and CLI callers.

Every figure the service knows is one :class:`FigureDef`: which run
*roles* it needs per benchmark (``Base`` baseline, the query's ``MODEL``,
or a ``PROFILE`` run with the redundancy profiler armed) and a pure
``compute`` from those loaded runs to plain metric values.  The HTTP
handlers load the runs from the disk cache and the ``repro query`` CLI
verb loads them through :func:`~repro.harness.runner.run_benchmark` — but
both feed the same compute functions and serialize through
:func:`canonical_json`, so a served figure body is byte-identical to the
CLI output for the same query (the end-to-end test asserts exactly that).

Metrics mirror the experiment drivers in
:mod:`repro.harness.experiments`, reduced to one benchmark (single-figure
queries) or re-aggregated over the whole suite via the stats registry's
``StatGroup.merged`` (suite queries).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.energy import EnergyReport, compute_energy
from repro.harness.runner import RunSpec, lookup_result, run_benchmark
from repro.profiling import RedundancyProfile
from repro.serve.query import QuerySpec, required_specs
from repro.sim.gpu import RunResult
from repro.stats import StatGroup

#: Bump when the figure document layout changes incompatibly; part of the
#: ETag derivation, so a schema change invalidates client caches.
SERVE_SCHEMA = 1


@dataclass
class LoadedRun:
    """One run's everything the figure computations read."""

    spec: RunSpec
    digest: str
    result: RunResult
    energy: EnergyReport
    profile: Optional[RedundancyProfile] = None


@dataclass(frozen=True)
class FigureDef:
    """What one figure needs and how its metrics fall out of the runs."""

    name: str
    #: Run roles per benchmark: "Base", "MODEL", and/or "PROFILE".
    roles: Tuple[str, ...]
    #: ``compute(query, {role: LoadedRun}) -> {metric: value}``.
    compute: Callable[[QuerySpec, Dict[str, LoadedRun]], Dict[str, float]]
    #: One-line description for the index endpoint and docs.
    doc: str = ""


def _fig2(_query: QuerySpec, runs: Dict[str, LoadedRun]) -> Dict[str, float]:
    profile = runs["PROFILE"].profile
    return {
        "repeated": profile.repeat_fraction,
        "repeated_gt10": profile.high_repeat_fraction,
    }


def _wir_stat(result: RunResult, path: str) -> float:
    """A ``wir.*`` per-SM total, or 0 for designs without a WIR unit."""
    groups = result.sm_groups
    if not groups or "wir" not in groups[0].children:
        return 0
    return result.sm_stat(path)


def _fig12(_query: QuerySpec, runs: Dict[str, LoadedRun]) -> Dict[str, float]:
    base, reuse = runs["Base"].result, runs["MODEL"].result
    dummy = _wir_stat(reuse, "wir.dummy_movs")
    return {
        "relative_backend": (reuse.backend_instructions + dummy)
        / max(1, base.backend_instructions),
        "reuse_fraction": reuse.reuse_fraction,
        "dummy_mov_fraction": dummy / max(1, reuse.issued_instructions),
    }


def _fig14(_query: QuerySpec, runs: Dict[str, LoadedRun]) -> Dict[str, float]:
    base, reuse = runs["Base"].energy, runs["MODEL"].energy
    return {
        "relative_gpu_energy": reuse.gpu_total / base.gpu_total,
        "relative_sm_energy": reuse.sm_total / base.sm_total,
    }


def _fig15(_query: QuerySpec, runs: Dict[str, LoadedRun]) -> Dict[str, float]:
    base, reuse = runs["Base"].result, runs["MODEL"].result
    return {
        "relative_accesses": reuse.sm_stat("l1d.accesses")
        / max(1, base.sm_stat("l1d.accesses")),
        "relative_misses": reuse.sm_stat("l1d.misses")
        / max(1, base.sm_stat("l1d.misses")),
    }


def _fig17(_query: QuerySpec, runs: Dict[str, LoadedRun]) -> Dict[str, float]:
    base, reuse = runs["Base"].result, runs["MODEL"].result
    return {"speedup": base.cycles / reuse.cycles}


FIGURES: Dict[str, FigureDef] = {
    figure.name: figure
    for figure in (
        FigureDef("fig2", ("PROFILE",), _fig2,
                  "repeated warp computations in 1K-instruction windows"),
        FigureDef("fig12", ("Base", "MODEL"), _fig12,
                  "backend instructions relative to Base"),
        FigureDef("fig14", ("Base", "MODEL"), _fig14,
                  "GPU/SM energy relative to Base"),
        FigureDef("fig15", ("Base", "MODEL"), _fig15,
                  "L1D accesses and misses relative to Base"),
        FigureDef("fig17", ("Base", "MODEL"), _fig17,
                  "speedup over Base"),
    )
}


# ------------------------------------------------------------- documents

def canonical_json(doc: Dict) -> str:
    """The one serialization both HTTP bodies and CLI output use."""
    return json.dumps(doc, sort_keys=True)


def figure_document(query: QuerySpec,
                    loaded: Dict[str, Dict[str, LoadedRun]]) -> Dict:
    """The served figure JSON: query echo, metric data, run digests.

    For suite queries ``data`` holds per-benchmark rows plus a
    ``summary`` re-aggregated from the merged stats registries; for
    single-workload queries it holds that workload's metrics directly.
    """
    figure = FIGURES[query.fig]
    doc: Dict = {
        "schema": SERVE_SCHEMA,
        "figure": query.fig,
        "query": query.to_dict(),
        "runs": {
            abbr: {role: run.digest for role, run in by_role.items()}
            for abbr, by_role in loaded.items()
        },
    }
    if query.suite:
        doc["rows"] = {abbr: figure.compute(query, by_role)
                       for abbr, by_role in loaded.items()}
        doc["summary"] = suite_summary(loaded)
    else:
        doc["data"] = figure.compute(query, loaded[query.workload])
    return doc


def suite_summary(loaded: Dict[str, Dict[str, LoadedRun]]) -> Dict:
    """Whole-suite aggregates from one merged stats registry.

    The per-benchmark registries of the query's MODEL runs (falling back
    to the PROFILE role for profile-only figures) are merged into a
    single tree with :meth:`StatGroup.merged`, and the headline totals
    are read back out of the merged tree — the same cross-SM/cross-run
    aggregation path ``repro campaign status`` uses.
    """
    runs = [by_role.get("MODEL") or by_role.get("PROFILE")
            or next(iter(by_role.values()))
            for by_role in loaded.values()]
    merged = StatGroup.merged((run.result.stats for run in runs),
                              name="suite")
    sm_groups = [merged.children[name] for name in sorted(
        (n for n in merged.children if n.startswith("sm")),
        key=lambda n: int(n[2:]))]

    def total(path: str) -> int:
        return sum(group.lookup(path) for group in sm_groups)

    issued = total("core.issued")
    return {
        "workloads": len(runs),
        "cycles": sum(run.result.cycles for run in runs),
        "issued_instructions": issued,
        "backend_instructions": total("core.backend_insts"),
        "reused_instructions": total("core.reused"),
        "reuse_fraction": total("core.reused") / max(1, issued),
        "dram_accesses": int(merged.lookup("memory.dram.accesses")),
    }


# --------------------------------------------------------------- loaders

def load_via_harness(query: QuerySpec) -> Dict[str, Dict[str, LoadedRun]]:
    """Obtain every required run through the CLI harness (simulating on
    miss) — the reference path ``repro query`` uses."""
    loaded: Dict[str, Dict[str, LoadedRun]] = {}
    for abbr, by_role in required_specs(query).items():
        loaded[abbr] = {}
        for role, spec in by_role.items():
            run = run_benchmark(
                spec.abbr, spec.model, scale=spec.scale, seed=spec.seed,
                num_sms=spec.num_sms, profile=spec.profile,
                **dict(spec.wir_overrides))
            loaded[abbr][role] = LoadedRun(
                spec=spec, digest=spec.digest(), result=run.result,
                energy=run.energy, profile=run.profile)
    return loaded


def load_cached(spec: RunSpec) -> Optional[LoadedRun]:
    """One run from the memo/disk cache, or ``None`` (never simulates)."""
    found = lookup_result(spec)
    if found is None:
        return None
    result, profile = found
    return LoadedRun(spec=spec, digest=spec.digest(), result=result,
                     energy=compute_energy(result), profile=profile)
