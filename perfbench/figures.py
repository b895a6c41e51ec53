"""figures-cold: regenerate Figures 12, 14 and 17 from an empty cache.

The three drivers run for the 34 Table I benchmarks at Base, RLPV and
Affine+RLPV (102 simulations) with ``jobs=nproc``, each pass on an empty
cache directory and an empty memo.  Passes repeat while another one would
end within ``--seconds`` (at least one; one at the default 30 s).  The
drivers keep their fixed seed, the one the paper tables use, so the
benchmark seed does not change the inputs.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import layers
from perfbench.common import (FIGURE_MODELS, NPROC, ROOT, Outcome, SpeedProbe,
                              import_seconds, load_expected, own_peak_rss_mb)
from perfbench.tracer import Tracer, install, merge_dir, result_counts

COMMITTED = ROOT / "benchmarks" / "results"


def parse_table(text: str) -> Dict[str, Dict[str, str]]:
    """A rendered fixed-width table as ``{row: {column: cell}}``."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    header = lines[rule - 1].split()
    rows = {}
    for line in lines[rule + 1:]:
        cells = line.split()
        if len(cells) != len(header):
            break
        rows[cells[0]] = dict(zip(header[1:], cells[1:]))
    return rows


def _regenerate(cache: Path) -> Tuple[float, Dict, Dict]:
    """One cold pass; returns (wall seconds, fig12 data, fig17 data)."""
    from repro.harness import experiments, runner

    runner.clear_cache()
    runner.set_cache_dir(cache)
    start = time.perf_counter()
    fig12 = experiments.fig12_backend_instructions(model="RLPV", jobs=NPROC)
    experiments.fig14_gpu_energy(models=FIGURE_MODELS, jobs=NPROC)
    fig17 = experiments.fig17_speedup(models=FIGURE_MODELS[1:], jobs=NPROC)
    return time.perf_counter() - start, fig12, fig17


def _check_pass(fig12: Dict, fig17: Dict, expected: Dict,
                outcome: Outcome) -> Dict[str, float]:
    """Check one pass's outputs; returns the summed simulated counts."""
    from repro.harness import reporting, runner
    from repro.workloads import all_abbrs

    committed12 = parse_table(
        (COMMITTED / "fig12_backend_insts.txt").read_text())
    committed17 = parse_table((COMMITTED / "fig17_speedup.txt").read_text())
    rendered12 = parse_table(reporting.render_per_benchmark(
        fig12, title="Figure 12"))
    rendered17 = parse_table(reporting.render_per_benchmark(
        {row: {"RLPV": values["RLPV"]} for row, values in fig17.items()},
        title="Figure 17"))
    for name, rendered, committed in (("fig12", rendered12, committed12),
                                      ("fig17", rendered17, committed17)):
        for row, cells in rendered.items():
            want = {col: committed.get(row, {}).get(col) for col in cells}
            if cells != want:
                outcome.fail(f"{name} row {row}: {cells} != committed {want}")

    totals: Dict[str, float] = {}
    for abbr in all_abbrs():
        for model in FIGURE_MODELS:
            outcome.attempted += 1
            counts = result_counts(runner.run_benchmark(abbr, model).result,
                                   model)
            pin = expected["figures"][f"{abbr}/{model}"]
            if counts != pin:
                outcome.fail(f"{abbr}/{model}: {counts} != pinned {pin}")
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
    return totals


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    expected = load_expected()
    outcome.values["setup_s"] = import_seconds("repro.harness.experiments")
    passes: List[Tuple[float, Dict[str, float]]] = []
    slices = 0.0    # wall time in probe slices, summed over passes
    while True:
        with SpeedProbe() as probe:
            wall, fig12, fig17 = _regenerate(work / f"cache{len(passes)}")
        slices += wall * 1000.0 / probe.slice_ms
        if not passes:
            outcome.values["peak_rss_mb"] = own_peak_rss_mb()
        passes.append((wall, _check_pass(fig12, fig17, expected, outcome)))
        if trace or sum(w for w, _ in passes) + wall > seconds:
            break
    wall = sum(w for w, _ in passes)
    insts = sum(value for _, totals in passes
                for key, value in totals.items() if key.startswith("sim.insts"))
    # Every pass checks each of its simulations once.
    outcome.values["op_slices"] = slices / outcome.attempted
    outcome.details["op_ms"] = wall * 1000.0 / outcome.attempted
    outcome.details["sim_kinst_per_s"] = insts / 1000.0 / wall
    if trace:
        _traced_pass(passes[0], expected, work, outcome)
    return outcome


def _traced_pass(untraced: Tuple[float, Dict[str, float]], expected: Dict,
                 work: Path, outcome: Outcome) -> None:
    tracer = install(Tracer(work / "trace"))
    try:
        wall, fig12, fig17 = _regenerate(work / "cache-traced")
    finally:
        tracer.uninstall()
    _check_pass(fig12, fig17, expected, outcome)
    doc = merge_dir(tracer.out_dir, [tracer.snapshot()])
    values = layers.traced_values("figures-cold", doc, untraced[1], wall,
                                  outcome)
    prefetch_wall = doc["aggs"].get("harness.prefetch", (0, 0.0))[1]
    simulate = doc["aggs"].get("harness.simulate", (0, 0.0))[1]
    values["harness.pool.busy_ratio"] = (
        simulate / (NPROC * prefetch_wall) if prefetch_wall else 0.0)
    values["trace.overhead_ratio"] = wall / untraced[0]
    outcome.values = values
