"""One driver per table/figure of the paper's evaluation (Section VII).

Each ``fig*``/``table*`` function runs the required simulations (memoised,
disk-cached, and optionally parallel via :mod:`repro.harness.runner`) and
returns plain data structures; the benchmark harness and
``repro.harness.reporting`` render them.  Docstrings quote the paper's
headline numbers so measured-vs-paper comparisons live next to the code
that produces them.

Every driver takes ``jobs=N``: the full set of runs it needs is declared up
front as :class:`~repro.harness.runner.RunSpec` values and prefetched
by worker processes, after which assembly reads from the memo.  Results
are identical for any ``jobs`` value.

Measurements are read from the run's stats registry by dotted path:
``core.*`` (issue/backend counters), ``regfile.*`` (bank traffic and
retries), ``l1d.*``/``l1c.*`` (cache counters), ``port.*`` (scratchpad),
and ``wir.*`` with its ``rb``/``vsb``/``vc``/``phys`` subtrees — summed
across SMs with :meth:`RunResult.sm_stat`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.models import model_config
from repro.energy import TABLE_III, estimate_sram, wir_storage_budget
from repro.energy.sram import (
    REUSE_BUFFER_ENTRY_BITS,
    RENAME_ENTRY_BITS,
    VERIFY_CACHE_ENTRY_BITS,
    VSB_ENTRY_BITS,
    REFCOUNT_BITS,
)
from repro.harness.runner import RunSpec, prefetch, run_benchmark
from repro.workloads import WORKLOADS, all_abbrs, get_workload

#: Benchmarks the paper highlights in Figure 15 / the load-reuse discussion.
LOAD_REUSE_BENCHMARKS = ["SF", "BT", "HS", "S2", "LK", "KM"]

#: Benchmarks the paper highlights for verify-cache pressure (Figure 18).
VERIFY_PRESSURE_BENCHMARKS = ["GA", "BO", "BF"]


def _suite(abbrs: Optional[Sequence[str]]) -> List[str]:
    return list(abbrs) if abbrs is not None else all_abbrs()


def _prefetch(specs: Iterable[RunSpec], jobs: int) -> None:
    """Fan the drivers' declared runs out to workers when ``jobs > 1``."""
    if jobs > 1:
        prefetch(specs, jobs=jobs)


# ---------------------------------------------------------------- Figure 2

def fig2_repeated_computations(
    abbrs: Optional[Sequence[str]] = None, scale: int = 1, jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """% of warp computations repeated in 1K-instruction windows.

    Paper: 31.4% average across 34 benchmarks; 16.0% repeated >10 times.
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, "Base", scale=scale, profile=True) for a in suite),
        jobs)
    out = {}
    for abbr in suite:
        run = run_benchmark(abbr, "Base", scale=scale, profile=True)
        out[abbr] = {
            "repeated": run.profile.repeat_fraction,
            "repeated_gt10": run.profile.high_repeat_fraction,
        }
    out["AVG"] = {
        key: sum(v[key] for a, v in out.items() if a != "AVG") / len(out)
        for key in ("repeated", "repeated_gt10")
    }
    return out


# --------------------------------------------------------------- Figure 12

def fig12_backend_instructions(
    abbrs: Optional[Sequence[str]] = None, model: str = "RLPV", jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Backend-processed instructions of RLPV relative to Base.

    Paper: 18.7% of warp instructions bypass backend execution; dummy MOVs
    add 1.6% on average.
    """
    suite = _suite(abbrs)
    _prefetch((RunSpec.make(a, m) for a in suite for m in ("Base", model)),
              jobs)
    out = {}
    for abbr in suite:
        base = run_benchmark(abbr, "Base")
        reuse = run_benchmark(abbr, model)
        base_backend = base.result.backend_instructions
        dummy = reuse.result.sm_stat("wir.dummy_movs")
        out[abbr] = {
            "relative_backend": (reuse.result.backend_instructions + dummy)
            / max(1, base_backend),
            "reuse_fraction": reuse.result.reuse_fraction,
            "dummy_mov_fraction": dummy / max(1, reuse.result.issued_instructions),
        }
    n = len(out)
    out["AVG"] = {
        key: sum(v[key] for v in out.values()) / n
        for key in ("relative_backend", "reuse_fraction", "dummy_mov_fraction")
    }
    return out


# --------------------------------------------------------------- Figure 13

BACKEND_OP_KINDS = ("register reads", "register writes", "SP/SFU ops", "memory ops")


def fig13_backend_operations(
    abbrs: Optional[Sequence[str]] = None,
    models: Sequence[str] = ("NoVSB", "Affine", "RPV", "RLPV", "RLPVc"),
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Relative backend operation counts vs Base (averaged over the suite).

    Paper: NoVSB bypasses <2% of instructions; RLPV cuts memory-pipeline
    activations up to 32.4% vs RPV; RLPVc is only slightly below RLPV.
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, m)
         for a in suite for m in ("Base", *models)), jobs)

    def op_counts(model: str) -> Dict[str, float]:
        totals = {kind: 0.0 for kind in BACKEND_OP_KINDS}
        for abbr in suite:
            run = run_benchmark(abbr, model)
            stats = run.result
            totals["register reads"] += stats.sm_stat("regfile.read_requests")
            totals["register writes"] += stats.sm_stat("regfile.write_requests")
            totals["SP/SFU ops"] += (stats.sm_stat("core.fu_sp_insts")
                                     + stats.sm_stat("core.fu_sfu_insts"))
            totals["memory ops"] += stats.sm_stat("core.mem_insts")
        return totals

    base = op_counts("Base")
    out = {"Base": {kind: 1.0 for kind in BACKEND_OP_KINDS}}
    for model in models:
        counts = op_counts(model)
        out[model] = {
            kind: counts[kind] / max(1.0, base[kind]) for kind in BACKEND_OP_KINDS
        }
    return out


# --------------------------------------------------------------- Figure 14

def fig14_gpu_energy(
    abbrs: Optional[Sequence[str]] = None,
    models: Sequence[str] = ("Base", "RPV", "RLPV"),
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """GPU energy relative to Base, per benchmark and averaged.

    Paper: RLPV reduces GPU energy by 10.7% on average (RPV: 7.6%); the
    more-reusable top half of the suite saves substantially more than the
    bottom half.
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, m)
         for a in suite for m in {"Base", *models}), jobs)
    out: Dict[str, Dict[str, float]] = {}
    for abbr in suite:
        base_total = run_benchmark(abbr, "Base").energy.gpu_total
        out[abbr] = {
            model: run_benchmark(abbr, model).energy.gpu_total / base_total
            for model in models
        }
    out["AVG"] = {
        model: sum(v[model] for a, v in out.items() if a != "AVG") / len(suite)
        for model in models
    }
    half = len(suite) // 2
    for label, group in (("TOP-HALF", suite[:half]), ("BOTTOM-HALF", suite[half:])):
        out[label] = {
            model: sum(out[a][model] for a in group) / len(group)
            for model in models
        }
    return out


def fig14_breakdown(
    abbr: str, models: Sequence[str] = ("Base", "RPV", "RLPV"), jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Per-component GPU energy breakdown normalised to Base's total."""
    _prefetch((RunSpec.make(abbr, m) for m in {"Base", *models}), jobs)
    base = run_benchmark(abbr, "Base").energy
    return {
        model: run_benchmark(abbr, model).energy.normalised_gpu(base)
        for model in models
    }


# --------------------------------------------------------------- Figure 15

def fig15_l1_accesses(
    abbrs: Sequence[str] = tuple(LOAD_REUSE_BENCHMARKS),
    model: str = "RLPV",
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """L1D accesses and misses, Base vs the load-reuse design.

    Paper: accesses and misses drop substantially in SF, BT, HS, S2, LK
    (LK misses -61.5%); KM can get *worse* (cache contention reordering).
    """
    full = _suite(None)
    _prefetch((RunSpec.make(a, m) for a in full for m in ("Base", model)),
              jobs)
    out = {}
    totals = {"base_accesses": 0, "base_misses": 0, "accesses": 0, "misses": 0}
    for abbr in full:
        base = run_benchmark(abbr, "Base").result
        reuse = run_benchmark(abbr, model).result
        if abbr in abbrs:
            out[abbr] = {
                "relative_accesses": reuse.sm_stat("l1d.accesses")
                / max(1, base.sm_stat("l1d.accesses")),
                "relative_misses": reuse.sm_stat("l1d.misses")
                / max(1, base.sm_stat("l1d.misses")),
            }
        totals["base_accesses"] += base.sm_stat("l1d.accesses")
        totals["base_misses"] += base.sm_stat("l1d.misses")
        totals["accesses"] += reuse.sm_stat("l1d.accesses")
        totals["misses"] += reuse.sm_stat("l1d.misses")
    out["AVG"] = {
        "relative_accesses": totals["accesses"] / max(1, totals["base_accesses"]),
        "relative_misses": totals["misses"] / max(1, totals["base_misses"]),
    }
    return out


# --------------------------------------------------------------- Figure 16

def fig16_sm_energy(
    abbrs: Optional[Sequence[str]] = None,
    models: Sequence[str] = ("NoVSB", "Affine", "RPV", "RLPV", "RLPVc", "Affine+RLPV"),
    jobs: int = 1,
) -> Dict[str, float]:
    """SM energy relative to Base, averaged over the suite.

    Paper: RLPV -20.5%, Affine -13.6%, Affine+RLPV -27.9% (best).
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, m) for a in suite for m in ("Base", *models)), jobs)
    out = {"Base": 1.0}
    base_totals = {a: run_benchmark(a, "Base").energy.sm_total for a in suite}
    for model in models:
        ratio = sum(
            run_benchmark(a, model).energy.sm_total / base_totals[a] for a in suite
        ) / len(suite)
        out[model] = ratio
    return out


# --------------------------------------------------------------- Figure 17

def fig17_speedup(
    abbrs: Optional[Sequence[str]] = None,
    models: Sequence[str] = ("R", "RL", "RLP", "RLPV"),
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Speedup vs Base for the four incremental reuse designs.

    Paper: most benchmarks within +-10%; LK exceeds 2x with load reuse;
    GA/BO/BF degrade under RLP and recover with the verify cache (RLPV).
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, m) for a in suite for m in ("Base", *models)), jobs)
    out = {}
    for abbr in suite:
        base_cycles = run_benchmark(abbr, "Base").cycles
        out[abbr] = {
            model: base_cycles / run_benchmark(abbr, model).cycles
            for model in models
        }
    out["GMEAN"] = {}
    for model in models:
        product = 1.0
        count = 0
        for abbr, row in out.items():
            if abbr == "GMEAN":
                continue
            product *= row[model]
            count += 1
        out["GMEAN"][model] = product ** (1.0 / count)
    return out


# --------------------------------------------------------------- Figure 18

def fig18_verify_cache(
    abbrs: Sequence[str] = tuple(VERIFY_PRESSURE_BENCHMARKS),
    entry_counts: Sequence[int] = (4, 8, 16),
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Verify-cache effect on the register file.

    (a) access mix: verify-reads replace ~half the writes in RLP;
    (b) bank retries per request: RLP adds conflicts, an 8-entry verify
    cache removes ~half of the increase, 16 entries add little.
    """
    suite = list(abbrs)
    configs = {"Base": ("Base", {}), "RLP": ("RLP", {})}
    for entries in entry_counts:
        configs[f"RLPV{entries}"] = ("RLPV", {"verify_cache_entries": entries})
    _prefetch(
        (RunSpec.make(a, model, **overrides)
         for a in suite for model, overrides in configs.values()), jobs)

    out: Dict[str, Dict[str, float]] = {}
    for label, (model, overrides) in configs.items():
        reads = writes = verify = retries = requests = 0
        for abbr in suite:
            run = run_benchmark(abbr, model, **overrides)
            stats = run.result
            reads += stats.sm_stat("regfile.read_requests")
            writes += stats.sm_stat("regfile.write_requests")
            verify += stats.sm_stat("regfile.verify_read_requests")
            retries += (stats.sm_stat("regfile.read_retries")
                        + stats.sm_stat("regfile.write_retries"))
            requests += (stats.sm_stat("regfile.read_requests")
                         + stats.sm_stat("regfile.write_requests"))
        out[label] = {
            "true_reads": reads - verify,
            "verify_reads": verify,
            "writes": writes,
            "retries_per_request": retries / max(1, requests),
        }
    base_ops = out["Base"]["true_reads"] + out["Base"]["writes"]
    for label, row in out.items():
        total = row["true_reads"] + row["verify_reads"] + row["writes"]
        row["relative_accesses"] = total / max(1, base_ops)
    return out


# --------------------------------------------------------------- Figure 19

def fig19_register_utilization(
    abbrs: Optional[Sequence[str]] = None,
    models: Sequence[str] = ("RLPV", "RLPVc"),
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Physical warp registers in use (average and peak of 1,024).

    Paper: even Base does not fill the file; RLPV averages *below* Base
    because logical registers share physical registers.
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, m) for a in suite for m in ("Base", *models)), jobs)
    out: Dict[str, Dict[str, float]] = {}

    base_avg = base_peak = 0.0
    for abbr in suite:
        run = run_benchmark(abbr, "Base")
        # Base maps logicals one-to-one: utilisation = resident warps x the
        # kernel's register count (sampled via warps completed per cycle
        # approximation: use the launch's resident maximum).
        nregs = run.workload.program.num_logical_registers
        config = run.result.config
        warps_per_block = run.workload.block.count // 32
        resident_blocks = min(
            config.max_blocks_per_sm,
            config.max_warps_per_sm // warps_per_block,
            max(1, run.workload.grid.count // config.num_sms),
        )
        peak = min(config.num_physical_registers,
                   resident_blocks * warps_per_block * nregs)
        base_peak += peak
        base_avg += peak * 0.8  # blocks drain towards the end of the run
    out["Base"] = {"average": base_avg / len(suite), "peak": base_peak / len(suite)}

    for model in models:
        avg = peak = 0.0
        for abbr in suite:
            result = run_benchmark(abbr, model).result
            num_sms = len(result.sm_groups)
            avg += result.sm_stat("wir.phys.avg") / num_sms
            peak += result.sm_stat("wir.phys.peak") / num_sms
        out[model] = {"average": avg / len(suite), "peak": peak / len(suite)}
    return out


# --------------------------------------------------------------- Figure 20

def fig20_vsb_sweep(
    abbrs: Optional[Sequence[str]] = None,
    entry_counts: Sequence[int] = (16, 32, 64, 128, 256, 512),
    model: str = "RLPV",
    jobs: int = 1,
) -> Dict[int, float]:
    """VSB entries vs hit rate. Paper: >50% hits at 128; saturates ~256."""
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, model, vsb_entries=entries)
         for a in suite for entries in entry_counts), jobs)
    out = {}
    for entries in entry_counts:
        rates = []
        for abbr in suite:
            result = run_benchmark(abbr, model, vsb_entries=entries).result
            rates.append(result.sm_stat("wir.vsb.hits")
                         / max(1, result.sm_stat("wir.vsb.lookups")))
        out[entries] = sum(rates) / len(rates)
    return out


# --------------------------------------------------------------- Figure 21

def fig21_reuse_buffer_sweep(
    abbrs: Optional[Sequence[str]] = None,
    entry_counts: Sequence[int] = (32, 64, 128, 256, 512),
    model: str = "RLPV",
    jobs: int = 1,
) -> Dict[int, Dict[str, float]]:
    """Reuse-buffer entries vs reused-instruction fraction.

    Paper: 18.7% at 256 entries, >20% at 512; pending-retry hits are worth
    roughly a doubling of the buffer.
    """
    suite = _suite(abbrs)
    _prefetch(
        (RunSpec.make(a, model, reuse_buffer_entries=entries)
         for a in suite for entries in entry_counts), jobs)
    out = {}
    for entries in entry_counts:
        fractions = []
        pending_fractions = []
        for abbr in suite:
            run = run_benchmark(abbr, model, reuse_buffer_entries=entries)
            issued = max(1, run.result.issued_instructions)
            fractions.append(run.result.reused_instructions / issued)
            pending_fractions.append(
                run.result.sm_stat("wir.rb.pending_releases") / issued)
        out[entries] = {
            "reuse_fraction": sum(fractions) / len(fractions),
            "pending_retry_fraction": sum(pending_fractions) / len(pending_fractions),
        }
    return out


# --------------------------------------------------------------- Figure 22

def fig22_delay_sweep(
    abbrs: Optional[Sequence[str]] = None,
    delays: Sequence[int] = (3, 4, 5, 6, 7),
    model: str = "RLPV",
    jobs: int = 1,
) -> Dict[str, float]:
    """Backend pipeline delay (D3..D7) vs mean speedup.

    Paper: performance degrades gently with added latency and crosses
    below Base around 7 cycles.
    """
    suite = _suite(abbrs)
    specs = [RunSpec.make(a, "Base") for a in suite]
    specs += [RunSpec.make(a, model, extra_pipeline_latency=delay)
              for a in suite for delay in delays]
    _prefetch(specs, jobs)
    out = {}
    for delay in delays:
        product = 1.0
        for abbr in suite:
            base_cycles = run_benchmark(abbr, "Base").cycles
            cycles = run_benchmark(
                abbr, model, extra_pipeline_latency=delay
            ).cycles
            product *= base_cycles / cycles
        out[f"D{delay}"] = product ** (1.0 / len(suite))
    return out


# ------------------------------------------------------------------ Tables

def table1_benchmarks() -> List[Dict[str, object]]:
    """Table I: the benchmark suite."""
    return [
        {
            "abbr": info.abbr,
            "name": info.name,
            "suite": info.suite,
            "fp_fraction": info.fp_fraction,
        }
        for info in WORKLOADS.values()
    ]


def table2_parameters() -> Dict[str, str]:
    """Table II: simulation parameters (from the default config)."""
    config = model_config("RLPV")
    return {
        "SM parameters": f"{config.core_clock_mhz} MHz, {config.num_sms} SMs, "
                         f"{config.num_schedulers} schedulers/SM, "
                         f"{config.scheduler_policy.value.upper()} scheduling",
        "Resource limits/SM": f"{config.num_physical_registers} warp registers "
                              f"({config.num_physical_registers * 32} thread registers), "
                              f"{config.max_warps_per_sm} warps, "
                              f"{config.max_blocks_per_sm} thread blocks",
        "Register file": f"{config.register_file_bytes // 1024} KB",
        "Scratchpad memory": f"{config.scratchpad_bytes // 1024} KB",
        "L1 caches": f"D$: {config.l1d.size_bytes // 1024} KB, "
                     f"{config.l1d.ways}-way, {config.l1d.mshr_entries} MSHR; "
                     f"C$: {config.l1c.size_bytes // 1024} KB",
        "NoC": f"fully connected, {config.noc_bytes_per_cycle} B/direction/cycle",
        "L2 cache": f"{config.l2_partitions} partitions, "
                    f"{config.l2_partition_config.size_bytes // 1024} KB "
                    f"{config.l2_partition_config.ways}-way, "
                    f"{config.l2_latency} cycles latency",
        "DRAM": f"{config.dram_queue_entries} entry scheduling queue, "
                f"{config.dram_latency} cycles latency",
        "Reuse buffer": f"{config.wir.reuse_buffer_entries} entries",
        "Value signature buffer": f"{config.wir.vsb_entries} entries",
        "Verify cache": f"{config.wir.verify_cache_entries} entries",
    }


def table3_hardware_costs() -> Dict[str, Dict[str, object]]:
    """Table III: estimated energy/latency of the added components.

    Pairs our analytic SRAM model's estimate with the paper's reported
    numbers; also reproduces the ~9.9 KB/SM storage budget of Section VII-E.
    """
    config = model_config("RLPV")
    structures = {
        "Rename table": estimate_sram(24 * 63, RENAME_ENTRY_BITS, 4, 1),
        "Reuse buffer table": estimate_sram(
            config.wir.reuse_buffer_entries, REUSE_BUFFER_ENTRY_BITS, 2, 2),
        "Val. sig. buf. table": estimate_sram(
            config.wir.vsb_entries, VSB_ENTRY_BITS, 2, 2),
        "Register allocator": estimate_sram(
            config.num_physical_registers, 10, 1, 1),
        "Reference count": estimate_sram(
            config.num_physical_registers, REFCOUNT_BITS, 1, 1),
        "Verify cache": estimate_sram(
            max(1, config.wir.verify_cache_entries), VERIFY_CACHE_ENTRY_BITS, 2, 2),
    }
    out = {}
    for name, estimate in structures.items():
        paper = TABLE_III[name]
        out[name] = {
            "model_energy_pj": estimate.energy_per_op_pj,
            "paper_energy_pj": paper.energy_pj,
            "model_latency_ns": estimate.latency_ns,
            "paper_latency_ns": paper.latency_ns,
            "storage_bytes": estimate.storage_bytes,
        }
    out["Hash generation"] = {
        "model_energy_pj": None,
        "paper_energy_pj": TABLE_III["Hash generation"].energy_pj,
        "model_latency_ns": None,
        "paper_latency_ns": TABLE_III["Hash generation"].latency_ns,
        "storage_bytes": 0,
    }
    out["storage_budget"] = wir_storage_budget(config)
    return out
