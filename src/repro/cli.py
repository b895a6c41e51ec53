"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — benchmarks (Table I) and design points.
* ``run ABBR [--model M] ...``  — simulate one benchmark, print statistics
  (``--json OUT`` additionally dumps the full result registry as JSON).
* ``check [ABBR ...|--all]``    — referee benchmarks against the lockstep
  golden-model oracle (``--snapshot OUT`` writes a JSON divergence report
  on failure, e.g. for a CI artifact).
* ``cache verify [--prune]``    — audit the on-disk result cache's
  checksums, optionally deleting corrupt entries and sweeping orphaned
  temp files left behind by killed workers.
* ``ckpt save ABBR --cycle N --out PATH`` — run a workload to cycle N and
  snapshot the full simulator state; ``ckpt resume PATH`` finishes such a
  run bit-identically in a fresh process; ``ckpt inspect PATH`` validates
  a checkpoint's checksum and summarises its contents.
* ``trace ABBR [--chrome OUT] [--stalls]`` — run one workload with the
  observability layer armed: print the per-SM stall-attribution table and
  export a Chrome ``trace_event`` JSON (chrome://tracing / Perfetto).
* ``bench [--check] ...``       — time the simulator itself (cycles/sec,
  scalar vs fast engine, Base and RLPV) over the pinned subset; write
  ``BENCH_sim_throughput.json`` and optionally gate against the committed
  baseline (>15% normalized regression fails).
* ``pipeline show``             — print the composed stage graph (declared
  dataflow, engine bindings, stats, checkpointed state) for a config.
* ``campaign run ...``          — materialize a workload × model × scale ×
  seed × sweep matrix into a crash-safe job graph and drive it with
  leased, checkpoint-resuming workers; ``campaign status`` reports
  progress/failures of any campaign (running or dead), ``campaign
  resume`` restarts the worker fleet, ``campaign work`` is one worker
  process (normally spawned by ``run``; start it on each host over a
  shared cache dir to spread a campaign across machines).
* ``serve --dir DIR``           — results-as-a-service: an asyncio HTTP API
  answering figure queries from the checksummed result cache (digest-derived
  ETags, 304 revalidation); misses become 202 + durable campaign jobs.
* ``query FIG --workload W``    — the same figure document ``serve`` would
  return, computed locally through the harness (simulating on miss); the
  serve test battery pins the two byte-identical.
* ``compare ABBR``              — one benchmark across the whole model zoo.
* ``profile ABBR``              — Figure 2 repeated-computation profile.
* ``experiment NAME``           — run one figure/table driver (fig2..fig22,
  table1..table3) and print the rendered rows; ``--jobs N`` simulates in
  parallel, ``--json OUT`` dumps the raw data.
* ``params``                    — Table II simulation parameters.

Set ``REPRO_CACHE_DIR`` to persist simulation results on disk between
invocations (see :mod:`repro.harness.runner`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.models import MODEL_ORDER, model_names
from repro.harness import experiments, reporting
from repro.harness.runner import RunSpec, prefetch, run_benchmark
from repro.workloads import DEMO_WORKLOADS, WORKLOADS, all_abbrs

EXPERIMENTS = {
    "fig2": (experiments.fig2_repeated_computations, "per-benchmark", True),
    "fig12": (experiments.fig12_backend_instructions, "per-benchmark", False),
    "fig13": (experiments.fig13_backend_operations, "per-benchmark", False),
    "fig14": (experiments.fig14_gpu_energy, "per-benchmark", False),
    "fig15": (experiments.fig15_l1_accesses, "per-benchmark", False),
    "fig16": (experiments.fig16_sm_energy, "series", False),
    "fig17": (experiments.fig17_speedup, "per-benchmark", False),
    "fig18": (experiments.fig18_verify_cache, "per-benchmark", False),
    "fig19": (experiments.fig19_register_utilization, "per-benchmark", False),
    "fig20": (experiments.fig20_vsb_sweep, "series", False),
    "fig21": (experiments.fig21_reuse_buffer_sweep, "series", False),
    "fig22": (experiments.fig22_delay_sweep, "series", False),
}


def _write_json(text: str, dest: str) -> None:
    """Write a JSON payload to a file, or stdout when *dest* is ``-``."""
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n")


def _cmd_list(_args) -> int:
    rows = [[info.abbr, info.name, info.suite,
             "-" if info.fp_fraction is None else f"{info.fp_fraction:.0%}"]
            for info in WORKLOADS.values()]
    print(reporting.format_table(["abbr", "name", "suite", "%FP"], rows,
                                 title="Benchmarks (Table I, Figure 2 order)"))
    print()
    print("Design points:", ", ".join(MODEL_ORDER))
    return 0


def _cmd_run(args) -> int:
    run = run_benchmark(args.benchmark, args.model, scale=args.scale,
                        seed=args.seed, num_sms=args.sms)
    result = run.result
    print(f"{args.benchmark} on {args.model} "
          f"({args.sms} SMs, scale {args.scale}, seed {args.seed})")
    print(f"  cycles                 {result.cycles}")
    print(f"  issued instructions    {result.issued_instructions}")
    print(f"  backend instructions   {result.backend_instructions}")
    print(f"  reused instructions    {result.reused_instructions} "
          f"({result.reuse_fraction:.1%})")
    print(f"  reused loads           {result.sm_stat('core.reused_loads')}")
    print(f"  L1D accesses / misses  {result.sm_stat('l1d.accesses')} / "
          f"{result.sm_stat('l1d.misses')}")
    print(f"  DRAM accesses          {result.stat('memory.dram.accesses')}")
    print(f"  SM energy              {run.energy.sm_total / 1e6:.2f} uJ")
    print(f"  GPU energy             {run.energy.gpu_total / 1e6:.2f} uJ")
    if "wir" in result.sm_groups[0].children:
        vsb_hits = result.sm_stat("wir.vsb.hits")
        vsb_lookups = result.sm_stat("wir.vsb.lookups")
        print(f"  VSB hit rate           {vsb_hits / max(1, vsb_lookups):.1%}")
        print(f"  dummy MOVs             {result.sm_stat('wir.dummy_movs')}")
        print(f"  verify-reads (bank)    {result.sm_stat('wir.verify_reads')}")
    if args.json:
        _write_json(result.to_json(indent=2), args.json)
    return 0


def _cmd_compare(args) -> int:
    if args.jobs > 1:
        prefetch((RunSpec.make(args.benchmark, model, num_sms=args.sms)
                  for model in ["Base"] + list(MODEL_ORDER)), jobs=args.jobs)
    base = run_benchmark(args.benchmark, "Base", num_sms=args.sms)
    rows = []
    for model in MODEL_ORDER:
        run = run_benchmark(args.benchmark, model, num_sms=args.sms)
        rows.append([
            model,
            f"{run.reuse_fraction:.1%}",
            f"{base.cycles / run.cycles:.3f}",
            f"{run.energy.sm_total / base.energy.sm_total:.3f}",
            f"{run.energy.gpu_total / base.energy.gpu_total:.3f}",
        ])
    print(reporting.format_table(
        ["model", "reused", "speedup", "SM energy/Base", "GPU energy/Base"],
        rows, title=f"{args.benchmark} across the model zoo"))
    return 0


def _cmd_profile(args) -> int:
    run = run_benchmark(args.benchmark, "Base", num_sms=args.sms, profile=True)
    profile = run.profile
    print(f"{args.benchmark}: {profile.instructions} instructions profiled "
          f"in {profile.windows} full 1K windows")
    print(f"  repeated computations: {profile.repeat_fraction:.1%} "
          f"(paper suite average: 31.4%)")
    print(f"  repeated more than 10x: {profile.high_repeat_fraction:.1%}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        driver, kind, percent = EXPERIMENTS[args.name]
    except KeyError:
        if args.name == "table1":
            return _cmd_list(args)
        if args.name == "table2":
            return _cmd_params(args)
        if args.name == "table3":
            data = experiments.table3_hardware_costs()
            if args.json:
                _write_json(json.dumps(data, indent=2, default=str), args.json)
            for name, row in data.items():
                print(name, row)
            return 0
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(EXPERIMENTS)} or table1/table2/table3",
              file=sys.stderr)
        return 2
    # Only pass jobs through when parallelism was requested, so drivers (and
    # test stand-ins) without a jobs parameter keep working.
    data = driver(jobs=args.jobs) if args.jobs > 1 else driver()
    if kind == "per-benchmark":
        print(reporting.render_per_benchmark(data, title=args.name,
                                             percent=percent))
    else:
        print(reporting.render_series(data, "x", "value", title=args.name))
    if args.json:
        _write_json(json.dumps(data, indent=2, default=str), args.json)
    return 0


def _cmd_check(args) -> int:
    from repro.check import CheckError, check_benchmark

    abbrs = list(args.benchmarks) or (all_abbrs() if args.all else [])
    if not abbrs:
        print("check: name at least one benchmark or pass --all",
              file=sys.stderr)
        return 2
    unknown = [abbr for abbr in abbrs if abbr not in all_abbrs()]
    if unknown:
        print(f"check: unknown benchmark(s) {', '.join(unknown)} "
              f"(see 'repro list')", file=sys.stderr)
        return 2
    failed = 0
    for abbr in abbrs:
        try:
            info = check_benchmark(abbr, model=args.model, scale=args.scale,
                                   seed=args.seed, num_sms=args.sms)
        except CheckError as err:
            failed += 1
            print(f"FAIL {abbr:<4} {err}")
            if args.snapshot:
                snapshot = (err.to_dict() if hasattr(err, "to_dict")
                            else {"kind": "invariant", "message": str(err),
                                  "benchmark": abbr})
                _write_json(json.dumps(snapshot, indent=2, default=str),
                            args.snapshot)
        else:
            print(f"OK   {abbr:<4} {info['cycles']} cycles, "
                  f"{info['instructions']} instructions refereed, "
                  f"{info['commits']} commits checked")
    print(f"{len(abbrs) - failed}/{len(abbrs)} benchmarks verified "
          f"against the golden model ({args.model})")
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from repro.core.models import model_config
    from repro.sim.gpu import GPU, KernelLaunch
    from repro.trace import export_chrome_trace, validate_chrome_trace
    from repro.workloads import build_workload

    config = model_config(args.model)
    config.num_sms = args.sms
    config.trace.stalls = True
    config.trace.enabled = True
    config.trace.ring_capacity = args.ring_capacity
    config.trace.sample_period = args.sample_period
    config.trace.sample_window = args.sample_window

    workload = build_workload(args.benchmark, scale=args.scale, seed=args.seed)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    result = GPU(config).run(launch)
    workload.verify()

    print(f"{args.benchmark} on {args.model} "
          f"({args.sms} SMs, scale {args.scale}, seed {args.seed}): "
          f"{result.cycles} cycles, {result.issued_instructions} issued")

    # Conservation is the layer's core invariant; trip hard if it fails.
    violations = []
    for sm in result.sm_groups:
        stall = sm.lookup("stall")
        try:
            stall.check_conservation()
        except AssertionError as err:
            violations.append(str(err))
    if violations:
        for violation in violations:
            print(f"CONSERVATION VIOLATION: {violation}", file=sys.stderr)
        return 1

    if args.stalls:
        print()
        print(reporting.render_stall_table(
            result.stall_breakdown(),
            title=f"Stall attribution — {args.benchmark}/{args.model}"))

    if args.chrome:
        trace = export_chrome_trace(result.trace, path=args.chrome)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"TRACE SCHEMA PROBLEM: {problem}", file=sys.stderr)
            return 1
        ring = result.trace.ring
        print(f"\nwrote {args.chrome}: {len(trace['traceEvents'])} events"
              + (f" ({ring.dropped} dropped at ring capacity "
                 f"{ring.capacity})" if ring.dropped else ""))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (DEFAULT_REPORT_NAME, ENGINES, MODELS,
                             PINNED_SUBSET, BenchReport, compare_reports,
                             measure_subset, speedup_table)

    baseline_path = Path(args.baseline or DEFAULT_REPORT_NAME)
    if args.check and not baseline_path.exists():
        print(f"bench: no baseline at {baseline_path} "
              "(run 'repro bench' once and commit the report)",
              file=sys.stderr)
        return 2

    subset = PINNED_SUBSET
    if args.quick:
        # Small-scale spot check (CI smoke / local sanity): same workloads,
        # lighter scales, one rep.  Never written over the committed report.
        subset = tuple((abbr, max(1, scale - 2)) for abbr, scale in subset)
    reps = 1 if args.quick else args.reps

    print(f"timing {len(subset)} workloads x {len(MODELS)} models x "
          f"{len(ENGINES)} engines, best of {reps} "
          f"rep{'s' if reps != 1 else ''} ...")
    report = measure_subset(reps=reps, subset=subset, progress=print)
    for model in MODELS:
        for engine in ENGINES:
            cps = report.aggregate_cps(model, engine)
            norm = report.aggregate_cps(model, engine, normalized=True)
            print(f"aggregate {model:<5} {engine:<7} {cps:,.0f} cycles/sec "
                  f"(normalized {norm:,.0f})")
        print(f"{model} fast speedup: {report.speedup(model):.2f}x")

    out = args.out
    if out is None and not args.quick and not args.check:
        out = DEFAULT_REPORT_NAME
    if out is not None:
        Path(out).write_text(report.to_json())
        print(f"wrote {out}")
    if args.table is not None:
        Path(args.table).write_text(speedup_table(report))
        print(f"wrote {args.table}")

    if args.check:
        gate = compare_reports(report, BenchReport.load(baseline_path))
        for message in gate.messages:
            print(message)
        if not gate.ok:
            print("bench: throughput regression gate FAILED", file=sys.stderr)
            return 1
        print("bench: throughput regression gate passed")
    return 0


def _cmd_cache_verify(args) -> int:
    from repro.harness.runner import cache_dir, verify_cache_dir

    base = args.dir or cache_dir()
    if base is None:
        print("cache verify: no cache directory (set REPRO_CACHE_DIR or "
              "pass --dir)", file=sys.stderr)
        return 2
    report = verify_cache_dir(base, prune=args.prune)
    print(f"{base}: {report.total} entries — {report.ok} ok, "
          f"{report.corrupt} corrupt, {report.unaddressable} "
          f"unaddressable, {report.version_mismatch} "
          f"older-format, {report.tmp_orphans} orphaned temp file"
          + ("" if report.tmp_orphans == 1 else "s"))
    if report.ckpt_orphans or report.lease_expired:
        print(f"  campaign debris: {report.ckpt_orphans} orphaned "
              f"checkpoint slot" + ("" if report.ckpt_orphans == 1 else "s")
              + f", {report.lease_expired} expired lease file"
              + ("" if report.lease_expired == 1 else "s"))
    if report.ckpt_leased or report.tmp_fresh:
        print(f"  in use (left alone): {report.ckpt_leased} leased "
              f"checkpoint slot" + ("" if report.ckpt_leased == 1 else "s")
              + f", {report.tmp_fresh} fresh temp file"
              + ("" if report.tmp_fresh == 1 else "s"))
    for path in report.corrupt_paths:
        print(f"  corrupt: {path}" + ("  (deleted)" if args.prune else ""))
    if args.prune and report.pruned:
        print(f"pruned {report.pruned} corrupt entr"
              + ("y" if report.pruned == 1 else "ies"))
    if args.prune and report.unaddressable_pruned:
        print(f"pruned {report.unaddressable_pruned} unaddressable entr"
              + ("y" if report.unaddressable_pruned == 1 else "ies"))
    if args.prune and report.tmp_pruned:
        print(f"swept {report.tmp_pruned} orphaned temp file"
              + ("" if report.tmp_pruned == 1 else "s"))
    if args.prune and (report.ckpt_pruned or report.lease_pruned):
        print(f"swept {report.ckpt_pruned} spent checkpoint slot"
              + ("" if report.ckpt_pruned == 1 else "s")
              + f" and {report.lease_pruned} expired lease"
              + ("" if report.lease_pruned == 1 else "s"))
    return 1 if report.corrupt and not args.prune else 0


def _cmd_ckpt_save(args) -> int:
    from repro.ckpt import write_checkpoint
    from repro.core.models import model_config
    from repro.sim.gpu import GPU, KernelLaunch
    from repro.workloads import build_workload

    config = model_config(args.model)
    config.num_sms = args.sms
    config.exec_engine = args.engine
    workload = build_workload(args.benchmark, scale=args.scale, seed=args.seed)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    gpu = GPU(config)
    gpu.checkpoint_meta_extra = {
        "workload": {"abbr": args.benchmark, "scale": args.scale,
                     "seed": args.seed},
    }
    status, payload = gpu.run_to_cycle(launch, args.cycle)
    if status == "done":
        print(f"ckpt save: {args.benchmark} completed at cycle "
              f"{payload.cycles}, before the requested cycle {args.cycle}; "
              "nothing to checkpoint", file=sys.stderr)
        return 1
    write_checkpoint(Path(args.out), payload,
                     meta=gpu.checkpoint_meta(launch))
    print(f"wrote {args.out}: {args.benchmark}/{args.model} "
          f"({args.engine} engine) paused at cycle {payload['cycle']}, "
          f"{payload['next_block_index']}/{launch.total_blocks} blocks "
          "dispatched")
    return 0


def _cmd_ckpt_resume(args) -> int:
    from repro.ckpt import CheckpointError, read_checkpoint
    from repro.sim.config import GPUConfig
    from repro.sim.gpu import GPU, KernelLaunch
    from repro.stats import dataclass_from_dict
    from repro.workloads import build_workload

    try:
        ckpt = read_checkpoint(Path(args.path))
    except CheckpointError as err:
        print(f"ckpt resume: {args.path}: {err}", file=sys.stderr)
        return 1
    meta = ckpt["meta"]
    workload_meta = meta.get("workload")
    if not workload_meta:
        print("ckpt resume: checkpoint meta carries no workload identity "
              "(written by an external tool?)", file=sys.stderr)
        return 1
    config = dataclass_from_dict(GPUConfig, meta["config"])
    workload = build_workload(workload_meta["abbr"],
                              scale=workload_meta["scale"],
                              seed=workload_meta["seed"])
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    try:
        result = GPU(config).run(launch, resume=ckpt["state"])
    except CheckpointError as err:
        print(f"ckpt resume: {args.path}: {err}", file=sys.stderr)
        return 1
    workload.verify()
    print(f"resumed {workload_meta['abbr']} from cycle "
          f"{ckpt['state']['cycle']} and completed at cycle {result.cycles} "
          f"({result.issued_instructions} instructions issued; "
          "workload output verified)")
    if args.json:
        _write_json(result.to_json(indent=2), args.json)
    return 0


def _cmd_ckpt_inspect(args) -> int:
    from repro.ckpt import CheckpointError, inspect_checkpoint

    try:
        info = inspect_checkpoint(Path(args.path))
    except CheckpointError as err:
        print(f"ckpt inspect: {args.path}: {err}", file=sys.stderr)
        return 1
    print(json.dumps(info, indent=2, default=str))
    return 0


def _cmd_pipeline_show(args) -> int:
    from repro import MemoryImage, assemble
    from repro.core.models import model_config
    from repro.sim.memory.subsystem import MemorySubsystem
    from repro.sim.smcore import SMCore

    config = model_config(args.model)
    config.exec_engine = args.engine
    # A one-instruction program: stage composition depends only on config.
    sm = SMCore(0, config, assemble("    exit"),
                MemorySubsystem(config, MemoryImage()))
    stages = sm.pipeline.describe()
    if args.json:
        _write_json(json.dumps(stages, indent=2), args.json)
        return 0
    print(f"pipeline for model {args.model} ({args.engine} engine) — "
          f"{len(stages)} stages")
    for desc in stages:
        print(f"\n{desc['name']}  [{desc['binding']}]")
        print(f"  in:    {', '.join(desc['inputs']) or '-'}")
        print(f"  out:   {', '.join(desc['outputs']) or '-'}")
        if desc["state_fields"]:
            print(f"  state: {', '.join(desc['state_fields'])}")
        if desc["stats"]:
            print(f"  stats: {', '.join(desc['stats'])}")
    return 0


def _campaign_base(args) -> Optional[Path]:
    from repro.harness.runner import cache_dir
    base = Path(args.dir) if args.dir else cache_dir()
    if base is None:
        print("campaign: no cache directory (set REPRO_CACHE_DIR or pass "
              "--dir)", file=sys.stderr)
    return base


def _parse_sweeps(pairs: List[str]) -> dict:
    """``--sweep name=v1,v2`` flags into MatrixSpec sweep kwargs."""
    sweeps = {}
    for pair in pairs or []:
        name, _, values = pair.partition("=")
        if not values:
            raise SystemExit(f"campaign: malformed --sweep {pair!r} "
                             "(want name=v1,v2,...)")
        def convert(text):
            for caster in (int, float):
                try:
                    return caster(text)
                except ValueError:
                    continue
            return text
        sweeps[name] = tuple(convert(v) for v in values.split(","))
    return sweeps


def _campaign_matrix(args):
    from repro.campaign import MatrixSpec
    if args.spec:
        return MatrixSpec.from_dict(json.loads(Path(args.spec).read_text()))
    benchmarks = all_abbrs() if args.all else [
        abbr for abbr in (args.benchmarks or "").split(",") if abbr]
    if not benchmarks:
        raise SystemExit("campaign run: name benchmarks with --benchmarks "
                         "A,B,... or pass --all / --spec FILE")
    unknown = [abbr for abbr in benchmarks if abbr not in all_abbrs()]
    if unknown:
        raise SystemExit(f"campaign run: unknown benchmark(s) "
                         f"{', '.join(unknown)} (see 'repro list')")
    return MatrixSpec.make(
        benchmarks,
        models=tuple(args.models.split(",")),
        scales=tuple(int(s) for s in args.scales.split(",")),
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        num_sms=args.sms,
        **_parse_sweeps(args.sweep))


def _finish_campaign(campaign, args) -> int:
    from repro.campaign import campaign_status, render_status
    status = campaign_status(campaign)
    print(render_status(status))
    if args.json:
        _write_json(json.dumps(status.to_dict(), indent=2, default=str),
                    args.json)
    return 0 if status.complete and not status.counts.get("quarantined") \
        else 1


def _campaign_errors_as_exit_2(cmd):
    """Report a :class:`CampaignError` (unknown id, incompatible manifest,
    bad cadence) as one stderr line and exit code 2, not a traceback."""
    @functools.wraps(cmd)
    def wrapped(args) -> int:
        from repro.campaign import CampaignError
        try:
            return cmd(args)
        except CampaignError as err:
            print(f"campaign: {err}", file=sys.stderr)
            return 2
    return wrapped


@_campaign_errors_as_exit_2
def _cmd_campaign_run(args) -> int:
    from repro.campaign import Campaign, run_campaign

    base = _campaign_base(args)
    if base is None:
        return 2
    matrix = _campaign_matrix(args)
    campaign = Campaign.create(
        matrix, base=base, checkpoint_every=args.checkpoint_every,
        ttl=args.ttl, max_attempts=args.max_attempts)
    print(f"campaign {campaign.id}: {len(campaign.jobs)} jobs under "
          f"{campaign.root}")
    report = run_campaign(campaign, workers=args.workers, chaos=args.chaos,
                          progress=print)
    print(f"converged: {report.done} done, {report.quarantined} "
          f"quarantined of {report.total} "
          f"({report.respawns} worker respawns, {report.worker_kills} "
          "killed)")
    return _finish_campaign(campaign, args)


@_campaign_errors_as_exit_2
def _cmd_campaign_resume(args) -> int:
    from repro.campaign import Campaign, run_campaign

    base = _campaign_base(args)
    if base is None:
        return 2
    campaign = Campaign.open(args.id, base=base)
    report = run_campaign(campaign, workers=args.workers, progress=print)
    print(f"converged: {report.done} done, {report.quarantined} "
          f"quarantined of {report.total}")
    return _finish_campaign(campaign, args)


@_campaign_errors_as_exit_2
def _cmd_campaign_status(args) -> int:
    from repro.campaign import Campaign, list_campaigns

    base = _campaign_base(args)
    if base is None:
        return 2
    campaign_id = args.id
    if campaign_id is None:
        known = list_campaigns(base)
        if len(known) == 1:
            campaign_id = known[0]
        else:
            print("campaigns under", base / "campaign", ":",
                  ", ".join(known) or "none")
            return 0 if known else 1
    return _finish_campaign(Campaign.open(campaign_id, base=base), args)


@_campaign_errors_as_exit_2
def _cmd_campaign_work(args) -> int:
    from repro.campaign import worker_main

    return worker_main(Path(args.dir), args.id, args.worker_id,
                       chaos=args.chaos)


def _cmd_serve(args) -> int:
    from repro.harness.runner import cache_dir
    from repro.serve import ResilienceConfig, serve_forever

    base = Path(args.dir) if args.dir else cache_dir()
    if base is None:
        print("serve: no cache directory (pass --dir or set "
              "REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    resilience = ResilienceConfig(
        max_concurrent=args.max_concurrent,
        max_pending_jobs=args.max_pending_jobs,
        default_deadline=args.deadline,
        header_timeout=args.header_timeout,
        breaker_failures=args.breaker_failures,
        breaker_cooldown=args.breaker_cooldown,
        drain_deadline=args.drain_deadline,
        shutdown_grace=args.shutdown_grace,
    )
    serve_forever(base, host=args.host, port=args.port,
                  access_log=Path(args.access_log) if args.access_log
                  else None,
                  worker=not args.no_worker,
                  ready=Path(args.ready) if args.ready else None,
                  resilience=resilience)
    return 0


def _query_params(args) -> dict:
    """The CLI flags as the multi-valued mapping ``parse_query`` takes —
    so ``repro query`` validates byte-for-byte like the HTTP endpoint."""
    params = {}
    if args.workload is not None:
        params["workload"] = [args.workload]
    for name in ("model", "scale", "seed", "sms"):
        value = getattr(args, name)
        if value is not None:
            params[name] = [str(value)]
    return params


def _cmd_query(args) -> int:
    from repro.serve import (QueryError, canonical_json, figure_document,
                             load_via_harness, parse_query)

    if args.dir:
        from repro.harness.runner import set_cache_dir
        set_cache_dir(Path(args.dir))
    try:
        query = parse_query(args.fig, _query_params(args), suite=args.suite)
    except QueryError as err:
        print(f"query: {err}", file=sys.stderr)
        return 2
    print(canonical_json(figure_document(query, load_via_harness(query))))
    return 0


def _cmd_params(_args) -> int:
    params = experiments.table2_parameters()
    print(reporting.format_table(["parameter", "value"], list(params.items()),
                                 title="Table II — simulation parameters"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WIR (HPCA 2018) reproduction — simulator front door",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="benchmarks and design points").set_defaults(
        func=_cmd_list)
    sub.add_parser("params", help="Table II parameters").set_defaults(
        func=_cmd_params)

    def add_bench_args(p, with_model=True):
        p.add_argument("benchmark", choices=all_abbrs(), metavar="ABBR",
                       help="benchmark abbreviation (see 'repro list')")
        if with_model:
            p.add_argument("--model", default="RLPV", choices=model_names())
        p.add_argument("--sms", type=int, default=2)
        p.add_argument("--scale", type=int, default=1)
        p.add_argument("--seed", type=int, default=7)

    run_parser = sub.add_parser("run", help="simulate one benchmark")
    add_bench_args(run_parser)
    run_parser.add_argument("--json", metavar="OUT", default=None,
                            help="dump the result registry as JSON "
                                 "('-' for stdout)")
    run_parser.set_defaults(func=_cmd_run)

    check_parser = sub.add_parser(
        "check", help="verify benchmarks against the lockstep oracle")
    check_parser.add_argument("benchmarks", nargs="*", metavar="ABBR",
                              help="benchmarks to check (default: use --all)")
    check_parser.add_argument("--all", action="store_true",
                              help="check every benchmark")
    check_parser.add_argument("--model", default="RLPV", choices=model_names())
    check_parser.add_argument("--sms", type=int, default=2)
    check_parser.add_argument("--scale", type=int, default=1)
    check_parser.add_argument("--seed", type=int, default=7)
    check_parser.add_argument("--snapshot", metavar="OUT", default=None,
                              help="on failure, write a JSON divergence "
                                   "snapshot ('-' for stdout)")
    check_parser.set_defaults(func=_cmd_check)

    cache_parser = sub.add_parser("cache", help="on-disk result cache tools")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    verify_parser = cache_sub.add_parser(
        "verify", help="audit cache entry checksums")
    verify_parser.add_argument("--dir", default=None,
                               help="cache directory (default: "
                                    "REPRO_CACHE_DIR)")
    verify_parser.add_argument("--prune", action="store_true",
                               help="delete corrupt entries")
    verify_parser.set_defaults(func=_cmd_cache_verify)

    ckpt_parser = sub.add_parser(
        "ckpt", help="checkpoint/resume tools (repro.ckpt)")
    ckpt_sub = ckpt_parser.add_subparsers(dest="ckpt_command", required=True)
    ckpt_save = ckpt_sub.add_parser(
        "save", help="run a workload to a cycle and snapshot its state")
    ckpt_save.add_argument("benchmark", choices=all_abbrs(), metavar="ABBR",
                           help="benchmark abbreviation (see 'repro list')")
    ckpt_save.add_argument("--cycle", type=int, required=True,
                           help="pause and snapshot at this cycle")
    ckpt_save.add_argument("--out", metavar="PATH", required=True,
                           help="checkpoint file to write")
    ckpt_save.add_argument("--model", default="RLPV", choices=model_names())
    ckpt_save.add_argument("--sms", type=int, default=2)
    ckpt_save.add_argument("--scale", type=int, default=1)
    ckpt_save.add_argument("--seed", type=int, default=7)
    ckpt_save.add_argument("--engine", default="fast",
                           choices=("scalar", "fast"))
    ckpt_save.set_defaults(func=_cmd_ckpt_save)
    ckpt_resume = ckpt_sub.add_parser(
        "resume", help="finish a checkpointed run in this process")
    ckpt_resume.add_argument("path", metavar="PATH",
                             help="checkpoint file written by 'ckpt save' "
                                  "or a timed-out harness job")
    ckpt_resume.add_argument("--json", metavar="OUT", default=None,
                             help="dump the final result registry as JSON "
                                  "('-' for stdout)")
    ckpt_resume.set_defaults(func=_cmd_ckpt_resume)
    ckpt_inspect = ckpt_sub.add_parser(
        "inspect", help="validate a checkpoint and summarise its contents")
    ckpt_inspect.add_argument("path", metavar="PATH")
    ckpt_inspect.set_defaults(func=_cmd_ckpt_inspect)

    pipeline_parser = sub.add_parser(
        "pipeline", help="stage pipeline tools (repro.pipeline)")
    pipeline_sub = pipeline_parser.add_subparsers(dest="pipeline_command",
                                                  required=True)
    pipeline_show = pipeline_sub.add_parser(
        "show", help="print the composed stage graph for a config")
    pipeline_show.add_argument("--model", default="RLPV",
                               choices=model_names())
    pipeline_show.add_argument("--engine", default="fast",
                               choices=("scalar", "fast"))
    pipeline_show.add_argument("--json", metavar="OUT", default=None,
                               help="dump stage descriptions as JSON "
                                    "('-' for stdout)")
    pipeline_show.set_defaults(func=_cmd_pipeline_show)

    campaign_parser = sub.add_parser(
        "campaign", help="crash-safe experiment campaigns (repro.campaign)")
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command",
                                                  required=True)

    def add_campaign_common(p):
        p.add_argument("--dir", default=None,
                       help="cache directory (default: REPRO_CACHE_DIR)")
        p.add_argument("--json", metavar="OUT", default=None,
                       help="dump the status report as JSON ('-' for "
                            "stdout)")

    campaign_run = campaign_sub.add_parser(
        "run", help="materialize a matrix and drive it with workers")
    add_campaign_common(campaign_run)
    campaign_run.add_argument("--benchmarks", default=None, metavar="A,B,...",
                              help="benchmark abbreviations")
    campaign_run.add_argument("--all", action="store_true",
                              help="every Table I benchmark")
    campaign_run.add_argument("--spec", metavar="FILE", default=None,
                              help="matrix as JSON (MatrixSpec.to_dict)")
    campaign_run.add_argument("--models", default="Base,RLPV")
    campaign_run.add_argument("--scales", default="1")
    campaign_run.add_argument("--seeds", default="7")
    campaign_run.add_argument("--sms", type=int, default=2)
    campaign_run.add_argument("--sweep", action="append", default=[],
                              metavar="NAME=V1,V2",
                              help="WIR config sweep axis (repeatable)")
    campaign_run.add_argument("--workers", type=int, default=2,
                              help="local worker processes (default 2)")
    campaign_run.add_argument("--ttl", type=float, default=30.0,
                              help="lease lifetime in seconds (default 30)")
    campaign_run.add_argument("--max-attempts", type=int, default=3,
                              help="kills/failures before quarantine")
    campaign_run.add_argument("--checkpoint-every", type=int, default=2000,
                              help="checkpoint cadence in cycles")
    campaign_run.add_argument("--chaos", default=None, metavar="SPEC",
                              help="fault injection for tests/CI, e.g. "
                                   "'window:1.0:7' (SIGKILL workers at "
                                   "first-window checkpoint writes)")
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="restart the worker fleet of an existing campaign")
    add_campaign_common(campaign_resume)
    campaign_resume.add_argument("id", metavar="ID")
    campaign_resume.add_argument("--workers", type=int, default=2)
    campaign_resume.set_defaults(func=_cmd_campaign_resume)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="progress, failure history, and ETA of a campaign")
    add_campaign_common(campaign_status_p)
    campaign_status_p.add_argument("id", nargs="?", default=None,
                                   metavar="ID",
                                   help="campaign id (omit to list; "
                                        "auto-selected when only one "
                                        "exists)")
    campaign_status_p.set_defaults(func=_cmd_campaign_status)

    campaign_work = campaign_sub.add_parser(
        "work", help="run one campaign worker process (spawned by 'run')")
    campaign_work.add_argument("--dir", required=True,
                               help="cache directory")
    campaign_work.add_argument("--id", required=True, help="campaign id")
    campaign_work.add_argument("--worker-id", required=True)
    campaign_work.add_argument("--chaos", default=None)
    campaign_work.set_defaults(func=_cmd_campaign_work)

    trace_parser = sub.add_parser(
        "trace", help="stall attribution + Chrome trace for one workload")
    trace_parser.add_argument(
        "benchmark", choices=all_abbrs() + list(DEMO_WORKLOADS),
        metavar="ABBR", help="benchmark abbreviation or demo workload "
                             "(see 'repro list'; demos: "
                             + ", ".join(DEMO_WORKLOADS) + ")")
    trace_parser.add_argument("--model", default="RLPV", choices=model_names())
    trace_parser.add_argument("--sms", type=int, default=2)
    trace_parser.add_argument("--scale", type=int, default=1)
    trace_parser.add_argument("--seed", type=int, default=7)
    trace_parser.add_argument("--stalls", action="store_true",
                              help="print the per-SM stall breakdown table")
    trace_parser.add_argument("--chrome", metavar="OUT", default=None,
                              help="write a Chrome trace_event JSON "
                                   "(load in chrome://tracing or Perfetto)")
    trace_parser.add_argument("--ring-capacity", type=int, default=65536,
                              help="event ring buffer capacity")
    trace_parser.add_argument("--sample-period", type=int, default=0,
                              help="capture-window period in cycles "
                                   "(0 = trace every cycle)")
    trace_parser.add_argument("--sample-window", type=int, default=1024,
                              help="cycles captured per period")
    trace_parser.set_defaults(func=_cmd_trace)

    bench_parser = sub.add_parser(
        "bench",
        help="time the simulator (scalar vs fast engine, Base and RLPV)")
    bench_parser.add_argument("--reps", type=int, default=3,
                              help="repetitions per measurement; the minimum "
                                   "wall time wins (default 3)")
    bench_parser.add_argument("--out", metavar="OUT", default=None,
                              help="report path (default "
                                   "BENCH_sim_throughput.json unless "
                                   "--quick/--check)")
    bench_parser.add_argument("--check", action="store_true",
                              help="gate against the committed baseline; "
                                   "exit 1 on >15%% normalized regression")
    bench_parser.add_argument("--baseline", metavar="PATH", default=None,
                              help="baseline report for --check (default: "
                                   "BENCH_sim_throughput.json)")
    bench_parser.add_argument("--quick", action="store_true",
                              help="reduced scales, one rep (smoke only; "
                                   "not comparable to the baseline)")
    bench_parser.add_argument("--table", metavar="PATH", default=None,
                              help="also write a per-workload speedup table "
                                   "(markdown; the CI bench artifact)")
    bench_parser.set_defaults(func=_cmd_bench)

    compare_parser = sub.add_parser("compare",
                                    help="one benchmark, all design points")
    add_bench_args(compare_parser, with_model=False)
    compare_parser.add_argument("--jobs", type=int, default=1,
                                help="simulate design points in parallel")
    compare_parser.set_defaults(func=_cmd_compare)

    profile_parser = sub.add_parser("profile",
                                    help="repeated-computation profile")
    add_bench_args(profile_parser, with_model=False)
    profile_parser.set_defaults(func=_cmd_profile)

    experiment_parser = sub.add_parser("experiment",
                                       help="run one figure/table driver")
    experiment_parser.add_argument("name", help="fig2..fig22 or table1..3")
    experiment_parser.add_argument("--jobs", type=int, default=1,
                                   help="simulate missing runs in parallel")
    experiment_parser.add_argument("--json", metavar="OUT", default=None,
                                   help="dump the raw experiment data as JSON "
                                        "('-' for stdout)")
    experiment_parser.set_defaults(func=_cmd_experiment)

    serve_parser = sub.add_parser(
        "serve", help="HTTP query API over the result cache (DESIGN.md §15)")
    serve_parser.add_argument("--dir", metavar="DIR", default=None,
                              help="cache directory to serve (default: "
                                   "REPRO_CACHE_DIR)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8753,
                              help="bind port; 0 picks a free one "
                                   "(default: 8753)")
    serve_parser.add_argument("--access-log", metavar="PATH", default=None,
                              help="append one line per request to PATH")
    serve_parser.add_argument("--no-worker", action="store_true",
                              help="answer cache hits only; misses still "
                                   "get 202 + a durable campaign some other "
                                   "worker fleet must drain")
    serve_parser.add_argument("--ready", metavar="PATH", default=None,
                              help="write 'host port' to PATH once bound "
                                   "(for scripts using --port 0)")
    serve_parser.add_argument("--max-concurrent", type=int, default=64,
                              help="admission gate: concurrent requests "
                                   "before shedding 503 (default: 64)")
    serve_parser.add_argument("--max-pending-jobs", type=int, default=16,
                              help="bounded background-job backlog; past "
                                   "it misses defer instead of enqueueing "
                                   "(default: 16)")
    serve_parser.add_argument("--deadline", type=float, default=30.0,
                              help="per-request time budget in seconds; "
                                   "expiry answers 504 (default: 30)")
    serve_parser.add_argument("--header-timeout", type=float, default=5.0,
                              help="seconds to finish sending the request "
                                   "head (slow-loris guard, default: 5)")
    serve_parser.add_argument("--breaker-failures", type=int, default=3,
                              help="consecutive worker failures that trip "
                                   "the enqueue circuit breaker (default: 3)")
    serve_parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                              help="seconds the breaker stays open before "
                                   "a half-open probe (default: 30)")
    serve_parser.add_argument("--drain-deadline", type=float, default=10.0,
                              help="seconds granted to in-flight requests "
                                   "on SIGTERM (default: 10)")
    serve_parser.add_argument("--shutdown-grace", type=float, default=0.0,
                              help="seconds readiness stays flipped before "
                                   "draining starts (default: 0)")
    serve_parser.set_defaults(func=_cmd_serve)

    query_parser = sub.add_parser(
        "query",
        help="compute one served figure document locally (reference for "
             "the HTTP API; simulates on cache miss)")
    query_parser.add_argument("fig", help="fig2, fig12, fig14, fig15, fig17")
    query_parser.add_argument("--workload", default=None,
                              help="benchmark abbreviation (see 'repro "
                                   "list')")
    query_parser.add_argument("--suite", action="store_true",
                              help="span the whole Table I suite instead "
                                   "of one workload")
    query_parser.add_argument("--model", default=None,
                              help="design point (default RLPV)")
    query_parser.add_argument("--scale", type=int, default=None)
    query_parser.add_argument("--seed", type=int, default=None)
    query_parser.add_argument("--sms", type=int, default=None,
                              help="number of SMs")
    query_parser.add_argument("--dir", metavar="DIR", default=None,
                              help="result cache directory to read/fill")
    query_parser.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
