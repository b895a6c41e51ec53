"""Top-level GPU: kernel launch, block dispatch, and the simulation loop.

A :class:`GPU` owns the SM array and the shared memory subsystem for one
kernel launch.  Thread blocks are dispatched greedily to SMs with free
capacity (round-robin), and a completed block immediately frees its slots
for the next pending block.  The simulation loop is cycle-driven with idle
skipping: when no SM has issueable work the clock jumps to the earliest
scheduled event.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.ckpt import write_checkpoint
from repro.isa.program import Program
from repro.sim.config import GPUConfig
from repro.sim.grid import Dim3, enumerate_blocks
from repro.sim.memory.space import LaunchBase, MemoryImage
from repro.sim.memory.subsystem import MemorySubsystem
from repro.sim.smcore import SMCore, SMCounters
from repro.stats import StatGroup, dataclass_from_dict, dataclass_to_dict


class SimulationTimeout(RuntimeError):
    """The launch did not complete within ``config.max_cycles``."""


@dataclass
class KernelLaunch:
    """One kernel invocation."""

    program: Program
    grid: Dim3
    block: Dim3
    image: MemoryImage = field(default_factory=MemoryImage)

    @property
    def total_blocks(self) -> int:
        return self.grid.count

    @property
    def total_threads(self) -> int:
        return self.grid.count * self.block.count


@dataclass
class RunResult:
    """Everything measured during one launch.

    Measurements live in one hierarchical stats registry rooted at
    :attr:`stats`: per-SM subtrees (``sm0.core``, ``sm0.regfile``,
    ``sm0.l1d``, ``sm0.wir.rb`` ...) plus the chip-level ``memory``
    subtree.  Use :meth:`stat` / :meth:`sm_stat` for dotted-path access;
    the legacy per-component views (``l1d_stats``, ``wir_stats``, ...) are
    derived from the registry.  The whole result round-trips through JSON
    (:meth:`to_dict` / :meth:`from_dict`), which is what the on-disk run
    cache and the parallel sweep workers move around; only the live
    :attr:`launch` object and profiler handles are process-local.
    """

    cycles: int
    config: GPUConfig
    #: Root of the hierarchical stats registry for this run.
    stats: StatGroup
    #: The live launch (``None`` on deserialized results).
    launch: Optional[KernelLaunch] = None
    #: JSON-safe launch description (kernel name and geometry).
    launch_summary: Dict[str, object] = field(default_factory=dict)
    #: Per-SM profiler results, when a profiler factory was supplied.
    profiles: Optional[List] = None
    #: Live :class:`repro.trace.events.EventTracer` when event tracing was
    #: enabled (``None`` otherwise and on deserialized results).
    trace: Optional[object] = None

    # --- registry access ------------------------------------------------------

    def stat(self, path: str):
        """Dotted-path lookup from the root (``"sm0.regfile.read_retries"``)."""
        return self.stats.lookup(path)

    @property
    def sm_groups(self) -> List[StatGroup]:
        """The per-SM registry subtrees, in SM order."""
        children = self.stats.children
        return [children[name] for name in sorted(
            (n for n in children if n.startswith("sm")),
            key=lambda n: int(n[2:]),
        )]

    def sm_stat(self, path: str):
        """Sum a per-SM dotted path (relative to each ``sm{N}``) across SMs."""
        return sum(group.lookup(path) for group in self.sm_groups)

    def merged_sm(self) -> StatGroup:
        """All per-SM subtrees summed into one group."""
        return StatGroup.merged(self.sm_groups, name="sm")

    # --- aggregate helpers ----------------------------------------------------

    @property
    def sm_counters(self) -> List[StatGroup]:
        """Per-SM core counter groups (the old ``SMCounters`` view)."""
        return [group.lookup("core") for group in self.sm_groups]

    def total(self, field_name: str) -> int:
        return self.sm_stat(f"core.{field_name}")

    @property
    def issued_instructions(self) -> int:
        return self.total("issued")

    @property
    def reused_instructions(self) -> int:
        return self.total("reused")

    @property
    def backend_instructions(self) -> int:
        return self.total("backend_insts")

    @property
    def reuse_fraction(self) -> float:
        issued = self.issued_instructions
        return self.reused_instructions / issued if issued else 0.0

    def stall_breakdown(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Per-SM stall-reason counts (``None`` unless run with
        ``config.trace.stalls``).  Keys are ``sm{N}``; each value maps
        reason -> cycles, in taxonomy order, plus ``resident_warp_cycles``.
        """
        sm_groups = self.sm_groups
        if not sm_groups or "stall" not in sm_groups[0].children:
            return None
        from repro.trace.stall import STALL_REASONS
        breakdown: Dict[str, Dict[str, int]] = {}
        for group in sm_groups:
            stall = group.lookup("stall")
            row = {reason: stall.lookup(reason) for reason in STALL_REASONS}
            row["resident_warp_cycles"] = stall.lookup("resident_warp_cycles")
            breakdown[group.name] = row
        return breakdown

    def regfile_total(self, key: str) -> int:
        return self.sm_stat(f"regfile.{key}")

    @property
    def l1d_stats(self) -> Dict[str, int]:
        return StatGroup.merged(
            group.lookup("l1d") for group in self.sm_groups).counters()

    @property
    def l2_stats(self) -> Dict[str, int]:
        return self.stats.lookup("memory.l2").counters()

    @property
    def dram_accesses(self) -> int:
        return self.stats.lookup("memory.dram.accesses")

    @property
    def noc_flits(self) -> int:
        return self.stats.lookup("memory.noc.flits")

    @property
    def scratchpad_accesses(self) -> int:
        return self.sm_stat("port.scratchpad_accesses")

    @property
    def wir_stats(self) -> Optional[Dict[str, float]]:
        """Merged flat view of the WIR subtrees (``None`` for Base runs).

        Structure counters keep their historical prefixes (``rb_``,
        ``vsb_``, ``vc_``); ``phys_peak``/``phys_avg`` are per-SM averages.
        """
        sm_groups = self.sm_groups
        if not sm_groups or "wir" not in sm_groups[0].children:
            return None
        merged = StatGroup.merged(
            group.lookup("wir") for group in sm_groups)
        totals: Dict[str, float] = merged.counters()
        for prefix in ("rb", "vsb", "vc"):
            for key, value in merged.lookup(prefix).counters().items():
                totals[f"{prefix}_{key}"] = value
        phys = merged.lookup("phys").counters()
        num_sms = len(sm_groups)
        totals["phys_peak"] = phys["peak"] / num_sms
        totals["phys_avg"] = phys["avg"] / num_sms
        totals["phys_allocations"] = phys["allocations"]
        totals["refcount_ops"] = phys["refcount_ops"]
        return totals

    # --- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Lossless plain-data form (config + launch summary + stats tree)."""
        return {
            "cycles": self.cycles,
            "config": dataclass_to_dict(self.config),
            "launch": dict(self.launch_summary),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        return cls(
            cycles=data["cycles"],
            config=dataclass_from_dict(GPUConfig, data["config"]),
            stats=StatGroup.from_dict(data["stats"], name="run"),
            launch_summary=dict(data.get("launch", {})),
        )

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))


class GPU:
    """The simulated GPU chip."""

    def __init__(
        self,
        config: GPUConfig,
        profiler_factory: Optional[Callable[[], object]] = None,
        fault_plan=None,
    ) -> None:
        config.validate()
        self.config = config
        self._profiler_factory = profiler_factory
        #: Optional :class:`repro.check.faults.FaultPlan` (fault campaigns).
        self._fault_plan = fault_plan
        #: Optional :class:`repro.check.oracle.LockstepChecker`; set by
        #: :class:`repro.check.oracle.CheckedGPU` before :meth:`run`.
        self._checker = None
        #: Snapshot the full simulator state every N cycles into
        #: :attr:`checkpoint_path` so a killed or timed-out run can resume
        #: bit-identically (DESIGN.md §12).  Host robustness, not modelled
        #: hardware, so it lives here rather than in the config: a result
        #: never depends on it.  ``None`` (the default) never snapshots.
        self.checkpoint_every: Optional[int] = None
        #: Where periodic checkpoints go (the harness points this next to
        #: the run cache).
        self.checkpoint_path: Optional[Path] = None
        #: Extra identity merged into every checkpoint's meta block (the
        #: harness and CLI record the workload spec here so a checkpoint
        #: file is self-describing for ``repro ckpt resume``).
        self.checkpoint_meta_extra: Dict = {}

    def run(
        self, launch: KernelLaunch, resume: Optional[Dict] = None
    ) -> RunResult:
        """Simulate one kernel launch to completion.

        With *resume*, restore the checkpointed ``state`` dict (see
        :mod:`repro.ckpt`) instead of starting at cycle 0; the rest of the
        run is bit-identical to the uninterrupted one.  *launch* must carry
        the launch image the state's memory delta was taken against;
        otherwise :class:`~repro.ckpt.CheckpointError` is raised before the
        image is touched.
        """
        status, payload = self._run(launch, resume=resume)
        assert status == "done"
        return payload

    def run_to_cycle(
        self, launch: KernelLaunch, cycle: int, resume: Optional[Dict] = None
    ) -> Tuple[str, Union[RunResult, Dict]]:
        """Run until the clock reaches *cycle*, then snapshot and pause.

        Returns ``("paused", state)`` with a serializable state dict, or
        ``("done", result)`` if the kernel finished first.
        """
        return self._run(launch, resume=resume, stop_cycle=cycle)

    def _check_resumable(self, reason: str) -> None:
        """Checkpointing serializes simulator state only — observers with
        process-local state (checker, profilers, fault injectors, tracers)
        cannot be restored, so their runs refuse to checkpoint or resume."""
        problems = []
        if self._checker is not None:
            problems.append("a lockstep checker")
        if self._profiler_factory is not None:
            problems.append("profilers")
        if self._fault_plan is not None and self._fault_plan.any_enabled:
            problems.append("fault injection")
        if self.config.trace.enabled or self.config.trace.stalls:
            problems.append("tracing")
        if problems:
            raise ValueError(
                f"cannot {reason} with {' / '.join(problems)} attached: "
                "observer state is not checkpointed")

    def _run(
        self,
        launch: KernelLaunch,
        resume: Optional[Dict] = None,
        stop_cycle: Optional[int] = None,
    ) -> Tuple[str, Union[RunResult, Dict]]:
        config = self.config
        subsystem = MemorySubsystem(config, launch.image)
        tracer = None
        if config.trace.enabled:
            from repro.trace.events import CHIP_PID, EventTracer
            tracer = EventTracer(config.trace)
            subsystem.tracer = tracer.view(CHIP_PID)
        profilers = []
        sms: List[SMCore] = []
        for sm_id in range(config.num_sms):
            profiler = self._profiler_factory() if self._profiler_factory else None
            if profiler is not None:
                profilers.append(profiler)
            sms.append(SMCore(sm_id, config, launch.program, subsystem, profiler))
            if tracer is not None:
                sms[-1].attach_tracer(tracer.view(sm_id))

        if self._checker is not None:
            self._checker.begin(launch)
            for sm in sms:
                sm.checker = self._checker
        if self._fault_plan is not None and self._fault_plan.any_enabled:
            from repro.check.faults import FaultInjector
            for sm in sms:
                if sm.unit is not None:
                    sm.unit.attach_faults(
                        FaultInjector(self._fault_plan, salt=sm.sm_id))

        ckpt_path = self.checkpoint_path
        every = self.checkpoint_every
        checkpointing = every is not None and ckpt_path is not None
        if checkpointing:
            self._check_resumable("checkpoint")
        if resume is not None or stop_cycle is not None:
            self._check_resumable("resume or pause")
        # Snapshots store global memory as a delta against the launch
        # image, so capture it now: before the run mutates it, and before a
        # resume overwrites it.
        base = (LaunchBase(launch.image)
                if checkpointing or resume is not None
                or stop_cycle is not None else None)

        all_blocks = list(enumerate_blocks(launch.grid, launch.block))
        if resume is not None:
            # Blocks are enumerated deterministically, so the dispatch
            # frontier is just an index into the same sequence.
            descriptors = {bd.block_id: bd for bd in all_blocks}
            pending = deque(all_blocks[resume["next_block_index"]:])
            for sm, sm_state in zip(sms, resume["sms"]):
                sm.load_state(sm_state, descriptors.__getitem__)
            subsystem.load_state(resume["memory"], base)
            cycle = resume["cycle"]
        else:
            pending = deque(all_blocks)
            cycle = 0

        def fill(sm: SMCore) -> None:
            while pending and sm.can_accept(pending[0]):
                sm.dispatch_block(pending.popleft())

        #: Per-SM skip memo: cycles strictly below ``wake[i]`` are provably
        #: no-op ticks for ``sms[i]`` (see ``SMCore.skip_until``), so the
        #: loop skips the call entirely.  Zeroed whenever a block dispatch
        #: gives the SM new work.  Disabled under per-cycle observers
        #: (tracing, stall attribution), which must see every cycle.
        wake = [0] * len(sms)
        skipping = tracer is None and not config.trace.stalls

        def on_complete(sm_id: int, _block_id: int) -> None:
            fill(sms[sm_id])
            wake[sm_id] = 0

        for sm in sms:
            sm.on_block_complete = on_complete
        if resume is None:
            # Initial fill round-robins blocks across SMs (as the hardware
            # block dispatcher does) instead of packing the first SM solid.
            while pending:
                dispatched = False
                for sm in sms:
                    if pending and sm.can_accept(pending[0]):
                        sm.dispatch_block(pending.popleft())
                        dispatched = True
                if not dispatched:
                    break

        next_ckpt: Optional[int] = None
        if checkpointing:
            next_ckpt = (cycle // every + 1) * every

        while True:
            # Snapshots are taken at the top of the loop — "about to tick
            # cycle C" — so restore re-executes cycle C first.
            if stop_cycle is not None and cycle >= stop_cycle:
                return ("paused",
                        self._state_dict(cycle, launch, pending, sms,
                                         subsystem, base))
            if next_ckpt is not None and cycle >= next_ckpt:
                write_checkpoint(
                    ckpt_path,
                    self._state_dict(cycle, launch, pending, sms, subsystem,
                                     base),
                    meta=self.checkpoint_meta(launch),
                )
                next_ckpt = (cycle // every + 1) * every
            if tracer is not None:
                tracer.now = cycle
            active = False
            if skipping:
                for i, sm in enumerate(sms):
                    if cycle < wake[i]:
                        continue
                    if sm.tick(cycle):
                        active = True
                        wake[i] = 0
                    else:
                        wake[i] = sm.skip_until(cycle)
            else:
                for sm in sms:
                    active |= sm.tick(cycle)
            if not pending:
                for sm in sms:
                    if sm.busy():
                        break
                else:
                    break
            if cycle >= config.max_cycles:
                raise SimulationTimeout(
                    f"kernel {launch.program.name!r} exceeded "
                    f"{config.max_cycles} cycles\n"
                    + "\n".join(sm.debug_snapshot() for sm in sms)
                )
            if active:
                cycle += 1
            else:
                wakes = [w for w in (sm.next_wake() for sm in sms) if w is not None]
                if not wakes:
                    # Pending blocks but no SM progress: should be unreachable.
                    raise SimulationTimeout(
                        f"kernel {launch.program.name!r} deadlocked at cycle "
                        f"{cycle}\n"
                        + "\n".join(sm.debug_snapshot() for sm in sms)
                    )
                target = max(cycle + 1, min(wakes))
                # The skipped cycles never tick; attribute them in bulk
                # (each SM's classification is stable across the gap).
                gap = target - cycle - 1
                if gap:
                    for sm in sms:
                        sm.account_idle_cycles(gap)
                cycle = target

        if self._checker is not None:
            self._checker.finalize(launch, sms)
        return ("done",
                self._collect(cycle, launch, sms, subsystem, profilers,
                              tracer))

    def _state_dict(
        self,
        cycle: int,
        launch: KernelLaunch,
        pending: deque,
        sms: List[SMCore],
        subsystem: MemorySubsystem,
        base: LaunchBase,
    ) -> Dict:
        """Serializable snapshot of the whole chip at a cycle boundary,
        global memory as a delta against the launch image *base*."""
        return {
            "cycle": cycle,
            "next_block_index": launch.total_blocks - len(pending),
            "sms": [sm.state_dict() for sm in sms],
            "memory": subsystem.state_dict(base),
        }

    def checkpoint_meta(self, launch: KernelLaunch) -> Dict:
        """Identity of the run a checkpoint belongs to: a resume must be
        driving the exact same program, geometry, and configuration."""
        meta = {
            "program": launch.program.name,
            "grid": [launch.grid.x, launch.grid.y, launch.grid.z],
            "block": [launch.block.x, launch.block.y, launch.block.z],
            "config": dataclass_to_dict(self.config),
        }
        meta.update(self.checkpoint_meta_extra)
        return meta

    def _collect(
        self,
        cycles: int,
        launch: KernelLaunch,
        sms: List[SMCore],
        subsystem: MemorySubsystem,
        profilers: List,
        tracer=None,
    ) -> RunResult:
        """Assemble the run's stats registry and wrap it in a RunResult."""
        root = StatGroup("run")
        root.add_counter("cycles", cycles)
        if tracer is not None:
            root.adopt(tracer.stats)
        for sm in sms:
            if sm.unit is not None:
                sm.unit.finalize_stats()
                # A quarantined unit deliberately leaks transit references
                # held by the instructions it abandoned; skip its self-check.
                if not sm.wir_quarantined:
                    sm.unit.check_invariants()
            root.adopt(sm.stats)
        root.adopt(subsystem.stats_group())
        if self._checker is not None:
            root.adopt(self._checker.stats)

        launch_summary = {
            "program": launch.program.name,
            "grid": [launch.grid.x, launch.grid.y, launch.grid.z],
            "block": [launch.block.x, launch.block.y, launch.block.z],
            "total_threads": launch.total_threads,
        }
        return RunResult(
            cycles=cycles,
            config=self.config,
            stats=root,
            launch=launch,
            launch_summary=launch_summary,
            profiles=profilers or None,
            trace=tracer,
        )
