"""Streaming multiprocessor core: warp residency, scheduling, event loop.

The SM uses a hybrid cycle/event model: warp schedulers issue up to one
instruction per scheduler per cycle, and each issued instruction's journey
through the backend is scheduled as events on a heap.  Functional state
commits at issue in program order per warp — the scoreboard guarantees
consumers never issue before their producers retire, so the early commit
is architecturally invisible.

The pipeline itself — select → rename → reuse probe → operand read →
execute → allocate/verify → writeback/retire — lives in
:mod:`repro.pipeline` as declarative stages composed by
:func:`~repro.pipeline.spec.build_pipeline` (DESIGN.md §13); this class
routes due events to the stage methods bound at construction.  With
``config.wir.enabled == False`` the same pipeline runs the Base GPU.
"""

from __future__ import annotations

import heapq
import logging
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.check.errors import DivergenceError, InvariantViolation
from repro.core.affine import AffineTracker
from repro.core.wir_unit import IssueDecision, WIRUnit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import MemSpace, Opcode, OpClass
from repro.isa.program import Program
from repro.pipeline.spec import build_pipeline
from repro.sim.config import GPUConfig, SchedulerPolicy
from repro.sim.exec_engine import ExecResult
from repro.sim.grid import BlockDescriptor
from repro.sim.memory.subsystem import MemorySubsystem, SMMemoryPort
from repro.sim.regfile import RegisterFileTiming
from repro.sim.scheduler import WarpScheduler
from repro.sim.scoreboard import Scoreboard
from repro.sim.debug import sm_debug_snapshot
from repro.sim.serde import (
    EV_RETIRE, EV_REUSE_COMMIT, EV_SB_WRITEBACK, EV_WIR_COMMIT, EV_WRITEBACK,
    sm_load_state, sm_state_dict)
from repro.sim.warp import Warp
from repro.stats import StatGroup
from repro.trace.stall import StallAttributor

_LOG = logging.getLogger(__name__)

#: Sleep-memo target for an SM with no time-based wake candidate.
_NEVER = 1 << 62


class SMCounters(StatGroup):
    """Per-SM dynamic event counts feeding the energy model and figures.

    ``reused`` counts instructions that bypassed the backend via reuse
    (including pending-retry wakeups); ``backend_insts`` entered the
    register-read/execute path; ``fu_*_lanes`` track lane activations
    (affine execution may activate a single lane).  Hot paths update these
    through raw handles preloaded via :meth:`StatGroup.handle`.
    """

    COUNTERS = ("cycles", "issued", "retired", "reused", "reused_loads",
                "backend_insts", "control_insts", "barrier_insts",
                "store_insts", "fu_sp_insts", "fu_sfu_insts", "fu_sp_lanes",
                "fu_sfu_lanes", "mem_insts", "affine_fu_insts",
                "blocks_completed", "warps_completed")
    HISTOGRAMS = ("issued_by_class",)


class _BlockState:
    """Lifecycle bookkeeping for one resident thread block."""

    __slots__ = ("descriptor", "slots", "live_warps")

    def __init__(self, descriptor: BlockDescriptor, slots: List[int]) -> None:
        self.descriptor = descriptor
        self.slots = slots
        self.live_warps = len(slots)


class SMCore:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        program: Program,
        subsystem: MemorySubsystem,
        profiler=None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.program = program
        #: Direct reference for the fast ready scan.
        self._instructions = program.instructions
        self.profiler = profiler

        self.warps: List[Optional[Warp]] = [None] * config.max_warps_per_sm
        self.scoreboard = Scoreboard(config.max_warps_per_sm)
        self.regfile = RegisterFileTiming(config)
        self.port = SMMemoryPort(sm_id, config, subsystem)
        self.affine = AffineTracker(enabled=config.wir.affine)
        self.unit: Optional[WIRUnit] = (
            WIRUnit(config, self.regfile, self.affine) if config.wir.enabled else None
        )
        #: Lockstep golden-model checker (set by ``CheckedGPU`` runs).
        self.checker = None
        #: Once quarantined, every instruction takes the baseline path.
        self.wir_quarantined = False
        self.counters = SMCounters("core")
        #: Observability (repro.trace): both stay ``None`` unless enabled
        #: in ``config.trace``; they observe but never influence timing.
        self.tracer = None
        self.stall: Optional[StallAttributor] = (
            StallAttributor(self) if config.trace.stalls else None
        )

        #: This SM's subtree of the run's stats registry (components are
        #: adopted live).
        self.stats = StatGroup(f"sm{sm_id}")
        self.stats.adopt(self.counters)
        self.stats.adopt(self.regfile.stats)
        self.stats.adopt(self.port.l1d.stats, name="l1d")
        self.stats.adopt(self.port.l1c.stats, name="l1c")
        self.stats.adopt(self.port.stats, name="port")
        if self.unit is not None:
            self.stats.adopt(self.unit.counters)
        if self.stall is not None:
            self.stats.adopt(self.stall.stats)

        num_sched = config.num_schedulers
        self.schedulers = [
            WarpScheduler(
                i,
                [s for s in range(config.max_warps_per_sm) if s % num_sched == i],
                config.scheduler_policy,
            )
            for i in range(num_sched)
        ]
        #: Owning scheduler per warp slot (for ``scannable`` accounting).
        self._sched_of_slot = [
            self.schedulers[s % num_sched]
            for s in range(config.max_warps_per_sm)
        ]

        #: Engine selection (DESIGN.md §8, §16): "fast" opts into the fast
        #: ready scan, resident-slot arbitration, and superblock dispatch;
        #: both engines are bit-identical (tests/test_exec_differential.py).
        self._fast_path = config.exec_engine == "fast"
        #: Fused pick+ready is GTO-only (LRR's pointer needs scan order).
        self._fast_gto = (self._fast_path
                          and config.scheduler_policy is SchedulerPolicy.GTO)
        if self._fast_path:
            for scheduler in self.schedulers:
                scheduler.use_resident = True

        # Event heap: (cycle, seq, kind, payload) — see serde.EVENT_KIND_NAMES.
        self._events: List[Tuple[int, int, int, tuple]] = []
        self._event_seq = 0
        self.cycle = 0
        #: Sleep memo (fast engine): cycles below it are housekeeping-only.
        self._sleep_until = 0

        # Resident blocks.
        self._blocks: Dict[int, _BlockState] = {}
        self._warp_blocked_until: List[int] = [0] * config.max_warps_per_sm
        #: Warps waiting in the pending-retry queue do not issue.
        self._warp_waiting: List[bool] = [False] * config.max_warps_per_sm
        #: Fast-scan memo (fast engine only): the slot's instruction is
        #: scoreboard-blocked until one of its own in-flight insts retires.
        self._sb_wait: List[bool] = [False] * config.max_warps_per_sm

        #: The composed stage pipeline (built after the slot-state lists
        #: above, which stages cache direct references to — DESIGN.md §13).
        self.pipeline = build_pipeline(self)
        self.stats.adopt(self.pipeline.stats)

        # Hot-path bindings: stage methods looked up once per SM, not per
        # instruction/cycle.
        self._engine_execute = self.pipeline.execute.functional
        self._ready_impl = self.pipeline.select.ready_impl
        self._pick_fast = self.pipeline.select.fast_pick
        self._reuse_probe = self.pipeline.reuse_probe
        self._execute_stage = self.pipeline.execute
        self._allocate_verify = self.pipeline.allocate_verify
        self._writeback_retire = self.pipeline.writeback_retire
        #: Superblock trace-compilation runtime (DESIGN.md §16) or ``None``
        #: (scalar engine).  ``_sb_live`` is the same runtime while block
        #: dispatch may be on, and ``None`` once the runtime has found its
        #: compiled table off (observer attached, WIR probe live), so the
        #: issue loop then pays nothing for it; a WIR quarantine flush
        #: re-arms it (``SuperblockRuntime.invalidate``).
        self._superblock = self.pipeline.execute.superblock
        self._sb_live = self._superblock
        self._sp_free = self.pipeline.execute.sp_free

        # Preloaded stat handles (StatGroup.handle — the live objects).
        self._c_cycles = self.counters.handle("cycles")
        self._c_issued = self.counters.handle("issued")
        self._h_by_class = self.counters.handle("issued_by_class")

        # Register-utilisation sampling (Figure 19) interval.
        self._util_sample_interval = 64
        self.on_block_complete: Optional[Callable[[int, int], None]] = None

    def attach_tracer(self, view) -> None:
        """Wire an :class:`~repro.trace.events.SMTraceView` through every
        component of this SM (observer only; no timing influence)."""
        self.tracer = view
        self.regfile.tracer = view
        self.port.tracer = view
        self.pipeline.attach_tracer(view)
        for scheduler in self.schedulers:
            scheduler.on_pick = view.scheduler_pick
        if self.unit is not None:
            self.unit.reuse_buffer.tracer = view
            self.unit.vsb.tracer = view

    # ------------------------------------------------------------ block admin

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    def free_warp_slots(self) -> int:
        return sum(1 for warp in self.warps if warp is None)

    def can_accept(self, block: BlockDescriptor) -> bool:
        return (
            self.resident_blocks < self.config.max_blocks_per_sm
            and self.free_warp_slots() >= block.num_warps
        )

    def dispatch_block(self, block: BlockDescriptor) -> None:
        """Install a thread block into free warp slots."""
        slots: List[int] = []
        for slot in range(len(self.warps)):
            if self.warps[slot] is None:
                slots.append(slot)
                if len(slots) == block.num_warps:
                    break
        if len(slots) < block.num_warps:
            raise RuntimeError("dispatch_block called without capacity")
        for warp_in_block, slot in enumerate(slots):
            warp = Warp(slot, block, warp_in_block, self.program)
            self.warps[slot] = warp
            self.scoreboard.reset_slot(slot)
            self._warp_blocked_until[slot] = self.cycle
            self._warp_waiting[slot] = False
            self._sb_wait[slot] = False
            if self.unit is not None:
                self.unit.reset_slot(slot)
            self.schedulers[slot % len(self.schedulers)].note_dispatch(slot)
        self._blocks[block.block_id] = _BlockState(block, slots)
        self._sleep_until = 0
        self._refresh_register_cap()

    def _refresh_register_cap(self) -> None:
        if self.unit is None:
            return
        active_warps = sum(1 for warp in self.warps if warp is not None)
        self.unit.set_register_cap(self.program.num_logical_registers, active_warps)

    def _warp_finished(self, warp: Warp) -> None:
        """A warp has exited and drained its in-flight instructions."""
        state = self._blocks.get(warp.block.block_id)
        self.warps[warp.warp_slot] = None
        self.schedulers[warp.warp_slot % len(self.schedulers)].note_finished(
            warp.warp_slot)
        self.counters.warps_completed += 1
        if self.unit is not None:
            self.unit.reset_slot(warp.warp_slot)
        self._maybe_release_barrier(warp.block.block_id)
        if state is None:
            return
        state.live_warps -= 1
        if state.live_warps == 0:
            del self._blocks[warp.block.block_id]
            self.counters.blocks_completed += 1
            if self.unit is not None:
                self.unit.on_block_complete(warp.block.block_id)
            self.port.subsystem.image.release_scratchpad(warp.block.block_id)
            self._refresh_register_cap()
            if self.on_block_complete is not None:
                self.on_block_complete(self.sm_id, warp.block.block_id)

    # -------------------------------------------------------------- event loop

    def _schedule(self, cycle: int, kind: int, payload: tuple) -> None:
        self._event_seq += 1
        heapq.heappush(
            self._events,
            (max(cycle, self.cycle + 1), self._event_seq, kind, payload))

    def _dispatch(self, kind: int, payload: tuple) -> None:
        """Route one due event to its stage — hottest kinds probed first
        (every instruction retires; superblock writebacks dominate)."""
        if kind == EV_RETIRE:
            warp, inst = payload
            self._writeback_retire.retire(warp, inst)
        elif kind == EV_SB_WRITEBACK:
            warp, inst, ready = payload
            self._superblock.on_writeback(warp, inst, ready)
        elif kind == EV_WRITEBACK:
            warp, inst, exec_result, decision, ready = payload
            self._allocate_verify.run(warp, inst, exec_result, decision, ready)
        elif kind == EV_REUSE_COMMIT:
            warp, inst, result_reg = payload
            self._writeback_retire.commit_reuse(warp, inst, result_reg)
        elif kind == EV_WIR_COMMIT:
            warp, inst, decision, dest = payload
            self._writeback_retire.commit(warp, inst, decision, dest)
        else:  # pragma: no cover - schema violation
            raise RuntimeError(f"unknown SM event kind {kind!r}")

    def busy(self) -> bool:
        # A live warp always belongs to a resident block, so this is O(1).
        return bool(self._events) or bool(self._blocks)

    def next_wake(self) -> Optional[int]:
        """Earliest future cycle at which this SM has work (None if idle).
        O(1) under the fused scheduler with no per-cycle observers: the SM
        is only probed while inactive, when every scheduler holds a valid
        ``wake_memo`` (events reset it at their source; time-based wakes
        are exactly what the failed scan recorded).  The fallback scans
        resident slots — a live warp's slot is always resident."""
        cycle = self.cycle
        best = self._events[0][0] if self._events else None
        if self._fast_gto and self.stall is None and self.unit is None:
            for scheduler in self.schedulers:
                memo = scheduler.wake_memo
                if memo < _NEVER and (best is None or memo < best):
                    best = memo
            return best
        warps, waiting = self.warps, self._warp_waiting
        blocked_until = self._warp_blocked_until
        for scheduler in self.schedulers:
            for slot in scheduler._resident:
                warp = warps[slot]
                if (warp is None or warp.exited or warp.at_barrier
                        or waiting[slot]):
                    continue
                blocked = blocked_until[slot]
                if blocked > cycle and (best is None or blocked < best):
                    best = blocked
        for free in self._execute_stage.wake_candidates(cycle):
            if best is None or free < best:
                best = free
        return best

    def skip_until(self, cycle: int) -> int:
        """Latest cycle before which ``tick`` is provably a no-op for this
        SM (0 = tick every cycle): the sleep memo, clamped to the next due
        event and — when the WIR unit samples/checks on cycle boundaries —
        the next housekeeping boundary, so skipped ticks skip nothing."""
        target = self._sleep_until
        if not target:
            return 0
        if self._events and self._events[0][0] < target:
            target = self._events[0][0]
        if self.unit is not None:
            interval = self._util_sample_interval
            boundary = cycle + interval - cycle % interval
            check = self.config.wir.invariant_check_interval
            if check:
                nxt = cycle + check - cycle % check
                if nxt < boundary:
                    boundary = nxt
            if boundary < target:
                target = boundary
        return target

    def tick(self, cycle: int) -> bool:
        """Advance one cycle: drain due events, then issue. Returns activity."""
        self.cycle = cycle
        events = self._events
        if (cycle < self._sleep_until
                and not (events and events[0][0] <= cycle)):
            # Fast-engine sleep memo: the last full tick was inactive and
            # nothing can change before ``_sleep_until`` — housekeeping
            # still runs so sampled stats match the scalar engine exactly.
            if self.unit is not None:
                self._tick_housekeeping(cycle)
            return False
        self._sleep_until = 0
        active = False
        while events and events[0][0] <= cycle:
            _, _, kind, payload = heapq.heappop(events)
            # The two hottest kinds (every backend instruction contributes
            # one of each on the superblock path) dispatch without the
            # ``_dispatch`` call frame.
            if kind == EV_RETIRE:
                warp, inst = payload
                self._writeback_retire.retire(warp, inst)
            elif kind == EV_SB_WRITEBACK:
                warp, inst, ready = payload
                self._superblock.on_writeback(warp, inst, ready)
            else:
                self._dispatch(kind, payload)
            active = True
        if self._fast_gto and self.stall is None:
            sb = self._sb_live
            for scheduler in self.schedulers:
                if scheduler.hint_cycle == cycle:
                    # Greedy hint (superblock): this slot issued last cycle
                    # and its next instruction is hazard-free, so only the
                    # FU gate needs re-checking — the fused scan's greedy
                    # probe would reach the same pick (see WarpScheduler).
                    scheduler.hint_cycle = -1
                    slot = scheduler.hint_slot
                    fu = scheduler.hint_fu
                    ex = self._execute_stage
                    if (not self._warp_waiting[slot]
                            and (fu == 0 and min(self._sp_free) <= cycle
                                 or fu == 2 and ex.mem_free <= cycle
                                 or fu == 3
                                 or fu == 1 and ex.sfu_free <= cycle)):
                        if sb is None or not sb.try_issue(
                                slot, self.warps[slot], cycle):
                            self._issue(slot)
                        active = True
                        continue
                if cycle < scheduler.wake_memo:
                    continue
                slot = self._pick_fast(scheduler)
                if slot is not None:
                    if sb is None or not sb.try_issue(
                            slot, self.warps[slot], cycle):
                        self._issue(slot)
                    active = True
        else:
            issued: List[int] = []
            sb = self._sb_live
            for scheduler in self.schedulers:
                slot = (self._pick_fast(scheduler) if self._fast_gto
                        else scheduler.pick(self._ready_impl))
                if slot is not None:
                    if sb is None or not sb.try_issue(
                            slot, self.warps[slot], cycle):
                        self._issue(slot)
                    issued.append(slot)
                    active = True
            if self.stall is not None:
                self.stall.observe(cycle, issued)
        if active:
            self._c_cycles.value += 1
        elif self._fast_path and self.stall is None:
            # Inactive full tick: sleep until the earliest wake candidate.
            # Disabled under stall attribution (observes every cycle).
            wake = self.next_wake()
            self._sleep_until = wake if wake is not None else _NEVER
        if self.unit is not None:
            self._tick_housekeeping(cycle)
        return active

    def _tick_housekeeping(self, cycle: int) -> None:
        """Per-cycle sampling and invariant checks (run on every ticked
        cycle, including sleep-memo ticks, so sampled stats are identical
        across engines).  Callers skip the call when ``unit is None``."""
        if cycle % self._util_sample_interval == 0:
            self.unit.physfile.sample_utilization()
        interval = self.config.wir.invariant_check_interval
        if (interval and self.unit is not None and not self.wir_quarantined
                and cycle % interval == 0):
            try:
                self.unit.check_invariants()
            except InvariantViolation as err:
                if not self.config.wir.quarantine:
                    raise
                self.quarantine_wir(str(err))

    def account_idle_cycles(self, count: int) -> None:
        """Bulk stall attribution for idle-skipped cycles: the warp
        classification at the current cycle holds for the whole skipped gap
        (every relevant state change is a ``next_wake`` candidate)."""
        if self.stall is not None and count > 0:
            self.stall.observe(self.cycle, (), weight=count)

    # ------------------------------------------------------------------ issue

    def _issue(self, slot: int) -> None:
        """Per-instruction issue (callers try superblock dispatch first)."""
        warp = self.warps[slot]
        if self._fast_path:
            # The pick already proved the warp is live and in range.
            inst = self._instructions[warp.stack[-1].pc]
        else:
            inst = warp.next_instruction()
        cycle = self.cycle
        exec_result = self._engine_execute(inst, warp)
        self._c_issued.value += 1
        self._h_by_class.increment(inst.op_class.value)
        warp.last_issue_cycle = cycle

        if self.profiler is not None:
            self.profiler.observe(inst, exec_result)
        if self.checker is not None:
            self.checker.observe_issue(self, warp, inst, exec_result)

        cls = inst.op_class
        if cls is OpClass.CONTROL:
            self._issue_control(warp, inst, exec_result)
            return
        if cls is OpClass.SYNC:
            self._issue_sync(warp, inst)
            return
        if cls is OpClass.NOP:
            if self.tracer is not None:
                self.tracer.issue_event(slot, "nop", {"pc": inst.pc})
            warp.advance()
            self._finish_if_exited(warp)
            return

        if self.tracer is not None:
            # Backend-bound instructions are async spans closed at retire
            # (control/sync/nop above are instants instead).
            self.tracer.begin_inst(slot, inst)

        decision: Optional[IssueDecision] = None
        if self.unit is not None and not self.wir_quarantined:
            decision = self._reuse_probe.issue(warp, inst, exec_result)

        # Track store flags for load reuse before advancing.
        if cls is OpClass.STORE:
            if inst.space is MemSpace.SHARED:
                warp.shared_store_flag = True
            elif inst.space is MemSpace.GLOBAL:
                warp.global_store_flag = True

        self.scoreboard.register(slot, inst)
        warp.inflight += 1
        warp.advance()

        if decision is not None and decision.action == "reuse":
            self._reuse_probe.apply_hit(warp, inst, exec_result, decision)
            self._checker_commit(warp, inst)
        elif decision is not None and decision.action == "queued":
            # Waits on a pending reuse-buffer entry; commit runs at wakeup.
            pass
        else:
            self._execute_stage.run(warp, inst, exec_result, decision, cycle)
            self._checker_commit(warp, inst)
        self._finish_if_exited(warp)

    # --- control / sync -------------------------------------------------------

    def _issue_control(self, warp: Warp, inst: Instruction, exec_result: ExecResult) -> None:
        self.counters.control_insts += 1
        slot = warp.warp_slot
        if self.tracer is not None:
            self.tracer.issue_event(slot, inst.opcode.name.lower(),
                                    {"pc": inst.pc})
        if inst.opcode is Opcode.BRA:
            warp.resolve_branch(inst.pc, exec_result.taken_mask, inst.target)
        else:  # exit
            warp.execute_exit(exec_result.mask)
        # Control hazard: the warp waits for branch resolution latency.
        self._warp_blocked_until[slot] = self.cycle + self.config.sp_latency // 2
        self._finish_if_exited(warp)

    def _issue_sync(self, warp: Warp, inst: Instruction) -> None:
        self.counters.barrier_insts += 1
        if self.tracer is not None:
            self.tracer.issue_event(warp.warp_slot, inst.opcode.name.lower(),
                                    {"pc": inst.pc})
        warp.advance()
        if inst.opcode is Opcode.BAR:
            warp.at_barrier = True
            self._maybe_release_barrier(warp.block.block_id)
        self._finish_if_exited(warp)

    def _maybe_release_barrier(self, block_id: int) -> None:
        state = self._blocks.get(block_id)
        if state is None:
            return
        waiting = []
        for slot in state.slots:
            warp = self.warps[slot]
            if warp is None or warp.exited:
                continue
            if not warp.at_barrier:
                return
            waiting.append(warp)
        if not waiting:
            return
        for warp in waiting:
            warp.at_barrier = False
            warp.barrier_count += 1
            warp.shared_store_flag = False
            warp.global_store_flag = False
        for scheduler in self.schedulers:
            scheduler.wake_memo = 0

    def _finish_if_exited(self, warp: Warp) -> None:
        if warp.exited and warp.inflight == 0 and self.warps[warp.warp_slot] is warp:
            self._warp_finished(warp)

    # --- checking / degradation ---------------------------------------------------

    def _checker_commit(self, warp: Warp, inst: Instruction) -> None:
        """Lockstep commit check.  Under quarantine mode a repairable
        register/predicate divergence repairs the architectural value from
        the oracle and quarantines the WIR unit instead of aborting."""
        if self.checker is None:
            return
        try:
            self.checker.check_commit(self, warp, inst)
        except DivergenceError as err:
            if not (self.config.wir.quarantine and err.repair is not None
                    and self.unit is not None and not self.wir_quarantined):
                raise
            full = np.ones(32, dtype=bool)
            if err.kind == "register":
                warp.write_reg(inst.dst.value, err.repair, full)
            elif err.kind == "predicate":
                warp.write_pred(inst.dst.value, err.repair, full)
            else:
                raise
            self.quarantine_wir(str(err))

    def quarantine_wir(self, reason: str) -> None:
        """Graceful degradation: disable reuse, keep simulating baseline.

        The functional register state in each :class:`Warp` is the
        architectural truth, so correctness survives the quarantine; only
        timing fidelity degrades.  Counted in ``sm{N}.wir.quarantines``.
        """
        if self.unit is None or self.wir_quarantined:
            return
        self.wir_quarantined = True
        # The flush may wake pending-retry warps outside an event.
        self._sleep_until = 0
        self.unit.counters.quarantines += 1
        if self.tracer is not None:
            self.tracer.component_event("wirunit", "quarantine",
                                        {"reason": reason[:120]})
        _LOG.warning("SM%d: WIR unit quarantined at cycle %d: %s",
                     self.sm_id, self.cycle, reason)
        self.unit.quarantine_flush()

    # ----------------------------------------------------------- checkpointing

    def state_dict(self) -> dict:
        """Snapshot at a cycle boundary (see :func:`serde.sm_state_dict`)."""
        return sm_state_dict(self)

    def load_state(self, state: dict, descriptor_of) -> None:
        """Restore a snapshot (see :func:`serde.sm_load_state`)."""
        sm_load_state(self, state, descriptor_of)

    # ------------------------------------------------------------- diagnostics

    def debug_snapshot(self) -> str:
        """Human-readable SM state dump for deadlock / timeout diagnostics."""
        return sm_debug_snapshot(self)
