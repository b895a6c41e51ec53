"""Concrete WIR pipeline stages (rename → reuse → execute → allocate →
writeback), shared by the scalar oracle and the fast engine.

Each stage owns one step of the paper's pipeline and is bound to a live
:class:`~repro.sim.smcore.SMCore`.  The *decision* logic exists only here —
the SM core routes events and the execution engines supply functional
values, so neither can drift from the other (the PR-4 differential matrix
pins both engines to this one implementation).

Operation order inside each method is load-bearing: reference-count
traffic, register-file scheduling, and event scheduling must happen in
exactly the historical order for cycle-level bit-identity with the seed
simulator.  Treat reorderings as behavioural changes, not cleanups.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.check.errors import ReuseCorruptionError
from repro.core.affine import AFFINE_PRESERVING_OPS, is_affine_value
from repro.core.reuse_buffer import Waiter
from repro.core.wir_unit import IssueDecision
from repro.isa.instruction import Instruction, OperandKind
from repro.isa.opcodes import OpClass, is_load
from repro.pipeline.base import Stage, register_stage
from repro.sim.exec_engine import ExecResult, make_engine
from repro.sim.grid import WARP_SIZE
from repro.sim.serde import EV_REUSE_COMMIT, EV_RETIRE, EV_WIR_COMMIT, EV_WRITEBACK
from repro.sim.superblock import SuperblockRuntime
from repro.sim.warp import Warp

#: Bytes of an all-lanes-active bool mask.
_FULL_MASK = np.ones(WARP_SIZE, dtype=bool).tobytes()


def _front_delay(core) -> int:
    """Extra front-of-backend latency from the rename + reuse stages."""
    extra = core.config.wir.extra_pipeline_latency
    return max(1, extra - 2) if core.unit is not None else 1


@register_stage
class RenameStage(Stage):
    """Rename source operands to physical IDs and capture divergence.

    Thin orchestration over the :class:`~repro.core.wir_unit.WIRUnit`
    rename tables: the unit owns the structures (and their checkpoint
    state); this stage owns the per-issue sequencing — fault ticks, the
    interned rename plan, the tracer event, and the Section V-D divergence
    capture that decides the destination's pin-bit treatment downstream.
    """

    name = "rename"
    inputs = ("slot", "inst")
    outputs = ("plan", "src_phys", "tag_descs", "divergent")
    stat_paths = ("wir.rename_reads",)

    def run(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult
    ) -> Tuple[object, Tuple[int, ...], Tuple, bool]:
        unit = self.unit
        if unit.faults is not None:
            unit.faults.tick_structures(unit)
        plan = unit.plan_of(inst)
        src_phys, descs = unit.rename_with_plan(warp, plan)
        if self.tracer is not None and src_phys:
            self.tracer.wir_event(warp.warp_slot, "rename",
                                  {"pc": inst.pc, "srcs": len(src_phys)})
        # Divergent = any of the 32 lanes inactive for this instruction.
        divergent = exec_result.mask.tobytes() != _FULL_MASK
        return plan, src_phys, descs, divergent


@register_stage
class ReuseProbeStage(Stage):
    """Probe the reuse buffer and act on the outcome.

    :meth:`issue` produces the :class:`IssueDecision` (execute / reuse /
    queued / bypass) for one instruction; :meth:`apply_hit` commits an
    immediate hit, :meth:`make_waiter` parks a warp on a pending entry
    (Section VI-B), and :meth:`wake_queued` finishes the instruction when
    the producer's result lands.  ``stage.reuse_probe.retry_wakeups``
    counts pending-retry wakeups (a subset of ``core.reused``).
    """

    name = "reuse_probe"
    inputs = ("plan", "src_phys", "tag_descs", "divergent")
    outputs = ("decision",)
    stat_paths = ("core.reused", "core.reused_loads", "wir.rb.*")

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        self._waiting = core._warp_waiting
        self._schedule = core._schedule
        self.front_delay = _front_delay(core)
        counters = core.counters
        self._c_reused = counters.handle("reused")
        self._c_reused_loads = counters.handle("reused_loads")
        self._c_retry_wakeups = self.counter("retry_wakeups")
        self._pending_retry = (core.unit is not None
                               and core.unit.wir.pending_retry)

    def bind(self, spec) -> None:
        self._rename = spec.rename
        self._execute = spec.execute

    # ------------------------------------------------------------ issue probe

    def issue(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult
    ) -> IssueDecision:
        """Rename sources and probe the reuse buffer (both WIR front
        stages; also the re-entry point for pending-retry wakeups)."""
        unit = self.unit
        plan, src_phys, descs, divergent = self._rename.run(warp, inst,
                                                            exec_result)
        if not inst.writes_register:
            return IssueDecision(action="bypass", src_phys=src_phys,
                                 divergent=divergent)
        if not plan.reuse_candidate:
            # Writes a register but never participates in reuse (e.g. selp):
            # it still goes through register allocation at writeback.
            return IssueDecision(action="execute", src_phys=src_phys,
                                 divergent=divergent)

        # Divergent instructions bypass the reuse buffer entirely (V-D).
        if divergent:
            return IssueDecision(action="execute", src_phys=src_phys,
                                 divergent=True)

        load = plan.load
        if load and not unit.load_may_reuse(warp, inst):
            return IssueDecision(action="execute", src_phys=src_phys)

        # Instructions reading special registers must not reuse: %tid et al.
        # are per-warp value vectors that the register-ID tag cannot proxy
        # (two warps share the tag but not the values).  Their *results* are
        # still shared through the VSB, so downstream threadIdx-derived
        # arithmetic — the paper's motivating pattern — reuses normally.
        if plan.warp_dependent:
            return IssueDecision(action="execute", src_phys=src_phys)
        tag = (plan.opcode_index, descs)

        barrier_count = warp.barrier_count
        pending_retry = self._pending_retry
        outcome, result_reg, index = unit.reuse_buffer.lookup(
            tag,
            is_load=load,
            consumer_barrier_count=barrier_count,
            consumer_tbid=warp.block.block_id & 0xF,
            pending_retry=pending_retry,
            make_waiter=self.make_waiter,
            waiter_args=(warp, inst, exec_result),
        )
        if outcome == "hit":
            # Transit reference: the result register must survive until this
            # instruction's retire even if the entry is evicted meanwhile.
            unit.refcount.incref(result_reg)
            if self.tracer is not None:
                self.tracer.wir_event(warp.warp_slot, "reuse_hit",
                                      {"pc": inst.pc, "reg": result_reg})
            return IssueDecision(action="reuse", src_phys=src_phys, tag=tag,
                                 result_reg=result_reg, rb_index=index)
        if outcome == "queued":
            if self.tracer is not None:
                self.tracer.wir_event(warp.warp_slot, "reuse_queue",
                                      {"pc": inst.pc, "index": index})
            return IssueDecision(action="queued", src_phys=src_phys, tag=tag,
                                 rb_index=index)

        # Miss: optionally reserve the entry eagerly (pending-retry), else
        # remember the index for the retire-time update.
        reserved = False
        token = -1
        if pending_retry:
            allow = not unit.in_low_register_mode()
            reservation = unit.reuse_buffer.reserve(
                tag, is_load=load, barrier_count=barrier_count,
                tbid=unit.entry_tbid(warp, inst), allow_insert=allow,
            )
            if reservation is not None:
                index, token = reservation
                unit.track_tag_sources(tag, index)
                reserved = True
        if not reserved:
            # The retire-time buffer update will register the source IDs;
            # transit references keep them live until then (the hardware
            # analogue: in-flight instructions count as references).
            for reg in src_phys:
                unit.refcount.incref(reg)
        return IssueDecision(action="execute", src_phys=src_phys, tag=tag,
                             rb_index=index, rb_token=token, reserved=reserved)

    # ------------------------------------------------------------- hit commit

    def apply_hit(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult,
        decision: IssueDecision,
    ) -> None:
        """Immediate reuse hit: bypass the whole backend."""
        core = self.core
        self._c_reused.value += 1
        if inst.op_class is OpClass.LOAD:
            self._c_reused_loads.value += 1
            values = self.unit.physfile.read(decision.result_reg)
            warp.write_reg(inst.dst.value, values, exec_result.mask)
        else:
            # Arithmetic reuse must be value-exact; check against the
            # functionally computed result (a genuine invariant of the design).
            reused = self.unit.physfile.read(decision.result_reg)
            if reused.tobytes() != exec_result.result.tobytes():
                self.reuse_corrupted(
                    warp, inst, exec_result, decision.result_reg,
                    f"arithmetic reuse returned a wrong value for {inst} "
                    f"(pc={inst.pc}, warp slot {warp.warp_slot})",
                )
                return
            warp.write_reg(inst.dst.value, reused, exec_result.mask)
        retire_cycle = core.cycle + self.front_delay + 1
        self._schedule(retire_cycle, EV_REUSE_COMMIT,
                       (warp, inst, decision.result_reg))

    # ---------------------------------------------------------- pending retry

    def make_waiter(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult
    ) -> Waiter:
        """Waiter for the pending-retry queue (Section VI-B)."""
        core = self.core
        self._waiting[warp.warp_slot] = True

        def on_result(result_reg: Optional[int]) -> None:
            self._waiting[warp.warp_slot] = False
            core._sched_of_slot[warp.warp_slot].wake_memo = 0
            if result_reg is not None and not core.wir_quarantined:
                self.wake_queued(warp, inst, exec_result, result_reg)
                core._checker_commit(warp, inst)
                return
            if core.wir_quarantined:
                # Quarantine flushed the queue: take the baseline path.
                self._execute.run(warp, inst, exec_result, None, core.cycle)
                core._checker_commit(warp, inst)
                return
            # The pending entry was evicted before the producer retired:
            # re-enter the reuse stage (it may hit a newer entry, queue
            # again, or finally execute).
            decision = self.issue(warp, inst, exec_result)
            if decision.action == "reuse":
                self.apply_hit(warp, inst, exec_result, decision)
                core._checker_commit(warp, inst)
            elif decision.action != "queued":
                self._execute.run(warp, inst, exec_result, decision,
                                  core.cycle)
                core._checker_commit(warp, inst)

        waiter = Waiter(on_result)
        # Plain-data identity of the waiting instruction, so a checkpoint
        # can externalize the queue entry and a restore can rebuild an
        # equivalent waiter via ``make_waiter`` (DESIGN.md §12).
        waiter.descriptor = (warp, inst, exec_result)
        return waiter

    def wake_queued(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult,
        result_reg: int,
    ) -> None:
        core = self.core
        self._c_reused.value += 1
        self._c_retry_wakeups.value += 1
        if inst.op_class is OpClass.LOAD:
            self._c_reused_loads.value += 1
        # Transit reference until the reuse commit (the entry that woke us
        # could be evicted before our retire fires).
        self.unit.refcount.incref(result_reg)
        values = self.unit.physfile.read(result_reg)
        if (inst.op_class is not OpClass.LOAD
                and values.tobytes() != exec_result.result.tobytes()):
            self.reuse_corrupted(
                warp, inst, exec_result, result_reg,
                f"pending-retry reuse returned a wrong value for {inst} "
                f"(pc={inst.pc}, warp slot {warp.warp_slot})",
            )
            return
        warp.write_reg(inst.dst.value, values, exec_result.mask)
        # Queued instructions re-probe the buffer and retire a cycle after
        # the producer's result lands.
        self._schedule(core.cycle + 1, EV_REUSE_COMMIT,
                       (warp, inst, result_reg))

    def reuse_corrupted(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult,
        result_reg: int, reason: str,
    ) -> None:
        """A reuse hit delivered a wrong value (impossible without faults).

        Without quarantine enabled this is fatal; with it, the unit is
        quarantined and the instruction falls back to the baseline execute
        path, so the kernel still completes with correct results.
        """
        core = self.core
        err = ReuseCorruptionError(reason)
        if not self.config.wir.quarantine:
            raise err
        # Undo the reuse bookkeeping done before the value check: the reuse
        # count and the transit reference taken at the hit / wakeup.
        self._c_reused.value -= 1
        self.unit.refcount.decref(result_reg)
        core.quarantine_wir(reason)
        self._execute.run(warp, inst, exec_result, None, core.cycle)


@register_stage
class OperandReadStage(Stage):
    """Operand collection: one bank read per distinct register source."""

    name = "operand_read"
    inputs = ("decision", "src_phys")
    outputs = ("read_ready",)
    stat_paths = ("regfile.read_requests", "regfile.read_retries")

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        self._regfile = core.regfile
        self._affine = core.affine
        self.front_delay = _front_delay(core)

    def source_bank_keys(
        self, warp: Warp, inst: Instruction, decision: Optional[IssueDecision]
    ) -> List[int]:
        """Register-bank keys of the distinct register sources."""
        if decision is not None:
            return sorted(set(decision.src_phys))
        base = warp.warp_slot << 8
        # ``bank_regs`` is the cached sorted distinct source-register tuple;
        # or-ing a constant high part preserves the order.
        return [base | reg for reg in inst.bank_regs]

    def schedule_reads(
        self, warp: Warp, inst: Instruction,
        decision: Optional[IssueDecision], cycle: int,
    ) -> int:
        """Schedule the bank reads; returns the operands-ready cycle."""
        start = cycle + self.front_delay
        read_ready = start
        reg_keys = self.source_bank_keys(warp, inst, decision)
        affine = self._affine
        regfile = self._regfile
        if affine.enabled:
            for key in reg_keys:
                read_ready = max(
                    read_ready,
                    regfile.schedule_read(key, start,
                                          affine=affine.is_affine(key)),
                )
        else:
            for key in reg_keys:
                read_ready = max(read_ready, regfile.schedule_read(key, start))
        return read_ready


@register_stage
class ExecuteStage(Stage):
    """Functional-unit / memory timing plus the functional value source.

    Owns the execution engine (the scalar interpreter or the fast
    engine's compiled kernel closures — DESIGN.md §8) and the backend
    pipeline occupancy counters, which are this stage's checkpoint state.
    :meth:`run` drives one instruction through operand read, FU or memory
    timing, and schedules its writeback event.
    """

    name = "execute"
    inputs = ("inst", "slot", "read_ready")
    outputs = ("exec_result", "exec_ready")
    STATE_FIELDS = ("sp_free", "sfu_free", "mem_free")
    stat_paths = ("core.backend_insts", "core.fu_sp_insts", "core.fu_sp_lanes",
                  "core.fu_sfu_insts", "core.fu_sfu_lanes", "core.mem_insts",
                  "core.store_insts", "core.affine_fu_insts")

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        config = core.config
        #: Execution engine; ``execute(inst, warp)`` is the functional half
        #: of this stage, bound once (it runs per instruction).
        self.engine = make_engine(config.exec_engine)
        self.functional = self.engine.execute
        # Backend pipelines: initiation-interval-limited (1 warp inst/cycle).
        self.sp_free = [0] * config.num_sp_pipelines
        self.sfu_free = 0
        self.mem_free = 0
        self._sp_latency = config.sp_latency
        self._sfu_latency = config.sfu_latency
        self._regfile = core.regfile
        self._port = core.port
        self._affine = core.affine
        self._schedule = core._schedule
        self._stall = core.stall
        counters = core.counters
        self._c_backend = counters.handle("backend_insts")
        self._c_fu_sp_insts = counters.handle("fu_sp_insts")
        self._c_fu_sp_lanes = counters.handle("fu_sp_lanes")
        self._c_fu_sfu_insts = counters.handle("fu_sfu_insts")
        self._c_fu_sfu_lanes = counters.handle("fu_sfu_lanes")
        self._c_affine_fu = counters.handle("affine_fu_insts")
        self._c_mem_insts = counters.handle("mem_insts")
        self._c_store_insts = counters.handle("store_insts")
        #: Superblock trace-compilation runtime (DESIGN.md §16), created in
        #: :meth:`bind` (it needs the operand-read stage's front delay).
        self.superblock = None

    def bind(self, spec) -> None:
        self._operand_read = spec.operand_read
        if self.config.exec_engine == "fast":
            self.superblock = SuperblockRuntime(
                self.core, self, spec.operand_read.front_delay)

    def binding(self) -> str:
        return f"{self.config.exec_engine} engine kernels"

    def available(self, cls: OpClass, cycle: int) -> bool:
        """Is the pipeline for *cls* free at *cycle*? (issue gate)"""
        if cls in (OpClass.INT, OpClass.FP, OpClass.PRED):
            return min(self.sp_free) <= cycle
        if cls is OpClass.SFU:
            return self.sfu_free <= cycle
        if cls in (OpClass.LOAD, OpClass.STORE):
            return self.mem_free <= cycle
        return True

    def wake_candidates(self, cycle: int) -> List[int]:
        """Future cycles at which a busy pipeline frees (``next_wake``)."""
        return [free for free in (*self.sp_free, self.sfu_free, self.mem_free)
                if free > cycle]

    # ---------------------------------------------------------------- backend

    def run(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        decision: Optional[IssueDecision],
        cycle: int,
    ) -> None:
        """Send one instruction down the backend (reads, FU/memory timing)
        and schedule its writeback event."""
        self._c_backend.value += 1
        cls = inst.op_class
        if self._stall is not None:
            self._stall.note_backend(warp.warp_slot, inst,
                                     "mem" if cls is OpClass.LOAD else "exec")

        # Functional commit (loads commit below with the memory access).
        if cls is not OpClass.LOAD:
            if exec_result.result is not None:
                warp.write_reg(inst.dst.value, exec_result.result,
                               exec_result.mask)
            if exec_result.pred_result is not None:
                warp.write_pred(inst.dst.value, exec_result.pred_result,
                                exec_result.mask)

        read_ready = self._operand_read.schedule_reads(warp, inst, decision,
                                                       cycle)
        if cls in (OpClass.LOAD, OpClass.STORE):
            exec_ready = self._memory_timing(warp, inst, exec_result,
                                             read_ready)
        else:
            exec_ready = self._alu_timing(warp, inst, exec_result, read_ready,
                                          decision)

        self._schedule(exec_ready, EV_WRITEBACK,
                       (warp, inst, exec_result, decision, exec_ready))

    def _alu_timing(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        ready: int,
        decision: Optional[IssueDecision],
    ) -> int:
        cls = inst.op_class
        lanes = int(np.count_nonzero(exec_result.mask))
        # With the Affine model off, affine_execution is a constant False
        # (its first check); skip the call.
        affine_exec = (self._affine.enabled and
                       self.affine_execution(warp, inst, exec_result,
                                             decision))
        lane_cost = 1 if affine_exec else max(lanes, 1)
        if affine_exec:
            self._c_affine_fu.value += 1

        if cls is OpClass.SFU:
            start = max(ready, self.sfu_free)
            self.sfu_free = start + 1
            self._c_fu_sfu_insts.value += 1
            self._c_fu_sfu_lanes.value += lane_cost
            return start + self._sfu_latency

        sp_free = self.sp_free
        pipe = 0
        free = sp_free[0]
        for i in range(1, len(sp_free)):
            if sp_free[i] < free:
                pipe, free = i, sp_free[i]
        start = max(ready, free)
        sp_free[pipe] = start + 1
        self._c_fu_sp_insts.value += 1
        self._c_fu_sp_lanes.value += lane_cost
        return start + self._sp_latency

    def affine_execution(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        decision: Optional[IssueDecision],
    ) -> bool:
        """Affine model: 1-lane execution when inputs and output are affine."""
        affine = self._affine
        if not affine.enabled or inst.opcode not in AFFINE_PRESERVING_OPS:
            return False
        if (exec_result.result is None
                or exec_result.mask.tobytes() != _FULL_MASK):
            return False
        # Register inputs must be tracked-affine; immediates are affine by
        # construction; special registers are checked by value.
        for src, values in zip(inst.srcs, exec_result.sources):
            if src.kind is OperandKind.SREG and not is_affine_value(values):
                return False
        keys = self._operand_read.source_bank_keys(warp, inst, decision)
        if not affine.all_affine(keys):
            return False
        return is_affine_value(exec_result.result)

    def _memory_timing(
        self, warp: Warp, inst: Instruction, exec_result: ExecResult,
        ready: int,
    ) -> int:
        start = max(ready, self.mem_free)
        self.mem_free = start + 1
        self._c_mem_insts.value += 1
        if inst.op_class is OpClass.STORE:
            self._c_store_insts.value += 1
        result = self._port.access(
            inst.space,
            warp.block.block_id,
            exec_result.addresses,
            exec_result.mask,
            start,
            is_store=inst.op_class is OpClass.STORE,
            store_values=exec_result.store_values,
        )
        if inst.op_class is OpClass.LOAD:
            warp.write_reg(inst.dst.value, result.values, exec_result.mask)
        return result.ready_cycle


@register_stage
class AllocateVerifyStage(Stage):
    """Register allocation + VSB verify for an executed result.

    Runs on the writeback event: hashes the result, probes the value
    signature buffer, performs the verify-read or register write
    (arbitrating real register banks), applies the Section V-D pin-bit
    rules, and schedules the commit.  With the WIR unit absent or
    quarantined it degrades to the Base GPU's plain register write.
    """

    name = "allocate_verify"
    inputs = ("exec_result", "decision", "exec_ready")
    outputs = ("dest_phys", "writeback_ready")
    stat_paths = ("wir.hash_generations", "wir.verify_reads",
                  "wir.verify_cache_filtered", "wir.writes_avoided",
                  "wir.dummy_movs", "wir.vsb.*", "wir.vc.*")

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        self._regfile = core.regfile
        self._affine = core.affine
        self._schedule = core._schedule
        unit = core.unit
        self._stall_probe = (core.stall.note_verify
                             if core.stall is not None and unit is not None
                             else None)
        if unit is not None:
            counters = unit.counters
            self._c_hashes = counters.handle("hash_generations")
            self._c_verify_reads = counters.handle("verify_reads")
            self._c_verify_filtered = counters.handle("verify_cache_filtered")
            self._c_writes_avoided = counters.handle("writes_avoided")
            self._c_dummy_movs = counters.handle("dummy_movs")

    def run(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        decision: Optional[IssueDecision],
        cycle: int,
    ) -> None:
        """Writeback-event entry: allocate/verify (WIR) or plain register
        write (Base / quarantined), then schedule the commit event."""
        core = self.core
        if not inst.writes_register:
            self._schedule(cycle, EV_RETIRE, (warp, inst))
            return

        if self.unit is not None and not core.wir_quarantined:
            ready, dest = self.allocate(warp, inst, exec_result, decision,
                                        cycle)
            self._schedule(ready, EV_WIR_COMMIT, (warp, inst, decision, dest))
            return

        # Base GPU: plain register write.
        key = (warp.warp_slot << 8) | inst.dst.value
        affine_tracker = self._affine
        if not affine_tracker.enabled:
            # record_write / record_partial_write are no-ops returning
            # False with tracking disabled; skip them and the mask check.
            affine = False
        elif exec_result.mask.tobytes() == _FULL_MASK:
            affine = affine_tracker.record_write(
                key, warp.read_reg(inst.dst.value), opcode=inst.opcode)
        else:
            affine_tracker.record_partial_write(key)
            affine = False
        ready = self._regfile.schedule_write(key, cycle, affine=affine)
        self._schedule(ready, EV_RETIRE, (warp, inst))

    # -------------------------------------------------------- WIR allocation

    def allocate(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        decision: IssueDecision,
        cycle: int,
    ) -> Tuple[int, int]:
        """Register allocation for an executed instruction's result.

        Returns ``(ready_cycle, dest_phys)``; the caller schedules the
        commit at ``ready_cycle``.  A transit reference is taken on the
        returned register (released by the writeback/retire stage) so
        buffer evictions between writeback and retire cannot recycle it.
        """
        ready, dest = self._allocate_inner(warp, inst, exec_result, decision,
                                           cycle)
        self.unit.refcount.incref(dest)
        return ready, dest

    def _allocate_inner(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        decision: IssueDecision,
        cycle: int,
    ) -> Tuple[int, int]:
        assert inst.writes_register
        unit = self.unit
        logical = inst.dst.value
        slot = warp.warp_slot
        result = warp.read_reg(logical)  # value already committed functionally

        if decision.divergent:
            return self._allocate_divergent(warp, inst, exec_result, cycle,
                                            logical, slot, result)

        # Convergent redefinition clears the pin bit (Section V-D).
        if unit.rename.pin_bit(slot, logical):
            unit.rename.clear_pin(slot, logical)

        if not unit.wir.use_vsb:
            # NoVSB: a fresh register for every convergent write.
            dest = unit.allocate_register()
            unit.physfile.write(dest, result)
            ready = self._regfile.schedule_write(
                dest, cycle, affine=self._write_affine(dest, result, inst))
            return ready, dest

        self._c_hashes.value += 1
        signature = unit.hasher.hash_value(result)
        if unit.faults is not None:
            signature = unit.faults.mutate_signature(signature)
        candidate = unit.vsb.lookup(signature)
        hash_cycle = cycle + 2  # hash generation + VSB table access

        if candidate is not None:
            # Verify-read (possibly filtered by the verify cache).
            if unit.verify_cache.access(candidate):
                self._c_verify_filtered.value += 1
                if self.tracer is not None:
                    self.tracer.wir_event(slot, "verify_filtered",
                                          {"candidate": candidate})
                ready = hash_cycle + 1
            else:
                self._c_verify_reads.value += 1
                if self._stall_probe is not None:
                    self._stall_probe(slot, logical)
                if self.tracer is not None:
                    self.tracer.wir_event(slot, "verify_read",
                                          {"candidate": candidate})
                ready = self._regfile.schedule_read(
                    candidate, hash_cycle,
                    affine=self._affine.is_affine(candidate), verify=True)
            if unit.physfile.read(candidate).tobytes() == result.tobytes():
                self._c_writes_avoided.value += 1
                if self.tracer is not None:
                    self.tracer.wir_event(slot, "vsb_share",
                                          {"reg": candidate})
                return ready, candidate
            # False positive: allocate + write (Figure 7).
            unit.vsb.note_false_positive()
            dest = unit.allocate_register()
            unit.physfile.write(dest, result)
            unit.vsb.insert(signature, dest)
            ready = self._regfile.schedule_write(
                dest, ready, affine=self._write_affine(dest, result, inst))
            return ready, dest

        # VSB miss: new register, write, register the signature.
        if unit.in_low_register_mode():
            unit.vsb.evict_index(
                unit.vsb.index_of(signature) if unit.vsb.num_entries else 0)
            dest = unit.allocate_register()
            unit.physfile.write(dest, result)
        else:
            dest = unit.allocate_register()
            unit.physfile.write(dest, result)
            unit.vsb.insert(signature, dest)
        ready = self._regfile.schedule_write(
            dest, hash_cycle, affine=self._write_affine(dest, result, inst))
        return ready, dest

    def _allocate_divergent(
        self,
        warp: Warp,
        inst: Instruction,
        exec_result: ExecResult,
        cycle: int,
        logical: int,
        slot: int,
        result: np.ndarray,
    ) -> Tuple[int, int]:
        """Pin-bit rules for divergent destinations (Section V-D)."""
        unit = self.unit
        mask = exec_result.mask
        if unit.rename.pin_bit(slot, logical) and unit.rename.is_mapped(
                slot, logical):
            # Dedicated register: overwrite active lanes in place.
            dest = unit.rename.lookup(slot, logical)
            unit.invalidate_stale_tags(dest)
            unit.verify_cache.invalidate(dest)
            unit.physfile.write(dest, result, mask=mask)
            self._affine.record_partial_write(dest)
            ready = self._regfile.schedule_write(dest, cycle)
            return ready, dest

        # First divergent write: dedicated register + dummy MOV for the
        # inactive lanes (copied from the current physical register).
        current = unit.rename.lookup(slot, logical)
        dest = unit.allocate_register()
        unit.rename.set_pin(slot, logical)
        unit.physfile.copy_lanes(current, dest, ~mask)
        unit.physfile.write(dest, result, mask=mask)
        self._affine.record_partial_write(dest)
        self._c_dummy_movs.value += 1
        # Dummy MOV costs: one register read + one register write.
        read_ready = self._regfile.schedule_read(
            current, cycle, affine=self._affine.is_affine(current))
        ready = self._regfile.schedule_write(dest, read_ready)
        ready = self._regfile.schedule_write(dest, ready)  # the result write
        return ready, dest

    def _write_affine(self, dest: int, result: np.ndarray,
                      inst: Instruction) -> bool:
        return self._affine.record_write(dest, result, opcode=inst.opcode)


@register_stage
class WritebackRetireStage(Stage):
    """Commit and retire: rename-table remap, reuse-buffer fill, scoreboard
    release, and pending-retry wakeups."""

    name = "writeback_retire"
    inputs = ("dest_phys", "decision", "writeback_ready")
    outputs = ("retired",)
    stat_paths = ("core.retired", "wir.rename_writes")

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        self._scoreboard = core.scoreboard
        self._pending_regs = core.scoreboard._pending_regs
        self._pending_preds = core.scoreboard._pending_preds
        self._sb_wait = core._sb_wait
        self._sched_of_slot = core._sched_of_slot
        self._instructions = core.program.instructions
        self._stall = core.stall
        self._c_retired = core.counters.handle("retired")
        if core.unit is not None:
            self._c_rename_writes = core.unit.counters.handle("rename_writes")

    def retire(self, warp: Warp, inst: Instruction) -> None:
        """Final pipeline step for every backend instruction."""
        slot = warp.warp_slot
        if self._stall is not None:
            self._stall.note_retire(slot, inst)
        if self.tracer is not None:
            self.tracer.end_inst(slot, inst)
        # Scoreboard release, inlined — this is the hottest event handler
        # of a superblock run (every backend instruction retires).
        if inst.writes_register:
            self._pending_regs[slot].discard(inst.dst.value)
        elif inst.writes_predicate:
            self._pending_preds[slot].discard(inst.dst.value)
        if self._sb_wait[slot]:
            # Unblock the slot only when this release actually cleared its
            # next instruction's hazards — a ``sb_wait`` slot is never
            # exited, so its pc is valid.  Keeping the flag (and the wake
            # memo) when other sources are still pending skips a scheduler
            # scan that would just re-block the slot.
            nxt = self._instructions[warp.stack[-1].pc]
            regs = self._pending_regs[slot]
            preds = self._pending_preds[slot]
            if ((not regs or regs.isdisjoint(nxt.sb_regs))
                    and (not preds or preds.isdisjoint(nxt.sb_preds))):
                self._sb_wait[slot] = False
                sched = self._sched_of_slot[slot]
                sched.scannable += 1
                sched.wake_memo = 0
        warp.inflight -= 1
        self._c_retired.value += 1
        if warp.exited:
            self.core._finish_if_exited(warp)

    def commit(
        self, warp: Warp, inst: Instruction, decision: IssueDecision,
        dest_phys: int,
    ) -> None:
        """Retire an executed WIR instruction: remap the logical
        destination, update the reuse buffer, and wake released
        pending-retry waiters."""
        unit = self.unit
        slot = warp.warp_slot
        logical = inst.dst.value
        if unit.faults is not None:
            # Post-verify corruption: by the commit stage every value check
            # (verify-read, VSB) has already passed — only the lockstep
            # oracle or the reuse recomputation check can catch this.
            unit.faults.maybe_corrupt_result(unit.physfile, dest_phys,
                                             is_load(inst.opcode))
        self._c_rename_writes.value += 1
        unit.rename.remap(slot, logical, dest_phys)
        unit.refcount.decref(dest_phys)  # release the allocate-stage transit ref

        waiters: List[Waiter] = []
        if not (decision.divergent or decision.tag is None):
            if decision.reserved and decision.rb_index is not None:
                waiters = unit.reuse_buffer.fill(decision.rb_index,
                                                 decision.rb_token, dest_phys)
            else:
                # Non-pending-retry designs update the buffer at retire;
                # release the issue-stage transit references on the tag
                # sources afterwards.
                if not unit.in_low_register_mode():
                    reservation = unit.reuse_buffer.reserve(
                        decision.tag,
                        is_load=is_load(inst.opcode),
                        barrier_count=warp.barrier_count,
                        tbid=unit.entry_tbid(warp, inst),
                    )
                    if reservation is not None:
                        index, token = reservation
                        unit.track_tag_sources(decision.tag, index)
                        waiters = unit.reuse_buffer.fill(index, token,
                                                         dest_phys)
                elif decision.rb_index is not None:
                    unit.reuse_buffer.evict_index(decision.rb_index)
                for reg in decision.src_phys:
                    unit.refcount.decref(reg)
        self.retire(warp, inst)
        for waiter in waiters:
            waiter.on_result(dest_phys)

    def commit_reuse(self, warp: Warp, inst: Instruction,
                     result_reg: int) -> None:
        """Retire a reused instruction: only the rename table changes.

        The hit / wakeup took a transit reference on *result_reg*; it is
        released here.
        """
        unit = self.unit
        slot = warp.warp_slot
        logical = inst.dst.value
        self._c_rename_writes.value += 1
        # A reuse is a convergent redefinition: it must clear the pin bit,
        # or a later divergent write would overwrite the now-*shared*
        # result register in place (Section V-D's dedicated-register
        # invariant would be violated).
        if unit.rename.pin_bit(slot, logical):
            unit.rename.clear_pin(slot, logical)
        unit.rename.remap(slot, logical, result_reg)
        unit.refcount.decref(result_reg)
        self.retire(warp, inst)
