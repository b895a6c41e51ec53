"""Superblock trace compilation for the fast engine (DESIGN.md §16).

The per-instruction fast path (DESIGN.md §8) still pays Python dispatch for
every issued instruction: kernel call, ``ExecResult`` allocation, stage-method
round trips, and a five-tuple writeback event.  This module compiles each
*superblock* — a maximal straight-line run of backend instructions, cut at
branches, barriers/fences, unsupported opcodes, basic-block leaders,
reconvergence points, and (when the WIR unit probes) every reuse-probe
point — once per ``(program, config digest)`` into a list of per-instruction
*step* closures over structure-of-arrays warp state, plus generated *row
evaluators* that compute the functional math of a whole segment in one call.

Bit-identity contract: a step performs exactly the same state mutations, in
exactly the same order, as the per-instruction path through ``SMCore._issue``
→ ``ExecuteStage.run`` → ``AllocateVerifyStage.run`` (Base path, observers
off), and schedules exactly as many heap events at the same cycles — one
``EV_SB_WRITEBACK`` at issue and one ``EV_RETIRE`` from its handler — so
event sequence numbers, bank arbitration order, and every counter match the
scalar oracle bit for bit (``tests/test_exec_differential.py``).  Each step
bumps its own counters, so a checkpoint cut between any two steps sees
exactly the per-instruction path's counts.

Within a block the active mask is constant (no control flow, no leaders), so
lane count and commit shape are decided once at block entry:

* **full** entry (``mask.all()``): rows commit with direct ``registers[dst][:]
  = row`` and lane cost is the constant 32;
* **masked** entry: evaluators blend each row with the previous committed
  value (``np.where(mask, row, prev)``), after which the very same direct
  commit reproduces a masked ``np.copyto`` exactly.

Rows are evaluated at the issue of the instruction a warp enters at, through
to the end of its *segment* (segments split after loads — loads must read
memory at issue), and popped as they are consumed.  The evaluator for each
block-local entry index is generated the first time a warp enters there: a
segment head, a mid-segment pc after a checkpoint restore or an
``invalidate()``, or a guarded singleton.  Nothing here is checkpoint state:
a restore recomputes the remaining rows from the live registers, which at
any mid-segment point hold every earlier row of the segment.  The compiled
tables hang off the program instance (identity-keyed), then by config
digest — never serialized, always rebuildable.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instruction import Instruction, Operand, OperandKind
from repro.isa.opcodes import MemSpace, OpClass, Opcode
from repro.isa.program import Program, basic_blocks
from repro.sim.exec_engine import _CMP_FP, _CMP_INT, _RESULT_OPS
from repro.sim.grid import WARP_SIZE
from repro.sim.regfile import RegisterFileTiming
from repro.sim.serde import EV_RETIRE, EV_SB_WRITEBACK

_BANKS = RegisterFileTiming.BANKS_PER_GROUP

#: FU gate per op class for the greedy hint, mirroring ``ready_fast``
#: exactly: 0 = SP pipelines, 1 = SFU, 2 = memory, 3 = no FU gate.
_FU_CODE = {
    OpClass.INT: 0, OpClass.FP: 0, OpClass.PRED: 0, OpClass.SFU: 1,
    OpClass.LOAD: 2, OpClass.STORE: 2,
}

#: Config digest: every config-derived constant baked into step closures.
#: (front_delay, sp_latency, sfu_latency, num_sp_pipelines, bank_groups)
Digest = Tuple[int, int, int, int, int]


# --------------------------------------------------------------- formation

def _has_kernel(inst: Instruction) -> bool:
    """Whether *inst* has a compiled functional row evaluator."""
    cls = inst.op_class
    if cls in (OpClass.CONTROL, OpClass.SYNC, OpClass.NOP):
        return False
    opcode = inst.opcode
    if opcode in _RESULT_OPS or opcode in (Opcode.SETP, Opcode.FSETP,
                                           Opcode.SELP):
        return True
    return opcode.value.startswith(("ld.", "st."))


def is_compilable(inst: Instruction) -> bool:
    """Whether *inst* may live inside a multi-instruction superblock.

    Control flow, barriers/fences, and nops always cut; guarded
    instructions are excluded so the per-instruction mask stays equal to
    the (block-constant) entry mask; everything else must have a compiled
    functional kernel.
    """
    return inst.guard is None and _has_kernel(inst)


def is_guard_compilable(inst: Instruction) -> bool:
    """Whether a *guarded* backend instruction compiles as its own
    single-instruction block (the effective mask — entry mask AND guard
    predicate — is only known at issue, so it can never share a block)."""
    return inst.guard is not None and _has_kernel(inst)


def block_leaders(program: Program) -> set:
    """Every pc a warp can *enter* other than by falling through: basic
    block leaders plus reconvergence points (a bare ``pc += 1`` inside a
    block must never need the reconvergence check)."""
    n = len(program.instructions)
    leaders = {start for start, _ in basic_blocks(program.instructions)}
    for reconv in program.reconvergence.values():
        if 0 <= reconv < n:
            leaders.add(reconv)
    return leaders


def superblock_ranges(program: Program) -> List[Tuple[int, int]]:
    """Maximal ``(start, end_exclusive)`` runs of compilable instructions
    not crossing any leader (single-instruction runs included).  Guarded
    backend instructions always cut, but each still compiles as its own
    singleton range with the mask applied at issue."""
    leaders = block_leaders(program)
    ranges: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for pc, inst in enumerate(program.instructions):
        if start is not None and pc in leaders:
            ranges.append((start, pc))
            start = None
        if is_compilable(inst):
            if start is None:
                start = pc
        else:
            if start is not None:
                ranges.append((start, pc))
                start = None
            if is_guard_compilable(inst):
                ranges.append((pc, pc + 1))
    if start is not None:
        ranges.append((start, len(program.instructions)))
    return ranges


# ----------------------------------------------------------- row evaluators
#
# A segment's rows are computed by one generated function per block-local
# entry index.  Registers and predicates the segment wrote earlier are read
# from local variables holding the segment's last write; everything else is
# read from the live warp state.  With a full entry mask the raw result *is*
# the committed value; with a partial mask each row is blended with the
# previous committed value so the step can commit it with a direct
# full-width assignment.

def _operand_expr(operand: Operand, temps: Dict, consts: Dict) -> str:
    """Source-code expression for one operand inside a generated segment
    evaluator — resolved as ``exec_engine.resolve_operand`` does, except
    that a register the segment already wrote reads *temps* (reg/pred ->
    local variable name of the segment's last write)."""
    kind = operand.kind
    if kind is OperandKind.REG:
        return temps.get(("r", operand.value), f"R[{operand.value}]")
    if kind is OperandKind.IMM:
        shared = np.full(WARP_SIZE, operand.value, dtype=np.uint32)
        shared.flags.writeable = False
        name = f"C{len(consts)}"
        consts[name] = shared
        return name
    if kind is OperandKind.SREG:
        return f"warp.special_value({operand.sreg_name!r})"
    if kind is OperandKind.ADDR:
        base = temps.get(("r", operand.value), f"R[{operand.value}]")
        return (f"(({base}.astype(_i64) + {operand.offset})"
                f" & 0xFFFFFFFF).astype(_u32)")
    raise ValueError(f"cannot resolve operand {operand}")


def _codegen_segment(block_start: int, insts, i0: int, i1: int) -> tuple:
    """Compile the rows of block-local ``i0..i1`` (an entry index up to its
    segment end) into two generated functions — ``(full, masked)`` — each
    evaluating every row in one call: the "single fused numpy kernel" of
    DESIGN.md §16.

    The generated code calls the per-instruction kernels' compute
    functions and comparison tables (``exec_engine._RESULT_OPS``,
    ``_CMP_INT``/``_CMP_FP``) in instruction order, so rows are
    bit-identical to the scalar oracle, dtypes included
    (``tests/test_superblock.py``).  *i0* may be any index: a segment
    head, a mid-segment entry after a checkpoint restore or an
    ``invalidate()``, or a guarded singleton (whose caller always takes
    the full variant — the guard wrapper masks at issue).
    """
    consts: Dict[str, object] = {}
    temps: Dict[tuple, str] = {}
    full = ["def seg_full(warp, rows):",
            "    R = warp.registers", "    P = warp.predicates"]
    masked = ["def seg_masked(warp, rows, mask):",
              "    R = warp.registers", "    P = warp.predicates"]
    for i in range(i0, i1):
        inst = insts[i]
        pc = block_start + i
        opcode = inst.opcode
        t = f"t{i}"
        if inst.op_class is OpClass.LOAD:
            # The row is the address vector (mask-independent).
            addr = _operand_expr(inst.srcs[0], temps, consts)
            full.append(f"    rows[{pc}] = {addr}")
            masked.append(f"    rows[{pc}] = {addr}")
            continue
        if inst.op_class is OpClass.STORE:
            addr = _operand_expr(inst.srcs[0], temps, consts)
            values = _operand_expr(inst.srcs[1], temps, consts)
            full.append(f"    rows[{pc}] = ({addr}, {values})")
            masked.append(f"    rows[{pc}] = ({addr}, {values})")
            continue
        if opcode in (Opcode.SETP, Opcode.FSETP):
            table = _CMP_INT if opcode is Opcode.SETP else _CMP_FP
            fname = f"G{i}"
            consts[fname] = table[inst.cmp]
            a = _operand_expr(inst.srcs[0], temps, consts)
            b = _operand_expr(inst.srcs[1], temps, consts)
            raw = f"{fname}({a}, {b})"
            dst = inst.dst.value
            prev = temps.get(("p", dst), f"P[{dst}]")
            full.append(f"    {t} = {raw}")
            masked.append(f"    {t} = np.where(mask, {raw}, {prev})")
            temps[("p", dst)] = t
        else:
            if opcode is Opcode.SELP:
                pred = temps.get(("p", inst.pred_src), f"P[{inst.pred_src}]")
                a = _operand_expr(inst.srcs[0], temps, consts)
                b = _operand_expr(inst.srcs[1], temps, consts)
                raw = f"np.where({pred}, {a}, {b})"
            else:
                fname = f"F{i}"
                consts[fname] = _RESULT_OPS[opcode]
                args = ", ".join(_operand_expr(src, temps, consts)
                                 for src in inst.srcs)
                if len(inst.srcs) == 1:
                    args += ","
                raw = f"{fname}(({args}))"
            dst = inst.dst.value
            prev = temps.get(("r", dst), f"R[{dst}]")
            full.append(f"    {t} = {raw}")
            masked.append(f"    {t} = np.where(mask, {raw}, {prev})")
            temps[("r", dst)] = t
        full.append(f"    rows[{pc}] = {t}")
        masked.append(f"    rows[{pc}] = {t}")
    ns: Dict[str, object] = {"np": np, "_i64": np.int64, "_u32": np.uint32}
    ns.update(consts)
    exec("\n".join(full) + "\n\n" + "\n".join(masked), ns)
    return ns["seg_full"], ns["seg_masked"]


# ------------------------------------------------------------------- steps
#
# A step is the timing half of one issued instruction.  Ordering is an exact
# transcription of the per-instruction path (counters, scoreboard, advance,
# commit, bank reads, FU/memory arbitration, event push) — see the module
# docstring for the contract.  ``last`` steps use the full ``warp.advance()``
# (the next pc is a leader / program end and may reconverge or exit); inner
# steps use a bare ``pc += 1`` (provably equivalent inside a block).

def _read_sched(inst: Instruction, ngroups: int):
    """Compile-time constants for the inlined bank-read arbitration.

    ``(slot << 8) % ngroups == 0`` whenever ``ngroups`` divides 256, so the
    bank group of key ``(slot << 8) | reg`` is just ``reg % ngroups`` and can
    be precomputed per instruction.
    """
    groups = tuple(reg % ngroups for reg in inst.bank_regs)
    return groups, len(groups), len(groups) * _BANKS


def _make_alu_step(inst: Instruction, digest: Digest, last: bool) -> Callable:
    front, sp_latency, sfu_latency, nsp, ngroups = digest
    groups, nreads, bank_add = _read_sched(inst, ngroups)
    dst = inst.dst.value
    cls_value = inst.op_class.value
    sfu = inst.op_class is OpClass.SFU

    def step(rt, warp, slot, cycle, row, lanes, mask):
        rt.c_issued.value += 1
        rt.c_backend.value += 1
        b = rt.by_buckets
        b[cls_value] = b.get(cls_value, 0) + 1
        warp.last_issue_cycle = cycle
        rt.pend_regs[slot].add(dst)
        warp.inflight += 1
        if last:
            warp.advance()
        else:
            warp.stack[-1].pc += 1
        warp.registers[dst][:] = row
        start = cycle + front
        ready = start
        retries = 0
        read_free = rt.read_free
        for group in groups:
            busy = read_free[group]
            if busy < start:
                busy = start
            else:
                retries += busy - start
            read_free[group] = busy + 1
            if busy >= ready:
                ready = busy + 1
        if nreads:
            rt.rd_req.value += nreads
            rt.rd_bank.value += bank_add
        if retries:
            rt.rd_retr.value += retries
        if sfu:
            ex = rt.ex
            fu = ex.sfu_free
            if fu < ready:
                fu = ready
            ex.sfu_free = fu + 1
            rt.c_sfu.value += 1
            rt.c_sfu_lanes.value += lanes
            writeback = fu + sfu_latency
        else:
            sp_free = rt.sp_free
            pipe = 0
            fu = sp_free[0]
            for i in range(1, nsp):
                if sp_free[i] < fu:
                    pipe, fu = i, sp_free[i]
            if fu < ready:
                fu = ready
            sp_free[pipe] = fu + 1
            rt.c_sp.value += 1
            rt.c_sp_lanes.value += lanes
            writeback = fu + sp_latency
        # Event push, inlined (``SMCore._schedule`` minus the call hop).
        core = rt.core
        core._event_seq = seq = core._event_seq + 1
        heappush(rt.events, (writeback if writeback > cycle else cycle + 1,
                             seq, EV_SB_WRITEBACK, (warp, inst, writeback)))
    return step


def _make_setp_step(inst: Instruction, digest: Digest, last: bool) -> Callable:
    front, sp_latency, _, nsp, ngroups = digest
    groups, nreads, bank_add = _read_sched(inst, ngroups)
    dst = inst.dst.value
    cls_value = inst.op_class.value

    def step(rt, warp, slot, cycle, row, lanes, mask):
        rt.c_issued.value += 1
        rt.c_backend.value += 1
        b = rt.by_buckets
        b[cls_value] = b.get(cls_value, 0) + 1
        warp.last_issue_cycle = cycle
        rt.pend_preds[slot].add(dst)
        warp.inflight += 1
        if last:
            warp.advance()
        else:
            warp.stack[-1].pc += 1
        warp.predicates[dst][:] = row
        start = cycle + front
        ready = start
        retries = 0
        read_free = rt.read_free
        for group in groups:
            busy = read_free[group]
            if busy < start:
                busy = start
            else:
                retries += busy - start
            read_free[group] = busy + 1
            if busy >= ready:
                ready = busy + 1
        if nreads:
            rt.rd_req.value += nreads
            rt.rd_bank.value += bank_add
        if retries:
            rt.rd_retr.value += retries
        sp_free = rt.sp_free
        pipe = 0
        fu = sp_free[0]
        for i in range(1, nsp):
            if sp_free[i] < fu:
                pipe, fu = i, sp_free[i]
        if fu < ready:
            fu = ready
        sp_free[pipe] = fu + 1
        rt.c_sp.value += 1
        rt.c_sp_lanes.value += lanes
        writeback = fu + sp_latency
        core = rt.core
        core._event_seq = seq = core._event_seq + 1
        heappush(rt.events, (writeback if writeback > cycle else cycle + 1,
                             seq, EV_SB_WRITEBACK, (warp, inst, writeback)))
    return step


def _make_load_step(inst: Instruction, digest: Digest, last: bool) -> Callable:
    front, _, _, _, ngroups = digest
    groups, nreads, bank_add = _read_sched(inst, ngroups)
    dst = inst.dst.value
    cls_value = inst.op_class.value
    space = inst.space

    def step(rt, warp, slot, cycle, row, lanes, mask):
        rt.c_issued.value += 1
        rt.c_backend.value += 1
        b = rt.by_buckets
        b[cls_value] = b.get(cls_value, 0) + 1
        warp.last_issue_cycle = cycle
        rt.pend_regs[slot].add(dst)
        warp.inflight += 1
        if last:
            warp.advance()
        else:
            warp.stack[-1].pc += 1
        start = cycle + front
        ready = start
        retries = 0
        read_free = rt.read_free
        for group in groups:
            busy = read_free[group]
            if busy < start:
                busy = start
            else:
                retries += busy - start
            read_free[group] = busy + 1
            if busy >= ready:
                ready = busy + 1
        if nreads:
            rt.rd_req.value += nreads
            rt.rd_bank.value += bank_add
        if retries:
            rt.rd_retr.value += retries
        ex = rt.ex
        fu = ex.mem_free
        if fu < ready:
            fu = ready
        ex.mem_free = fu + 1
        rt.c_mem.value += 1
        access_mask = rt.full_mask if mask is None else mask
        result = rt.port_access(space, warp.block.block_id, row, access_mask,
                                fu, False, None)
        if mask is None:
            warp.registers[dst][:] = result.values
        else:
            np.copyto(warp.registers[dst], result.values, where=mask)
        ready = result.ready_cycle
        core = rt.core
        core._event_seq = seq = core._event_seq + 1
        heappush(rt.events, (ready if ready > cycle else cycle + 1,
                             seq, EV_SB_WRITEBACK, (warp, inst, ready)))
    return step


def _make_store_step(inst: Instruction, digest: Digest, last: bool) -> Callable:
    front, _, _, _, ngroups = digest
    groups, nreads, bank_add = _read_sched(inst, ngroups)
    cls_value = inst.op_class.value
    space = inst.space
    shared = space is MemSpace.SHARED
    glob = space is MemSpace.GLOBAL

    def step(rt, warp, slot, cycle, row, lanes, mask):
        rt.c_issued.value += 1
        rt.c_backend.value += 1
        b = rt.by_buckets
        b[cls_value] = b.get(cls_value, 0) + 1
        warp.last_issue_cycle = cycle
        # Store flags for load reuse (Section VI-A), as in ``_issue``.
        if shared:
            warp.shared_store_flag = True
        elif glob:
            warp.global_store_flag = True
        warp.inflight += 1
        if last:
            warp.advance()
        else:
            warp.stack[-1].pc += 1
        start = cycle + front
        ready = start
        retries = 0
        read_free = rt.read_free
        for group in groups:
            busy = read_free[group]
            if busy < start:
                busy = start
            else:
                retries += busy - start
            read_free[group] = busy + 1
            if busy >= ready:
                ready = busy + 1
        if nreads:
            rt.rd_req.value += nreads
            rt.rd_bank.value += bank_add
        if retries:
            rt.rd_retr.value += retries
        ex = rt.ex
        fu = ex.mem_free
        if fu < ready:
            fu = ready
        ex.mem_free = fu + 1
        rt.c_mem.value += 1
        rt.c_store.value += 1
        access_mask = rt.full_mask if mask is None else mask
        result = rt.port_access(space, warp.block.block_id, row[0],
                                access_mask, fu, True, row[1])
        ready = result.ready_cycle
        core = rt.core
        core._event_seq = seq = core._event_seq + 1
        heappush(rt.events, (ready if ready > cycle else cycle + 1,
                             seq, EV_SB_WRITEBACK, (warp, inst, ready)))
    return step


def _guard_wrap(inst: Instruction, inner: Callable) -> Callable:
    """Wrap a singleton-block step for a guarded instruction.

    The effective mask — entry mask AND guard predicate, exactly
    ``Warp.guard_mask`` — and its lane count are computed at issue, before
    the delegated step's ``advance`` can pop the stack entry.  Value- and
    predicate-writing steps commit with a direct full-width assignment, so
    the raw row is pre-blended with the previous destination here (the
    same ``np.where`` trick masked block entries use)."""
    guard_index = inst.guard.index
    negated = inst.guard.negated
    cls = inst.op_class
    if cls in (OpClass.LOAD, OpClass.STORE):
        def step(rt, warp, slot, cycle, row, lanes, mask):
            pred = warp.predicates[guard_index]
            gmask = warp.stack[-1].mask & (~pred if negated else pred)
            inner(rt, warp, slot, cycle, row,
                  max(int(np.count_nonzero(gmask)), 1), gmask)
        return step
    dst = inst.dst.value
    bank = "predicates" if cls is OpClass.PRED else "registers"

    def step(rt, warp, slot, cycle, row, lanes, mask):
        pred = warp.predicates[guard_index]
        gmask = warp.stack[-1].mask & (~pred if negated else pred)
        blended = np.where(gmask, row, getattr(warp, bank)[dst])
        inner(rt, warp, slot, cycle, blended,
              max(int(np.count_nonzero(gmask)), 1), gmask)
    return step


def _make_step(inst: Instruction, digest: Digest, last: bool) -> Callable:
    cls = inst.op_class
    if cls is OpClass.LOAD:
        inner = _make_load_step(inst, digest, last)
    elif cls is OpClass.STORE:
        inner = _make_store_step(inst, digest, last)
    elif cls is OpClass.PRED:
        inner = _make_setp_step(inst, digest, last)
    else:
        inner = _make_alu_step(inst, digest, last)
    if inst.guard is None:
        return inner
    return _guard_wrap(inst, inner)


# ----------------------------------------------------------- compiled block

class CompiledBlock:
    """One compiled superblock: per-instruction steps plus generated row
    evaluators.  Shared by every SM running the same (program, digest)."""

    __slots__ = ("start", "end", "steps", "_insts", "_guarded", "_seg_end",
                 "_seg_fn")

    def __init__(self, program: Program, start: int, end: int,
                 digest: Digest) -> None:
        self.start = start
        self.end = end
        insts = self._insts = program.instructions[start:end]
        self.steps = [_make_step(inst, digest, start + i + 1 == end)
                      for i, inst in enumerate(insts)]
        #: Guarded instructions only ever form singletons.
        self._guarded = insts[0].guard is not None
        # Segment ends (block-local, exclusive): split *after* each load,
        # because a load's value is only known once memory is read at issue.
        self._seg_end = [0] * len(insts)
        seg_start = 0
        for i, inst in enumerate(insts):
            if inst.op_class is OpClass.LOAD:
                for j in range(seg_start, i + 1):
                    self._seg_end[j] = i + 1
                seg_start = i + 1
        for j in range(seg_start, len(insts)):
            self._seg_end[j] = len(insts)
        #: Generated ``(full, masked)`` evaluators keyed by block-local entry
        #: index, compiled the first time a warp enters there (see
        #: :func:`_codegen_segment`).
        self._seg_fn: Dict[int, tuple] = {}

    def eval_rows(self, warp, idx: int, mask: Optional[np.ndarray],
                  rows: Dict[int, object]) -> None:
        """Evaluate rows for block-local indices ``idx .. segment end`` into
        *rows* (keyed by absolute pc).  ``mask is None`` means a full entry
        mask; otherwise rows are blended into committed values (see module
        docstring).  A guarded singleton always yields the raw row: its
        step wrapper applies the effective mask at issue."""
        fns = self._seg_fn.get(idx)
        if fns is None:
            fns = self._seg_fn[idx] = _codegen_segment(
                self.start, self._insts, idx, self._seg_end[idx])
        if mask is None or self._guarded:
            fns[0](warp, rows)
        else:
            fns[1](warp, rows, mask)


def compiled_table(program: Program, digest: Digest) -> list:
    """The per-pc dispatch table for (program, digest), built once and
    shared across SMs and runs.  Tables hang off the program instance
    (keyed by *identity*, so equal but distinct programs never alias, and
    the cache dies with the program)."""
    per_program: Optional[Dict[Digest, list]] = getattr(
        program, "_superblock_tables", None)
    if per_program is None:
        per_program = {}
        program._superblock_tables = per_program
    table = per_program.get(digest)
    if table is None:
        table = [None] * len(program.instructions)
        for start, end in superblock_ranges(program):
            block = CompiledBlock(program, start, end, digest)
            for i in range(start, end):
                table[i] = (block, i - start)
        per_program[digest] = table
    return table


# ----------------------------------------------------------------- runtime

class SuperblockRuntime:
    """Per-SM execution state for the superblock fast path.

    Owns no checkpoint state: pending rows and entry memos are rebuilt
    lazily from live warp state after a restore, and the compiled table is
    re-fetched from the module cache.  The fast path only activates when
    every observer hook is absent (tracer, checker, profiler, stall
    attribution, affine tracking) and WIR probes are off (unit absent or
    quarantined) — otherwise every instruction takes the bit-identical
    per-instruction path.
    """

    def __init__(self, core, execute_stage, front_delay: int) -> None:
        config = core.config
        self.core = core
        self.ex = execute_stage
        self.digest: Digest = (front_delay, config.sp_latency,
                               config.sfu_latency, config.num_sp_pipelines,
                               config.register_bank_groups)
        # The inlined bank arbitration precomputes ``reg % groups`` per
        # instruction, valid only when the slot's high key bits vanish.
        self._bankable = 256 % config.register_bank_groups == 0
        slots = config.max_warps_per_sm
        #: Per-slot pending rows (absolute pc -> row), popped on issue.
        self.rows: List[Dict[int, object]] = [{} for _ in range(slots)]
        #: Per-slot block-entry memo: (block, lane_cost, mask-or-None).
        self.entry: List[Optional[tuple]] = [None] * slots
        #: Lazily refreshed dispatch table (None = needs refresh).
        self.table: Optional[list] = None
        self._off = [None] * len(core.program.instructions)

        regfile = core.regfile
        self.read_free = regfile._read_free
        self.write_free = regfile._write_free
        self.ngroups = regfile.num_groups
        self.schedule = core._schedule
        self.pend_regs = core.scoreboard._pending_regs
        self.pend_preds = core.scoreboard._pending_preds
        self.sb_wait = core._sb_wait
        self.sched_of_slot = core._sched_of_slot
        self.instructions = core.program.instructions
        #: Per-pc FU gate for the greedy hint (see ``_FU_CODE``).
        self.fu_code = [_FU_CODE.get(inst.op_class, 3)
                        for inst in self.instructions]
        #: The core's event heap (``SMCore.load_state`` restores it in
        #: place, so the direct reference stays valid across restores);
        #: steps push writeback events on it without the ``_schedule`` hop.
        self.events = core._events
        self.sp_free = execute_stage.sp_free
        self.port_access = core.port.access
        self.full_mask = np.ones(WARP_SIZE, dtype=bool)
        self.full_mask.flags.writeable = False

        counters = core.counters
        self.c_issued = counters.handle("issued")
        # ``load_state`` clears/updates this dict in place, so the direct
        # bucket reference stays valid across checkpoint restores.
        self.by_buckets = counters.handle("issued_by_class").buckets
        self.c_backend = counters.handle("backend_insts")
        self.c_sp = counters.handle("fu_sp_insts")
        self.c_sp_lanes = counters.handle("fu_sp_lanes")
        self.c_sfu = counters.handle("fu_sfu_insts")
        self.c_sfu_lanes = counters.handle("fu_sfu_lanes")
        self.c_mem = counters.handle("mem_insts")
        self.c_store = counters.handle("store_insts")
        rf_counters = regfile.stats._stats
        self.rd_req = rf_counters["read_requests"]
        self.rd_retr = rf_counters["read_retries"]
        self.rd_bank = rf_counters["bank_reads"]
        self.wr_req = rf_counters["write_requests"]
        self.wr_retr = rf_counters["write_retries"]
        self.wr_bank = rf_counters["bank_writes"]

        if core.unit is not None:
            # Reuse-state invalidation hook: a quarantine flush voids every
            # assumption about mid-block probe outcomes, so drop all cached
            # dispatch state and re-decide at the next issue.
            core.unit.on_flush.append(self.invalidate)

    # ------------------------------------------------------------- dispatch

    def _refresh(self) -> list:
        core = self.core
        if (not self._bankable or core.tracer is not None
                or core.checker is not None or core.profiler is not None
                or core.stall is not None or core.affine.enabled
                or (core.unit is not None and not core.wir_quarantined)):
            # Observer attached or WIR probes live: every pc is a probe /
            # observation point, so no superblock forms — and the core
            # stops offering issues until ``invalidate`` re-arms it.
            table = self._off
            core._sb_live = None
        else:
            table = compiled_table(core.program, self.digest)
        self.table = table
        return table

    def invalidate(self) -> None:
        """Drop all cached dispatch state and re-arm block dispatch, which
        re-decides at the next issue (quarantine flush hook)."""
        self.table = None
        self.core._sb_live = self
        for rows in self.rows:
            rows.clear()
        for slot in range(len(self.entry)):
            self.entry[slot] = None

    def try_issue(self, slot: int, warp, cycle: int) -> bool:
        """Issue the warp's next instruction through its compiled step.
        Returns False when the pc is not inside a superblock (caller falls
        back to the per-instruction path)."""
        table = self.table
        if table is None:
            table = self._refresh()
        pc = warp.stack[-1].pc
        slotted = table[pc]
        if slotted is None:
            return False
        block, idx = slotted
        state = self.entry[slot]
        if idx == 0 or state is None or state[0] is not block:
            mask = warp.stack[-1].mask
            lanes = int(np.count_nonzero(mask))
            if lanes == WARP_SIZE:
                state = (block, WARP_SIZE, None)
            else:
                state = (block, max(lanes, 1), mask)
            self.entry[slot] = state
        rows = self.rows[slot]
        row = rows.pop(pc, None)
        if row is None:
            block.eval_rows(warp, idx, state[2], rows)
            row = rows.pop(pc)
        block.steps[idx](self, warp, slot, cycle, row, state[1], state[2])
        # Post-issue hazard memo: the step advanced the pc and registered
        # its writes, so when the warp's next instruction is already
        # scoreboard-blocked, mark ``sb_wait`` now — the next scheduler
        # scan would conclude exactly this, and the retire-side release
        # re-checks the hazard before clearing the flag.
        npc = warp.stack[-1].pc
        nxt = self.instructions[npc]
        regs = self.pend_regs[slot]
        preds = self.pend_preds[slot]
        if ((regs and not regs.isdisjoint(nxt.sb_regs))
                or (preds and not preds.isdisjoint(nxt.sb_preds))):
            self.sb_wait[slot] = True
            self.sched_of_slot[slot].scannable -= 1
        else:
            # Greedy hint: this slot is the scheduler's GTO greedy warp and
            # its next instruction is hazard-free, so the only issue gate
            # left at cycle+1 is FU availability — every warp flag and the
            # control-hazard window are provably unchanged until then.  The
            # next tick re-checks just that gate and skips arbitration.
            sched = self.sched_of_slot[slot]
            sched.hint_cycle = cycle + 1
            sched.hint_slot = slot
            sched.hint_fu = self.fu_code[npc]
        return True

    def on_writeback(self, warp, inst, ready: int) -> None:
        """EV_SB_WRITEBACK handler: the Base-path allocate/verify stage
        (plain register write, then retire) with the bank write and the
        retire-event push inlined."""
        if inst.writes_register:
            group = ((warp.warp_slot << 8) | inst.dst.value) % self.ngroups
            write_free = self.write_free
            busy = write_free[group]
            if busy < ready:
                busy = ready
            write_free[group] = busy + 1
            self.wr_req.value += 1
            self.wr_retr.value += busy - ready
            self.wr_bank.value += _BANKS
            ready = busy + 1
        core = self.core
        floor = core.cycle + 1
        core._event_seq = seq = core._event_seq + 1
        heappush(self.events, (ready if ready > floor else floor,
                               seq, EV_RETIRE, (warp, inst)))
