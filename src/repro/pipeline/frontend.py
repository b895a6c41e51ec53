"""Warp-select stage: scheduler arbitration and the ready predicate.

This is the stage the two executors bind most differently (DESIGN.md §8,
§13): the scalar oracle walks :meth:`SelectStage.ready` through
``WarpScheduler.pick`` — boring, layered, obviously correct — while the
fast engine binds :meth:`SelectStage.ready_fast` (inlined hazard scan
against cached instruction metadata plus the ``sb_wait`` scoreboard memo)
and, under GTO, :meth:`SelectStage.fast_pick`, which fuses pick + ready
into one min-age loop.  All three are decision-identical; the differential
matrix in ``tests/test_exec_differential.py`` proves it.

The stage caches direct references to the core's slot-state lists at
construction; ``SMCore.load_state`` therefore restores those lists in
place, never replacing them.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.opcodes import OpClass
from repro.pipeline.base import Stage, register_stage
from repro.sim.scheduler import WarpScheduler

#: Wake-memo sentinel: every blocked slot waits on an *event* (scoreboard
#: release, retry wakeup, barrier, dispatch), each of which resets the memo.
_NEVER = 1 << 62


@register_stage
class SelectStage(Stage):
    """Pick the issuing warp slot per scheduler (GTO/LRR arbitration)."""

    name = "select"
    inputs = ("warps", "scoreboard")
    outputs = ("slot",)
    stat_paths = ("core.issued",)

    def __init__(self, core, stats_root) -> None:
        super().__init__(core, stats_root)
        self._instructions = core.program.instructions
        self._warps = core.warps
        self._waiting = core._warp_waiting
        self._blocked_until = core._warp_blocked_until
        self._sb_wait = core._sb_wait
        self._sched_of_slot = core._sched_of_slot
        self._scoreboard = core.scoreboard
        #: Chosen per engine by the core: ``ready_fast`` (fast) or
        #: ``ready`` (scalar); ``fast_pick`` additionally replaces
        #: ``scheduler.pick`` under fast + GTO.
        self.ready_impl = self.ready_fast if core._fast_path else self.ready

    def bind(self, spec) -> None:
        self._execute = spec.execute
        self._sp_free = spec.execute.sp_free

    def binding(self) -> str:
        return ("fused fast_pick/ready_fast" if self.core._fast_path
                else "scheduler.pick(ready)")

    # ----------------------------------------------------------- ready probes

    def ready(self, slot: int) -> bool:
        """Scalar-oracle issue gate (layered, one check per line)."""
        core = self.core
        warp = self._warps[slot]
        if warp is None or warp.exited or warp.at_barrier or self._waiting[slot]:
            return False
        if self._blocked_until[slot] > core.cycle:
            return False
        inst = warp.next_instruction()
        if inst is None:
            return False
        if not self._scoreboard.can_issue(slot, inst):
            return False
        return self._execute.available(inst.op_class, core.cycle)

    def ready_fast(self, slot: int) -> bool:
        """Vector-engine variant of :meth:`ready` — same decision, fewer
        Python hops.

        The scheduler scan calls this for every candidate slot every cycle
        (it dominates scalar profiles), so the property/method chain of
        ``Warp.next_instruction`` and the per-call hazard loops are inlined
        against the cached instruction metadata.  A non-exited warp's pc is
        always in range (every pc change runs ``Warp._reconverge``), so the
        direct instruction-list index is safe.
        """
        warp = self._warps[slot]
        if (warp is None or warp.exited or warp.at_barrier
                or self._waiting[slot] or self._sb_wait[slot]):
            return False
        cycle = self.core.cycle
        if self._blocked_until[slot] > cycle:
            return False
        inst = self._instructions[warp.stack[-1].pc]
        regs = self._scoreboard._pending_regs[slot]
        if regs and not regs.isdisjoint(inst.sb_regs):
            self._sb_wait[slot] = True
            self._sched_of_slot[slot].scannable -= 1
            return False
        preds = self._scoreboard._pending_preds[slot]
        if preds and not preds.isdisjoint(inst.sb_preds):
            self._sb_wait[slot] = True
            self._sched_of_slot[slot].scannable -= 1
            return False
        cls = inst.op_class
        if cls is OpClass.INT or cls is OpClass.FP or cls is OpClass.PRED:
            return min(self._sp_free) <= cycle
        if cls is OpClass.SFU:
            return self._execute.sfu_free <= cycle
        if cls is OpClass.LOAD or cls is OpClass.STORE:
            return self._execute.mem_free <= cycle
        return True

    # ------------------------------------------------------------ arbitration

    def fast_pick(self, scheduler: WarpScheduler) -> Optional[int]:
        """Fused GTO arbitration (fast engine): ``scheduler.pick`` with
        the :meth:`ready_fast` body inlined into the min-age scan.

        Decision-identical to ``scheduler.pick(self.ready_fast)``: the
        greedy probe of the last-issued slot runs first, then the oldest
        ready resident slot wins — ``scheduler._resident`` is kept
        age-ascending (see ``note_dispatch``), so the scan returns the
        *first* ready slot it meets instead of tracking a min-age best.
        Pipeline availability is hoisted out of the loop —
        ``sp_free``/``sfu_free``/``mem_free`` only move when an issue
        executes, i.e. after this pick returns.

        A failed scan records ``scheduler.wake_memo``: the earliest cycle a
        blocked slot can become ready by time alone (control-hazard expiry
        or a pipeline going free).  Slots blocked on *events* (scoreboard,
        pending retry, barrier, empty slot) contribute no candidate — each
        such event resets the memo to 0 at its source.  ``SMCore.tick``
        skips the scan entirely below the memo, which is safe because a
        wake that is merely *early* re-runs the scan and re-memoizes.
        """
        if scheduler.scannable == 0:
            # Every resident slot is scoreboard-blocked; nothing to scan.
            scheduler.wake_memo = _NEVER
            return None
        last = scheduler._last_issued
        if (last is not None and not self._sb_wait[last]
                and self.ready_fast(last)):
            if scheduler.on_pick is not None:
                scheduler.on_pick(scheduler.scheduler_id, last)
            return last

        cycle = self.core.cycle
        warps = self._warps
        waiting = self._waiting
        blocked_until = self._blocked_until
        sb_wait = self._sb_wait
        pend_regs = self._scoreboard._pending_regs
        pend_preds = self._scoreboard._pending_preds
        instructions = self._instructions
        execute = self._execute
        sp_min = min(self._sp_free)
        sp_ok = sp_min <= cycle
        sfu_free = execute.sfu_free
        sfu_ok = sfu_free <= cycle
        mem_free = execute.mem_free
        mem_ok = mem_free <= cycle

        wake = _NEVER
        for slot in scheduler._resident:  # age-ascending: first ready wins
            if sb_wait[slot] or waiting[slot]:
                continue
            warp = warps[slot]
            if warp is None or warp.exited or warp.at_barrier:
                continue
            blocked = blocked_until[slot]
            if blocked > cycle:
                if blocked < wake:
                    wake = blocked
                continue
            inst = instructions[warp.stack[-1].pc]
            regs = pend_regs[slot]
            if regs and not regs.isdisjoint(inst.sb_regs):
                sb_wait[slot] = True
                scheduler.scannable -= 1
                continue
            preds = pend_preds[slot]
            if preds and not preds.isdisjoint(inst.sb_preds):
                sb_wait[slot] = True
                scheduler.scannable -= 1
                continue
            cls = inst.op_class
            if cls is OpClass.INT or cls is OpClass.FP or cls is OpClass.PRED:
                if not sp_ok:
                    if sp_min < wake:
                        wake = sp_min
                    continue
            elif cls is OpClass.SFU:
                if not sfu_ok:
                    if sfu_free < wake:
                        wake = sfu_free
                    continue
            elif cls is OpClass.LOAD or cls is OpClass.STORE:
                if not mem_ok:
                    if mem_free < wake:
                        wake = mem_free
                    continue
            scheduler._last_issued = slot
            if scheduler.on_pick is not None:
                scheduler.on_pick(scheduler.scheduler_id, slot)
            return slot
        scheduler.wake_memo = wake
        return None
