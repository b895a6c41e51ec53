"""Lockstep golden-model oracle (the correctness pillar of ``repro.check``).

The WIR design's safety argument rests on the verify-read: a VSB hit is
only a *hint* and reuse is safe only because the candidate register's value
is compared against the freshly computed result before remapping.  The
simulator therefore needs an independent referee: a pure functional
executor with **no** renaming, no reuse buffer, no VSB — just
:mod:`repro.sim.exec_engine` semantics applied to private register state
and a private copy of the memory image.

:class:`LockstepChecker` runs that executor in lockstep with the timing
pipeline.  Every instruction the SM issues is replayed on a *shadow warp*
(same :class:`~repro.sim.warp.Warp` state machine, private storage) in the
exact same global order, and the architectural effects are compared:

* the shadow warp must be at the pc the pipeline issued from;
* active masks and branch outcomes must match;
* every committed destination register/predicate must match the shadow's
  value, including results delivered by reuse hits and pending-retry
  wakeups (the deferred-commit path);
* at the end of the run, every shadow warp must have exited and the final
  global/local memory images must be identical.

On the first mismatch a :class:`DivergenceError` with full provenance
(SM, block, warp, pc, opcode, cycle, first bad lane) is raised — or, when
``config.wir.quarantine`` is set, the SM repairs the register from the
golden value and quarantines its WIR unit (see ``SMCore.quarantine_wir``).

The comparison is exact (bit-for-bit on uint32 lanes): both sides run the
same numpy kernels on the same inputs, so any difference is a real
disagreement between the timing pipeline's bookkeeping and the ISA
semantics, not floating-point noise.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check.errors import DivergenceError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpClass
from repro.sim.exec_engine import execute
from repro.sim.gpu import GPU, KernelLaunch, RunResult
from repro.sim.memory.space import MemoryImage
from repro.sim.warp import Warp
from repro.stats import StatGroup

#: Key identifying one warp for the whole launch (warp slots are recycled
#: across blocks; ``(block_id, warp_in_block)`` is unique).
WarpKey = Tuple[int, int]


class OracleStats(StatGroup):
    """Oracle effort counters, adopted into the run's stats registry."""

    COUNTERS = ("instructions", "commits", "memory_words")


def _first_mismatch(expected: np.ndarray, actual: np.ndarray) -> int:
    """Index of the first differing element of two equal-shape arrays."""
    diff = np.nonzero(expected != actual)[0]
    return int(diff[0]) if diff.size else -1


class LockstepChecker:
    """Pure functional referee running in lockstep with the SM pipelines.

    One instance checks one kernel launch.  The SM core drives it through
    two hooks:

    * :meth:`observe_issue` — at instruction issue: steps the shadow warp,
      checks control state, and snapshots the expected destination value;
    * :meth:`check_commit` — after the pipeline's functional commit
      (immediately for the execute/reuse paths, at wakeup for the
      pending-retry path): compares the committed value to the snapshot.

    :meth:`finalize` closes the loop with exit-state and memory-image
    comparison.
    """

    def __init__(self, benchmark: Optional[str] = None) -> None:
        self.benchmark = benchmark
        self.stats = OracleStats("oracle")
        self._program = None
        self._image: Optional[MemoryImage] = None
        self._shadows: Dict[WarpKey, Warp] = {}
        #: Outstanding expected commit per warp: (pc, kind, value copy).
        #: The scoreboard guarantees at most one in-flight writer per
        #: logical destination, and a queued (pending-retry) warp cannot
        #: issue further instructions, so one slot per warp suffices.
        self._pending: Dict[WarpKey, Tuple[int, str, np.ndarray]] = {}

    # ------------------------------------------------------------- lifecycle

    def begin(self, launch: KernelLaunch) -> None:
        """Snapshot the pristine memory image before the pipeline runs."""
        self._program = launch.program
        self._image = copy.deepcopy(launch.image)
        self._shadows.clear()
        self._pending.clear()

    # -------------------------------------------------------------- helpers

    def _shadow_for(self, warp: Warp) -> Warp:
        key = (warp.block.block_id, warp.warp_in_block)
        shadow = self._shadows.get(key)
        if shadow is None:
            shadow = Warp(warp.warp_slot, warp.block, warp.warp_in_block,
                          self._program)
            self._shadows[key] = shadow
        return shadow

    def _diverge(self, sm, warp: Warp, inst: Optional[Instruction],
                 message: str, **kwargs) -> DivergenceError:
        return DivergenceError(
            message,
            benchmark=self.benchmark,
            sm_id=getattr(sm, "sm_id", None),
            cycle=getattr(sm, "cycle", None),
            block_id=warp.block.block_id,
            warp_in_block=warp.warp_in_block,
            warp_slot=warp.warp_slot,
            pc=inst.pc if inst is not None else None,
            opcode=inst.opcode.value if inst is not None else None,
            **kwargs,
        )

    # ----------------------------------------------------------- issue hook

    def observe_issue(self, sm, warp: Warp, inst: Instruction,
                      exec_result) -> None:
        """Replay *inst* on the shadow warp and cross-check control state.

        Called by the SM core right after functional execution, before the
        reuse decision — i.e. once per issued instruction, in the global
        issue order (which is the order functional memory state mutates).
        """
        shadow = self._shadow_for(warp)
        if shadow.exited:
            raise self._diverge(
                sm, warp, inst, "pipeline issued from an exited shadow warp",
                kind="control")
        if shadow.pc != inst.pc:
            raise self._diverge(
                sm, warp, inst,
                f"pipeline issued pc {inst.pc} but the golden model is at "
                f"pc {shadow.pc}",
                kind="control", expected=shadow.pc, actual=inst.pc)

        s_res = execute(inst, shadow)
        if not np.array_equal(s_res.mask, exec_result.mask):
            lane = _first_mismatch(s_res.mask, exec_result.mask)
            raise self._diverge(
                sm, warp, inst, f"active-mask mismatch (first lane {lane})",
                kind="mask", lane=lane, expected=s_res.mask,
                actual=exec_result.mask)

        self.stats.instructions += 1
        cls = inst.op_class

        if cls is OpClass.CONTROL:
            if inst.opcode is Opcode.BRA:
                if not np.array_equal(s_res.taken_mask,
                                      exec_result.taken_mask):
                    lane = _first_mismatch(s_res.taken_mask,
                                           exec_result.taken_mask)
                    raise self._diverge(
                        sm, warp, inst,
                        f"branch taken-mask mismatch (first lane {lane})",
                        kind="branch", lane=lane, expected=s_res.taken_mask,
                        actual=exec_result.taken_mask)
                shadow.resolve_branch(inst.pc, s_res.taken_mask, inst.target)
            else:
                shadow.execute_exit(s_res.mask)
            return
        if cls in (OpClass.SYNC, OpClass.NOP):
            shadow.advance()
            return

        shadow.advance()
        if cls is OpClass.LOAD:
            if not np.array_equal(s_res.addresses, exec_result.addresses):
                lane = _first_mismatch(s_res.addresses, exec_result.addresses)
                raise self._diverge(
                    sm, warp, inst,
                    f"load address mismatch (first lane {lane})",
                    kind="address", lane=lane, expected=s_res.addresses,
                    actual=exec_result.addresses)
            store = self._image.store_for(inst.space, warp.block.block_id)
            values = store.load(s_res.addresses, s_res.mask)
            shadow.write_reg(inst.dst.value, values, s_res.mask)
        elif cls is OpClass.STORE:
            if not np.array_equal(s_res.addresses, exec_result.addresses):
                lane = _first_mismatch(s_res.addresses, exec_result.addresses)
                raise self._diverge(
                    sm, warp, inst,
                    f"store address mismatch (first lane {lane})",
                    kind="address", lane=lane, expected=s_res.addresses,
                    actual=exec_result.addresses)
            if not np.array_equal(s_res.store_values,
                                  exec_result.store_values):
                lane = _first_mismatch(s_res.store_values,
                                       exec_result.store_values)
                raise self._diverge(
                    sm, warp, inst,
                    f"store value mismatch (first lane {lane})",
                    kind="store", lane=lane, expected=s_res.store_values,
                    actual=exec_result.store_values)
            store = self._image.store_for(inst.space, warp.block.block_id)
            store.store(s_res.addresses, s_res.store_values, s_res.mask)
        else:
            if s_res.result is not None:
                shadow.write_reg(inst.dst.value, s_res.result, s_res.mask)
            if s_res.pred_result is not None:
                shadow.write_pred(inst.dst.value, s_res.pred_result,
                                  s_res.mask)

        key = (warp.block.block_id, warp.warp_in_block)
        if inst.writes_register:
            self._pending[key] = (
                inst.pc, "register", shadow.read_reg(inst.dst.value).copy())
        elif inst.writes_predicate:
            self._pending[key] = (
                inst.pc, "predicate", shadow.read_pred(inst.dst.value).copy())

    # ---------------------------------------------------------- commit hook

    def check_commit(self, sm, warp: Warp, inst: Instruction) -> None:
        """Compare the pipeline's committed destination against the oracle.

        Called once the destination value is architecturally visible:
        at the end of issue for the execute and immediate-reuse paths, and
        at wakeup for the pending-retry path.  Raises
        :class:`DivergenceError` (with ``repair`` set to the golden value)
        on mismatch.
        """
        key = (warp.block.block_id, warp.warp_in_block)
        entry = self._pending.pop(key, None)
        if entry is None:
            return  # nothing to check (no register/predicate destination)
        pc, kind, expected = entry
        if pc != inst.pc:
            raise self._diverge(
                sm, warp, inst,
                f"commit for pc {inst.pc} but the oracle expected the "
                f"commit of pc {pc} first",
                kind="protocol", expected=pc, actual=inst.pc)
        if kind == "register":
            actual = warp.read_reg(inst.dst.value)
        else:
            actual = warp.read_pred(inst.dst.value)
        if not np.array_equal(expected, actual):
            lane = _first_mismatch(expected, actual)
            raise self._diverge(
                sm, warp, inst,
                f"committed {kind} r{inst.dst.value} diverges from the "
                f"golden model at lane {lane} "
                f"(expected {expected[lane]}, got {actual[lane]})",
                kind=kind, lane=lane, expected=expected.copy(),
                actual=actual.copy(), repair=expected)
        self.stats.commits += 1

    # ------------------------------------------------------------- finalize

    def finalize(self, launch: KernelLaunch, sms) -> None:
        """End-of-run checks: exit states, protocol drain, memory image."""
        for (block_id, warp_in_block), shadow in self._shadows.items():
            if not shadow.exited:
                raise DivergenceError(
                    f"the pipeline completed but the golden warp "
                    f"(block {block_id}, warp {warp_in_block}) has not "
                    f"exited (stuck at pc {shadow.pc})",
                    kind="exit", benchmark=self.benchmark,
                    block_id=block_id, warp_in_block=warp_in_block,
                    pc=shadow.pc)
        if self._pending:
            (block_id, warp_in_block), (pc, kind, _) = next(
                iter(self._pending.items()))
            raise DivergenceError(
                f"run completed with an unchecked {kind} commit "
                f"(block {block_id}, warp {warp_in_block}, pc {pc})",
                kind="protocol", benchmark=self.benchmark,
                block_id=block_id, warp_in_block=warp_in_block, pc=pc)

        for name, timing_store, golden_store in (
            ("global", launch.image.global_mem, self._image.global_mem),
            ("local", launch.image.local_mem, self._image.local_mem),
        ):
            words = max(timing_store.size_words, golden_store.size_words)
            timing = timing_store.read_block(0, words)
            golden = golden_store.read_block(0, words)
            self.stats.memory_words += words
            if not np.array_equal(timing, golden):
                word = _first_mismatch(golden, timing)
                raise DivergenceError(
                    f"final {name} memory diverges at byte address "
                    f"{word * 4:#x} (expected {golden[word]}, got "
                    f"{timing[word]})",
                    kind="memory", benchmark=self.benchmark,
                    expected=int(golden[word]), actual=int(timing[word]))


class CheckedGPU(GPU):
    """A :class:`GPU` that referees every launch against the golden model.

    Also turns on periodic WIR invariant checking (every 64 cycles unless
    the config already sets an interval) — checked mode is exactly where
    that assertion should be armed.
    """

    #: Interval used when the config does not set one (perf runs keep 0).
    DEFAULT_INVARIANT_INTERVAL = 64

    def __init__(self, config, profiler_factory=None, fault_plan=None,
                 benchmark: Optional[str] = None) -> None:
        if config.wir.enabled and not config.wir.invariant_check_interval:
            config.wir.invariant_check_interval = (
                self.DEFAULT_INVARIANT_INTERVAL)
        super().__init__(config, profiler_factory=profiler_factory,
                         fault_plan=fault_plan)
        self._benchmark = benchmark

    def run(self, launch: KernelLaunch, resume=None) -> RunResult:
        # Forward ``resume`` so the harness can call every GPU uniformly;
        # GPU._check_resumable still refuses an actual resume while the
        # lockstep checker is attached.
        self._checker = LockstepChecker(benchmark=self._benchmark)
        try:
            return super().run(launch, resume=resume)
        finally:
            self._checker = None


def check_benchmark(
    abbr: str,
    model: str = "RLPV",
    scale: int = 1,
    seed: int = 7,
    num_sms: int = 2,
    fault_plan=None,
    **wir_overrides,
) -> Dict[str, object]:
    """Run one benchmark under the lockstep oracle and verify its output.

    Always simulates (no result cache — a cached result would check
    nothing) on the scalar engine, the oracle configuration; the fast
    engine's own lockstep runs live in ``tests/test_exec_differential.py``.
    Returns a summary dict; raises :class:`DivergenceError` /
    :class:`InvariantViolation` on failure.
    """
    from repro.core.models import model_config
    from repro.workloads import build_workload

    config = model_config(model, **wir_overrides)
    config.num_sms = num_sms
    config.exec_engine = "scalar"
    workload = build_workload(abbr, scale=scale, seed=seed)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    gpu = CheckedGPU(config, fault_plan=fault_plan, benchmark=abbr)
    result = gpu.run(launch)
    workload.verify()
    return {
        "benchmark": abbr,
        "model": model,
        "cycles": result.cycles,
        "instructions": result.stat("oracle.instructions"),
        "commits": result.stat("oracle.commits"),
        "quarantines": (result.sm_stat("wir.quarantines")
                        if "wir" in result.sm_groups[0].children else 0),
        "result": result,
    }
