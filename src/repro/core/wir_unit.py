"""Per-SM WIR unit: the rename/reuse/allocation *structures* of Sections
V and VI — rename tables, reuse buffer, VSB, verify cache, hasher,
physical register file, and the reference counter that ties them together.

The pipeline *sequencing* over these structures lives in
:mod:`repro.pipeline.stages` (DESIGN.md §13): the rename stage drives
:meth:`plan_of` / :meth:`rename_with_plan`, the reuse-probe stage drives
the buffer lookup/reservation helpers (:meth:`load_may_reuse`,
:meth:`entry_tbid`, :meth:`track_tag_sources`), and the allocate/verify
and writeback/retire stages drive :meth:`allocate_register`,
:meth:`invalidate_stale_tags`, and the rename-table remap.  This class
owns structure lifetime, the capped-register policy, checkpointing, and
the cross-structure invariants.

All reference counting flows through :class:`ReferenceCounter`, so the
conservation invariant (live counted registers == allocated registers) holds
at every cycle boundary; tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.check.errors import InvariantViolation
from repro.core.affine import AffineTracker
from repro.core.hashing import H3Hash
from repro.core.physreg import OutOfRegistersError, PhysicalRegisterFile
from repro.core.refcount import ReferenceCounter
from repro.core.rename import RenameTables
from repro.core.reuse_buffer import NULL_TBID, ReuseBuffer, Tag, Waiter
from repro.core.verify_cache import VerifyCache
from repro.core.vsb import ValueSignatureBuffer
from repro.isa.instruction import Instruction, OperandKind
from repro.isa.opcodes import MemSpace, Opcode, is_load, is_reuse_candidate
from repro.sim.config import GPUConfig, RegisterPolicy
from repro.sim.regfile import RegisterFileTiming
from repro.sim.warp import Warp
from repro.stats import StatGroup

#: Opcode -> stable integer for reuse-buffer tags.
_OPCODE_INDEX = {op: i for i, op in enumerate(Opcode)}


class _SourcePlan:
    """Static per-instruction rename/tag plan (see ``WIRUnit.plan_of``).

    ``steps`` drives source renaming: ``(True, logical, extra_desc)`` for a
    register/address operand (``extra_desc`` is the interned address-offset
    descriptor, or ``None``), ``(False, desc, None)`` for an interned
    immediate / special-register descriptor.
    """

    __slots__ = ("inst", "steps", "num_reg_reads", "opcode_index",
                 "reuse_candidate", "load", "warp_dependent")

    def __init__(self, inst: Instruction) -> None:
        self.inst = inst
        steps: List[Tuple[bool, object, Optional[Tuple[str, int]]]] = []
        num_reg_reads = 0
        for src in inst.srcs:
            if src.kind in (OperandKind.REG, OperandKind.ADDR):
                num_reg_reads += 1
                extra = None
                if src.kind is OperandKind.ADDR and src.offset:
                    extra = ("i", src.offset & 0xFFFFFFFF)
                steps.append((True, src.value, extra))
            elif src.kind is OperandKind.IMM:
                steps.append((False, ("i", src.value), None))
            elif src.kind is OperandKind.SREG:
                # Special registers are warp-constant; encode the value class
                # into the tag so identical tid patterns match across warps.
                steps.append((False, ("i", 0xFFFF0000 | src.value), None))
        self.steps = tuple(steps)
        self.num_reg_reads = num_reg_reads
        self.opcode_index = _OPCODE_INDEX[inst.opcode]
        self.reuse_candidate = is_reuse_candidate(inst.opcode)
        self.load = is_load(inst.opcode)
        self.warp_dependent = any(
            src.kind is OperandKind.SREG for src in inst.srcs)


class WIRCounters(StatGroup):
    """Event counts for the added structures (Table III energy accounting).

    ``verify_reads`` are performed against real register banks while
    ``verify_cache_filtered`` were absorbed by the verify cache;
    ``writes_avoided`` are register writes removed by VSB sharing.  The
    per-structure groups (``rb``, ``vsb``, ``vc``, ``phys``) are adopted as
    children, so one ``wir`` subtree per SM carries every reuse statistic.
    """

    COUNTERS = ("rename_reads", "rename_writes", "hash_generations",
                "allocator_ops", "dummy_movs", "verify_reads",
                "verify_cache_filtered", "writes_avoided",
                "low_register_mode_entries", "quarantines")


@dataclass(slots=True)
class IssueDecision:
    """Outcome of the rename + reuse stages for one instruction."""

    #: "execute" | "reuse" | "queued" | "bypass"
    action: str
    #: Physical IDs of the renamed source registers (for bank scheduling).
    src_phys: Tuple[int, ...] = ()
    #: Reuse-buffer tag, when the instruction participates in reuse.
    tag: Optional[Tag] = None
    #: Result physical register for an immediate reuse hit.
    result_reg: int = -1
    #: Reserved reuse-buffer index for the retire-time update.
    rb_index: Optional[int] = None
    #: Reservation token presented at the retire-time fill.
    rb_token: int = -1
    #: Whether this instruction reserved a (pending) reuse-buffer entry.
    reserved: bool = False
    #: Divergence state captured at rename (pin bit of the destination).
    divergent: bool = False


class WIRUnit:
    """Rename / reuse / register-allocation machinery for one SM."""

    def __init__(
        self,
        config: GPUConfig,
        regfile: RegisterFileTiming,
        affine: AffineTracker,
    ) -> None:
        self.config = config
        self.wir = config.wir
        self.regfile = regfile
        self.affine = affine

        self.physfile = PhysicalRegisterFile(config.num_physical_registers)
        self.refcount = ReferenceCounter(self.physfile)
        self.rename = RenameTables(config.max_warps_per_sm, self.refcount)
        self.vsb = ValueSignatureBuffer(
            self.wir.vsb_entries if self.wir.use_vsb else 0,
            self.refcount,
            associativity=self.wir.vsb_associativity,
        )
        self.reuse_buffer = ReuseBuffer(
            self.wir.reuse_buffer_entries,
            self.refcount,
            retry_queue_entries=self.wir.retry_queue_entries,
            associativity=self.wir.reuse_buffer_associativity,
        )
        self.verify_cache = VerifyCache(self.wir.verify_cache_entries)
        self.hasher = H3Hash(bits=self.wir.hash_bits)
        #: Optional :class:`repro.check.faults.FaultInjector` (fault runs).
        self.faults = None
        #: This unit's subtree of the run's stats registry; the structure
        #: groups are adopted (shared, not copied) so they stay live.
        self.counters = WIRCounters("wir")
        self.counters.adopt(self.reuse_buffer.stats)
        self.counters.adopt(self.vsb.stats)
        self.counters.adopt(self.verify_cache.stats)
        self._c_rename_reads = self.counters.handle("rename_reads")
        self._c_allocator_ops = self.counters.handle("allocator_ops")

        # Capped-register policy state.
        self._register_cap = config.num_physical_registers
        self._evict_pointer = 0
        #: Reverse map: physical register -> reuse-buffer indices whose tag
        #: names it as a source.  Used to invalidate stale tags when a pinned
        #: register is overwritten in place (see DESIGN.md erratum note).
        self._rb_src_refs: Dict[int, Set[int]] = {}
        #: Per-block barrier counts saturate at 2**barrier_count_bits - 1;
        #: beyond that the block stops reusing loads (Section VI-A).
        self._max_barrier_count = (1 << self.wir.barrier_count_bits) - 1
        #: Interned per-instruction rename/tag plans, keyed by ``id(inst)``
        #: (each plan pins its instruction, keeping the key unique).
        self._plans: Dict[int, _SourcePlan] = {}
        #: Callbacks invoked after :meth:`quarantine_flush` — e.g. the
        #: superblock runtime drops its compiled dispatch state, since a
        #: flush changes what a mid-block reuse probe would have answered.
        self.on_flush: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ setup

    def attach_faults(self, injector) -> None:
        """Arm fault injection; its counters join this unit's subtree."""
        self.faults = injector
        self.counters.adopt(injector.stats)

    def set_register_cap(self, logical_regs_per_warp: int, active_warps: int) -> None:
        """Capped-register policy: budget = logical registers in flight."""
        if self.wir.register_policy is RegisterPolicy.CAPPED_REGISTER:
            cap = max(2, logical_regs_per_warp * active_warps + 1)
            self._register_cap = min(cap, self.config.num_physical_registers)
        else:
            self._register_cap = self.config.num_physical_registers

    def reset_slot(self, slot: int) -> None:
        """Invalidate a warp slot's rename table (warp init / teardown)."""
        self.rename.reset_slot(slot)

    def on_block_complete(self, block_id: int) -> None:
        """Flush scratchpad-scoped reuse entries when their block finishes.

        The 4-bit TBID namespace is recycled across blocks; see
        :meth:`ReuseBuffer.evict_tbid`.
        """
        self.reuse_buffer.evict_tbid(block_id & 0xF)

    # --------------------------------------------------------------- renaming

    def plan_of(self, inst: Instruction) -> "_SourcePlan":
        """Interned per-instruction rename/tag plan.

        Operand-kind dispatch, static immediate descriptors, opcode index,
        and reuse-eligibility predicates depend only on the static
        instruction, so they are computed once per instruction per unit and
        reused on every issue.  The plan pins the instruction object, so the
        ``id`` key stays unique for the unit's lifetime.
        """
        plan = self._plans.get(id(inst))
        if plan is None:
            plan = _SourcePlan(inst)
            self._plans[id(inst)] = plan
        return plan

    def rename_with_plan(
        self, warp: Warp, plan: "_SourcePlan"
    ) -> Tuple[Tuple[int, ...], Tuple]:
        """Rename source registers; returns (phys ids, tag source descriptors)."""
        self._c_rename_reads.value += plan.num_reg_reads
        slot = warp.warp_slot
        lookup = self.rename.lookup
        phys: List[int] = []
        descs: List[Tuple[str, int]] = []
        for is_reg, payload, extra in plan.steps:
            if is_reg:
                preg = lookup(slot, payload)
                phys.append(preg)
                descs.append(("r", preg))
                if extra is not None:
                    descs.append(extra)
            else:
                descs.append(payload)
        return tuple(phys), tuple(descs)

    # --------------------------------------------- reuse-eligibility helpers

    def load_may_reuse(self, warp: Warp, inst: Instruction) -> bool:
        """Memory-hazard rules of Section VI-A."""
        if not self.wir.load_reuse:
            return False
        space = inst.space
        if space in (MemSpace.CONST, MemSpace.PARAM):
            return True  # read-only spaces are always safe
        if space is MemSpace.LOCAL:
            return False  # per-thread space; reuse across warps is unsound
        if warp.barrier_count >= self._max_barrier_count:
            return False  # saturated barrier counter (Section VI-A)
        if space is MemSpace.SHARED:
            return not warp.shared_store_flag
        if space is MemSpace.GLOBAL:
            return not warp.global_store_flag
        return False

    def entry_tbid(self, warp: Warp, inst: Instruction) -> int:
        if inst.space is MemSpace.SHARED:
            return warp.block.block_id & 0xF
        return NULL_TBID

    def track_tag_sources(self, tag: Tag, index: int) -> None:
        for kind, operand in tag[1]:
            if kind == "r":
                self._rb_src_refs.setdefault(operand, set()).add(index)

    # ---------------------------------------------------- register management

    def in_low_register_mode(self) -> bool:
        if self.physfile.free_count == 0:
            return True
        return self.physfile.in_use >= self._register_cap

    def allocate_register(self) -> int:
        """Allocate a physical register, evicting buffer entries if needed.

        With fault injection armed, the fresh register may come back full of
        garbage ("stale" contents) — harmless by design, because every
        pipeline path fully writes an allocated register before any reader
        can name it; the oracle proves it.
        """
        reg = self._allocate_register_inner()
        if self.faults is not None:
            self.faults.scramble_allocated(self.physfile, reg)
        return reg

    def _allocate_register_inner(self) -> int:
        self._c_allocator_ops.value += 1
        if self.physfile.in_use < self._register_cap:
            reg = self.physfile.allocate()
            if reg is not None:
                return reg
        # Low register mode: walk the buffers evicting entries until a
        # register frees up (Section V-E deadlock avoidance).
        self.counters.low_register_mode_entries += 1
        total = max(1, self.vsb.num_entries) + max(1, self.reuse_buffer.num_entries)
        for _ in range(2 * total):
            self._evict_pointer += 1
            if self.vsb.num_entries:
                self.vsb.evict_index(self._evict_pointer % self.vsb.num_entries)
            if self.reuse_buffer.num_entries:
                self.reuse_buffer.evict_index(
                    self._evict_pointer % self.reuse_buffer.num_entries)
            if self.physfile.free_count and self.physfile.in_use < self._register_cap:
                reg = self.physfile.allocate()
                if reg is not None:
                    return reg
        if self.physfile.free_count:
            reg = self.physfile.allocate()
            if reg is not None:
                return reg
        raise OutOfRegistersError(
            "physical register pool exhausted: rename tables alone hold more "
            "registers than the file provides"
        )

    def invalidate_stale_tags(self, reg: int) -> None:
        """Drop reuse-buffer entries whose tag names *reg* as a source.

        Needed when a pinned register is overwritten in place: a stale tag
        would otherwise alias the old value (see DESIGN.md).
        """
        indices = self._rb_src_refs.pop(reg, None)
        if not indices:
            return
        for index in indices:
            self.reuse_buffer.evict_if_source(index, reg)

    # ---------------------------------------------------------- checkpointing

    def state_dict(self, encode_waiter: Callable[[Waiter], dict]) -> dict:
        """Composite snapshot of every reuse structure.

        Not serialized: the interned ``_plans`` and the hasher memo (pure
        caches, lazily repopulated), ``_max_barrier_count`` (config-derived),
        and ``_register_cap`` (recomputed from the restored warp population
        by ``SMCore._refresh_register_cap``).
        """
        return {
            "physfile": self.physfile.state_dict(),
            "refcount": self.refcount.state_dict(),
            "rename": self.rename.state_dict(),
            "vsb": self.vsb.state_dict(),
            "reuse_buffer": self.reuse_buffer.state_dict(encode_waiter),
            "verify_cache": self.verify_cache.state_dict(),
            "evict_pointer": self._evict_pointer,
            "rb_src_refs": {
                str(reg): sorted(indices)
                for reg, indices in self._rb_src_refs.items() if indices
            },
        }

    def load_state(
        self, state: dict, decode_waiter: Callable[[dict], Waiter]
    ) -> None:
        self.physfile.load_state(state["physfile"])
        self.refcount.load_state(state["refcount"])
        self.rename.load_state(state["rename"])
        self.vsb.load_state(state["vsb"])
        self.reuse_buffer.load_state(state["reuse_buffer"], decode_waiter)
        self.verify_cache.load_state(state["verify_cache"])
        self._evict_pointer = state["evict_pointer"]
        # Sets of ints iterate in value-hash order, which depends only on
        # the contents — restoring from sorted lists reproduces the original
        # eviction walk order in ``invalidate_stale_tags``.
        self._rb_src_refs = {
            int(reg): set(indices)
            for reg, indices in state["rb_src_refs"].items()
        }

    # ------------------------------------------------------------ diagnostics

    def finalize_stats(self) -> WIRCounters:
        """Snapshot end-of-run physical-register metrics into the registry.

        The register file's peak/average utilisation (Figure 19) and the
        reference-counter operation total only have final values when the
        run ends, so they are materialised here rather than counted live.
        """
        phys = self.counters.group("phys")
        phys.add_counter("peak").set(self.physfile.peak_in_use)
        phys.add_counter("avg").set(self.physfile.average_in_use)
        phys.add_counter("allocations").set(self.physfile.allocations)
        phys.add_counter("refcount_ops").set(self.refcount.operations)
        return self.counters

    def check_invariants(self) -> None:
        """Cross-structure self-check; raises :class:`InvariantViolation`.

        Validates reference-count conservation plus the reuse buffer's and
        the VSB's own invariants.  Safe to call at any cycle boundary (the
        transient states inside one pipeline-stage call all resolve before
        the stage returns); the SM core calls it periodically when
        ``config.wir.invariant_check_interval`` is set.
        """
        try:
            self.refcount.check_conservation()
        except AssertionError as err:
            raise InvariantViolation(str(err), path="wir.phys") from None
        self.reuse_buffer.check_invariants(self.refcount)
        self.vsb.check_invariants(self.refcount)

    def quarantine_flush(self) -> None:
        """Drop every reuse-buffer entry on quarantine.

        Waiters queued on pending entries are notified with ``None`` so
        they re-enter the (now reuse-less) issue path and execute.  VSB and
        rename state is left in place — a quarantined unit stops *offering*
        reuse, and the registers its tables still name are never read
        again, so tearing them down buys nothing.
        """
        for index in range(self.reuse_buffer.num_entries):
            self.reuse_buffer.evict_index(index)
        for hook in self.on_flush:
            hook()
