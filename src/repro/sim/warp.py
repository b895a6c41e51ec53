"""Per-warp architectural state and the SIMT reconvergence stack.

Each warp holds its logical register values (the functional state), its
predicate registers, the post-dominator reconvergence stack, barrier status,
and the per-warp store flags the load-reuse mechanism consults
(Section VI-A of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.ckpt.codec import decode_array, encode_array
from repro.isa.instruction import NUM_LOGICAL_REGS, NUM_PRED_REGS
from repro.isa.program import EXIT_PC, Program
from repro.sim.grid import WARP_SIZE, BlockDescriptor


@dataclass
class StackEntry:
    """One SIMT stack level: an active mask executing toward a reconvergence pc."""

    mask: np.ndarray   # bool (32,)
    pc: int
    reconv_pc: int


class Warp:
    """One warp's architectural and control state."""

    def __init__(
        self,
        warp_slot: int,
        block: BlockDescriptor,
        warp_in_block: int,
        program: Program,
    ) -> None:
        self.warp_slot = warp_slot            # hardware warp slot in the SM
        self.block = block
        self.warp_in_block = warp_in_block
        self.program = program

        thread_ids = block.warp_thread_indices(warp_in_block)
        valid = thread_ids < block.num_threads
        tid_x, tid_y, tid_z = block.ntid.unflatten(np.minimum(
            thread_ids, block.num_threads - 1
        ))
        self.tid = (
            tid_x.astype(np.uint32),
            tid_y.astype(np.uint32),
            tid_z.astype(np.uint32),
        )
        self.lane_ids = np.arange(WARP_SIZE, dtype=np.uint32)

        # Functional state.
        self.registers = np.zeros((NUM_LOGICAL_REGS, WARP_SIZE), dtype=np.uint32)
        self.predicates = np.zeros((NUM_PRED_REGS, WARP_SIZE), dtype=bool)

        # SIMT control state.
        self.stack: List[StackEntry] = [
            StackEntry(mask=valid.copy(), pc=0, reconv_pc=EXIT_PC)
        ]
        self.exited = not valid.any()

        # Synchronisation state.
        self.at_barrier = False
        #: Number of barriers this warp's block has passed (load-reuse scope).
        self.barrier_count = 0
        #: Store flags (Section VI-A): set on shared/global store, cleared at
        #: the next barrier; while set, loads in this warp must not reuse.
        self.shared_store_flag = False
        self.global_store_flag = False

        # Scheduling bookkeeping.
        self.inflight = 0              # issued but not retired instructions
        self.last_issue_cycle = -1

    # --- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot (identity + functional + control state).

        ``tid``/``lane_ids`` are derived from ``(block, warp_in_block)`` at
        construction and never mutate, so only the identity is stored.
        """
        return {
            "slot": self.warp_slot,
            "block_id": self.block.block_id,
            "warp_in_block": self.warp_in_block,
            "registers": encode_array(self.registers),
            "predicates": encode_array(self.predicates),
            "stack": [
                {"mask": encode_array(e.mask), "pc": e.pc,
                 "reconv_pc": e.reconv_pc}
                for e in self.stack
            ],
            "exited": self.exited,
            "at_barrier": self.at_barrier,
            "barrier_count": self.barrier_count,
            "shared_store_flag": self.shared_store_flag,
            "global_store_flag": self.global_store_flag,
            "inflight": self.inflight,
            "last_issue_cycle": self.last_issue_cycle,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot onto a freshly constructed warp (same
        ``(slot, block, warp_in_block, program)`` identity)."""
        self.registers[:] = decode_array(state["registers"])
        self.predicates[:] = decode_array(state["predicates"])
        self.stack = [
            StackEntry(mask=decode_array(e["mask"]), pc=e["pc"],
                       reconv_pc=e["reconv_pc"])
            for e in state["stack"]
        ]
        self.exited = state["exited"]
        self.at_barrier = state["at_barrier"]
        self.barrier_count = state["barrier_count"]
        self.shared_store_flag = state["shared_store_flag"]
        self.global_store_flag = state["global_store_flag"]
        self.inflight = state["inflight"]
        self.last_issue_cycle = state["last_issue_cycle"]

    # --- control flow -----------------------------------------------------

    @property
    def pc(self) -> int:
        return self.stack[-1].pc

    @property
    def active_mask(self) -> np.ndarray:
        return self.stack[-1].mask

    @property
    def divergent(self) -> bool:
        """Whether any originally-valid lane is inactive at the top of stack."""
        return len(self.stack) > 1 or not self.stack[-1].mask.all()

    def next_instruction(self):
        if self.exited:
            return None
        return self.program[self.pc]

    def advance(self) -> None:
        """Move the top-of-stack past the instruction just executed."""
        top = self.stack[-1]
        top.pc += 1
        self._reconverge()

    def _reconverge(self) -> None:
        while len(self.stack) > 1 and self.stack[-1].pc == self.stack[-1].reconv_pc:
            self.stack.pop()
        if self.stack[-1].pc >= len(self.program):
            self.exited = True

    def resolve_branch(self, branch_pc: int, taken_mask: np.ndarray, target: int) -> bool:
        """Resolve the (possibly divergent) branch at *branch_pc*.

        ``taken_mask`` must already be limited to the current active mask.
        Returns ``True`` if the branch diverged, in which case the taken and
        fall-through fragments are pushed on the SIMT stack with the
        post-dominator pc as their reconvergence point.
        """
        top = self.stack[-1]
        not_taken = top.mask & ~taken_mask
        if not taken_mask.any():
            top.pc = branch_pc + 1
            self._reconverge()
            return False
        if not not_taken.any():
            top.pc = target
            self._reconverge()
            return False
        reconv_pc = self.program.reconvergence_pc(branch_pc)
        if reconv_pc == EXIT_PC:
            reconv_pc = len(self.program)
        # Current entry becomes the reconvergence continuation; the two
        # fragments are pushed (taken path executes first).
        top.pc = reconv_pc
        self.stack.append(
            StackEntry(mask=not_taken.copy(), pc=branch_pc + 1, reconv_pc=reconv_pc)
        )
        self.stack.append(
            StackEntry(mask=taken_mask.copy(), pc=target, reconv_pc=reconv_pc)
        )
        self._reconverge()
        return True

    def execute_exit(self, exit_mask: np.ndarray) -> None:
        """Retire lanes in *exit_mask* permanently from every stack level."""
        for entry in self.stack:
            entry.mask &= ~exit_mask
        # Drop empty levels from the top; if any were dropped the new top
        # resumes at its own pc and must not be advanced.
        popped = False
        while len(self.stack) > 1 and not self.stack[-1].mask.any():
            self.stack.pop()
            popped = True
        if not self.stack[-1].mask.any():
            self.exited = True
        elif not popped:
            self.advance()

    # --- register access ---------------------------------------------------

    def read_reg(self, index: int) -> np.ndarray:
        return self.registers[index]

    def write_reg(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        np.copyto(self.registers[index], values.astype(np.uint32, copy=False),
                  where=mask)

    def read_pred(self, index: int) -> np.ndarray:
        return self.predicates[index]

    def write_pred(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        np.copyto(self.predicates[index], values, where=mask)

    def guard_mask(self, guard) -> np.ndarray:
        """Active mask after applying an optional predicate guard."""
        mask = self.active_mask.copy()
        if guard is not None:
            pred = self.predicates[guard.index]
            mask &= ~pred if guard.negated else pred
        return mask

    def special_value(self, name: str) -> np.ndarray:
        """Resolve a special register to its per-lane values."""
        block = self.block
        if name == "%tid.x":
            return self.tid[0]
        if name == "%tid.y":
            return self.tid[1]
        if name == "%tid.z":
            return self.tid[2]
        if name == "%ntid.x":
            return np.full(WARP_SIZE, block.ntid.x, dtype=np.uint32)
        if name == "%ntid.y":
            return np.full(WARP_SIZE, block.ntid.y, dtype=np.uint32)
        if name == "%ntid.z":
            return np.full(WARP_SIZE, block.ntid.z, dtype=np.uint32)
        if name == "%ctaid.x":
            return np.full(WARP_SIZE, block.ctaid[0], dtype=np.uint32)
        if name == "%ctaid.y":
            return np.full(WARP_SIZE, block.ctaid[1], dtype=np.uint32)
        if name == "%ctaid.z":
            return np.full(WARP_SIZE, block.ctaid[2], dtype=np.uint32)
        if name == "%nctaid.x":
            return np.full(WARP_SIZE, block.nctaid.x, dtype=np.uint32)
        if name == "%nctaid.y":
            return np.full(WARP_SIZE, block.nctaid.y, dtype=np.uint32)
        if name == "%nctaid.z":
            return np.full(WARP_SIZE, block.nctaid.z, dtype=np.uint32)
        if name == "%laneid":
            return self.lane_ids
        if name == "%warpid":
            return np.full(WARP_SIZE, self.warp_in_block, dtype=np.uint32)
        if name == "%smid":
            return np.zeros(WARP_SIZE, dtype=np.uint32)
        raise ValueError(f"unknown special register {name}")
