"""Per-warp rename tables (Section V-B).

Each of the SM's 48 warp slots has a 63-entry table mapping logical warp
registers to physical warp registers.  An entry holds a 10-bit physical ID,
a valid bit, and a pin bit (the divergence mechanism of Section V-D).  All
entries are invalidated at warp initialisation; mappings are written when
instructions retire.  An invalid entry reads as the shared zero register.

The tables are plain nested lists (``[slot][logical]``): every access is a
scalar one on the per-instruction path, where indexing a numpy array costs
a scalar box per read.  Checkpoints still carry them as int32/bool arrays.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ckpt.codec import decode_array, encode_array
from repro.core.physreg import ZERO_REG
from repro.core.refcount import ReferenceCounter
from repro.isa.instruction import NUM_LOGICAL_REGS


class RenameTables:
    """All rename tables of one SM."""

    def __init__(self, num_warp_slots: int, refcount: ReferenceCounter) -> None:
        self._refcount = refcount
        self.num_warp_slots = num_warp_slots
        self._mapping = [[-1] * NUM_LOGICAL_REGS for _ in range(num_warp_slots)]
        self._pin = [[False] * NUM_LOGICAL_REGS for _ in range(num_warp_slots)]

    def reset_slot(self, slot: int) -> None:
        """Invalidate a slot's table at warp initialisation, dropping refs."""
        for phys in self._mapping[slot]:
            if phys >= 0:
                self._refcount.decref(phys)
        self._mapping[slot] = [-1] * NUM_LOGICAL_REGS
        self._pin[slot] = [False] * NUM_LOGICAL_REGS

    def lookup(self, slot: int, logical: int) -> int:
        """Physical register currently holding *logical*'s value.

        Invalid entries resolve to the zero register (uninitialised logical
        registers architecturally read zero).
        """
        phys = self._mapping[slot][logical]
        return phys if phys >= 0 else ZERO_REG

    def is_mapped(self, slot: int, logical: int) -> bool:
        return self._mapping[slot][logical] >= 0

    def remap(self, slot: int, logical: int, phys: int) -> None:
        """Point *logical* at *phys*, transferring reference counts."""
        self._refcount.incref(phys)
        row = self._mapping[slot]
        old = row[logical]
        row[logical] = phys
        if old >= 0:
            self._refcount.decref(old)

    # --- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "mapping": encode_array(np.array(self._mapping, dtype=np.int32)),
            "pin": encode_array(np.array(self._pin, dtype=bool)),
        }

    def load_state(self, state: dict) -> None:
        # Tables are restored directly (no remap/decref churn): the matching
        # reference counts are restored wholesale by the ReferenceCounter.
        # Older slots also carry ``reads``/``writes`` tallies; they
        # duplicated ``wir.rename_reads``/``rename_writes`` and are ignored.
        self._mapping = decode_array(state["mapping"]).tolist()
        self._pin = decode_array(state["pin"]).tolist()

    # --- pin bits (Section V-D) ----------------------------------------------

    def pin_bit(self, slot: int, logical: int) -> bool:
        return self._pin[slot][logical]

    def set_pin(self, slot: int, logical: int) -> None:
        self._pin[slot][logical] = True

    def clear_pin(self, slot: int, logical: int) -> None:
        self._pin[slot][logical] = False

    def mapped_registers(self, slot: int) -> List[int]:
        """Valid physical IDs mapped in one slot (diagnostics/tests)."""
        return [p for p in self._mapping[slot] if p >= 0]
