"""Affine execution model (the "Affine" comparison GPU of Section VII-A).

A 1024-bit warp register value whose adjacent thread lanes share a common
stride is representable as a 64-bit (base, stride) tuple.  The Affine GPU:

* stores an affine tuple in 1 of the 8 register banks, so an affine register
  access costs 1/8 of the bank energy;
* executes an instruction on 1 functional-unit lane instead of 32 when all
  inputs are affine tuples and the operation is affine-preserving
  (mov, add, sub, mul — scaling/translation of affine sequences).

The tracker keys affine-ness by register ID, which works for both the
physical file (WIR models) and per-warp logical registers (Base+Affine,
where the key is ``(warp_slot << 8) | logical``).
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.isa.opcodes import Opcode

#: Operations the affine functional unit can evaluate on (base, stride)
#: tuples directly — the paper's list: "mov, add, sub, mul".  Floating-point
#: and fused ops always execute full-width (affine tuples are integer
#: two's-complement encodings; FP lane values with a constant bit-pattern
#: stride are not closed under FP arithmetic).
AFFINE_PRESERVING_OPS = frozenset({
    Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SHL,
})

def is_affine_value(values: np.ndarray) -> bool:
    """Whether all adjacent lanes share one stride (includes uniform values).

    The check uses the integer bit patterns: a (base, stride) hardware tuple
    regenerates lanes as ``base + lane * stride`` in 32-bit arithmetic, so
    the uint32 lanes compare their wrapping differences byte for byte.
    """
    lanes = values.astype(np.uint32, copy=False)
    diffs = lanes[1:] - lanes[:-1]
    return diffs.tobytes() == diffs[:1].tobytes() * diffs.size


class AffineTracker:
    """Tracks which registers currently hold affine-encodable values."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._affine: Dict[int, bool] = {}
        self.affine_writes = 0
        self.full_writes = 0

    def record_write(self, key: int, values: np.ndarray, opcode=None) -> bool:
        """Classify a written value; returns its affine-ness.

        A register is stored in tuple form only when the affine unit itself
        produced the value: the producing op must be affine-capable (results
        leaving the full-width pipeline are not re-compressed).  Passing
        ``opcode=None`` skips that restriction (tests / detectors).
        """
        if not self.enabled:
            return False
        affine = ((opcode is None or opcode in AFFINE_PRESERVING_OPS)
                  and is_affine_value(values))
        self._affine[key] = affine
        if affine:
            self.affine_writes += 1
        else:
            self.full_writes += 1
        return affine

    def record_partial_write(self, key: int) -> None:
        """A masked (divergent) write: conservatively non-affine."""
        if self.enabled:
            self._affine[key] = False
            self.full_writes += 1

    def state_dict(self) -> Dict:
        return {
            "affine": {str(key): flag for key, flag in self._affine.items()},
            "affine_writes": self.affine_writes,
            "full_writes": self.full_writes,
        }

    def load_state(self, state: Dict) -> None:
        self._affine = {int(key): flag
                        for key, flag in state["affine"].items()}
        self.affine_writes = state["affine_writes"]
        self.full_writes = state["full_writes"]

    def is_affine(self, key: int) -> bool:
        """Affine-ness of a register (unwritten registers hold zero: affine)."""
        if not self.enabled:
            return False
        return self._affine.get(key, True)

    def all_affine(self, keys: Iterable[int]) -> bool:
        return self.enabled and all(self.is_affine(key) for key in keys)
