"""Physical warp register file with dynamic allocation (Section V-E).

Physical register 0 is reserved as the *zero register*: every logical
register reads as zero before its first write, so mapping uninitialised
logicals to one shared all-zero physical register is both correct and — in
the spirit of warp register reuse — lets every uninitialised register share
one physical register.  The zero register is never freed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.ckpt.codec import decode_array, encode_array
from repro.sim.grid import WARP_SIZE

#: The reserved all-zero physical register.
ZERO_REG = 0


class OutOfRegistersError(RuntimeError):
    """Raised when allocation fails even after low-register-mode eviction."""


class PhysicalRegisterFile:
    """Values + free pool for the SM's physical warp registers."""

    def __init__(self, num_registers: int) -> None:
        if num_registers < 2:
            raise ValueError("need at least the zero register plus one")
        self.num_registers = num_registers
        self._values = np.zeros((num_registers, WARP_SIZE), dtype=np.uint32)
        self._free: Deque[int] = deque(range(1, num_registers))
        self._in_use = 1  # the zero register
        self.peak_in_use = 1
        self.allocations = 0
        self.releases = 0
        #: Cumulative (cycles-weighted) utilisation for the Fig 19 average.
        self._util_accum = 0
        self._util_samples = 0

    # --- allocation ---------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def free_count(self) -> int:
        return len(self._free)

    def allocate(self) -> Optional[int]:
        """Take a register from the free pool; ``None`` if the pool is empty."""
        if not self._free:
            return None
        reg = self._free.popleft()
        self._in_use += 1
        self.allocations += 1
        if self._in_use > self.peak_in_use:
            self.peak_in_use = self._in_use
        return reg

    def release(self, reg: int) -> None:
        """Return *reg* to the free pool (called by the reference counter)."""
        if reg == ZERO_REG:
            raise ValueError("the zero register is never released")
        self._free.append(reg)
        self._in_use -= 1
        self.releases += 1

    # --- values -------------------------------------------------------------

    def read(self, reg: int) -> np.ndarray:
        return self._values[reg]

    def write(self, reg: int, values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        if reg == ZERO_REG:
            raise ValueError("the zero register is read-only")
        values = values.astype(np.uint32, copy=False)
        if mask is None:
            self._values[reg] = values
        else:
            np.copyto(self._values[reg], values, where=mask)

    def copy_lanes(self, src: int, dst: int, mask: np.ndarray) -> None:
        """Dummy-MOV semantics: copy *src* lanes selected by *mask* into *dst*."""
        np.copyto(self._values[dst], self._values[src], where=mask)

    # --- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict:
        """Values, the free pool *in order* (allocate pops left, release
        appends — the order decides future allocations), and counters."""
        return {
            "values": encode_array(self._values),
            "free": list(self._free),
            "in_use": self._in_use,
            "peak_in_use": self.peak_in_use,
            "allocations": self.allocations,
            "releases": self.releases,
            "util_accum": self._util_accum,
            "util_samples": self._util_samples,
        }

    def load_state(self, state: Dict) -> None:
        self._values[:] = decode_array(state["values"])
        self._free = deque(state["free"])
        self._in_use = state["in_use"]
        self.peak_in_use = state["peak_in_use"]
        self.allocations = state["allocations"]
        self.releases = state["releases"]
        self._util_accum = state["util_accum"]
        self._util_samples = state["util_samples"]

    # --- utilisation sampling (Figure 19) ------------------------------------

    def sample_utilization(self) -> None:
        self._util_accum += self._in_use
        self._util_samples += 1

    @property
    def average_in_use(self) -> float:
        if not self._util_samples:
            return float(self._in_use)
        return self._util_accum / self._util_samples
