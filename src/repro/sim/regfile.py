"""Banked register file timing model.

The 128 KB register file is organised as 8 bank groups of 8 x 128-bit banks
(Section II): one 1024-bit warp register access is served by one bank group
in lockstep, and each group sustains one read and one write per cycle.
Requests to a busy group retry on following cycles; the retry count per
request is the Figure 18b metric.

Energy accounting counts *bank* accesses: a full-width warp register access
activates all 8 banks of its group; an affine-encoded access (the Affine
model of Section VII-A) activates a single bank.
"""

from __future__ import annotations

from repro.sim.config import GPUConfig
from repro.stats import StatGroup


class RegisterFileStats(StatGroup):
    """Register-file port/bank event counts (Figure 18 metrics)."""

    COUNTERS = ("read_requests", "write_requests", "read_retries",
                "write_retries", "bank_reads", "bank_writes",
                "verify_read_requests")


class RegisterFileTiming:
    """Per-SM register file port arbiter."""

    #: Banks ganged per group (1024-bit register / 128-bit banks).
    BANKS_PER_GROUP = 8

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.num_groups = config.register_bank_groups
        self._read_free = [0] * self.num_groups
        self._write_free = [0] * self.num_groups
        self.stats = RegisterFileStats("regfile")
        #: Observability hook (an ``SMTraceView`` or ``None``).
        self.tracer = None
        #: Fast-engine path: ``schedule_read``/``schedule_write`` run
        #: several times per backend instruction, so they mutate the Counter
        #: objects directly instead of going through the StatGroup attribute
        #: magic.  Same objects, so the reported stats are identical.
        self._fast_stats = config.exec_engine == "fast"
        counters = self.stats._stats
        self._c_read_requests = counters["read_requests"]
        self._c_read_retries = counters["read_retries"]
        self._c_write_requests = counters["write_requests"]
        self._c_write_retries = counters["write_retries"]
        self._c_bank_reads = counters["bank_reads"]
        self._c_bank_writes = counters["bank_writes"]
        self._c_verify_reads = counters["verify_read_requests"]

    def schedule_read(
        self, reg_id: int, cycle: int, affine: bool = False, verify: bool = False
    ) -> int:
        """Arbitrate one register read; returns the cycle the data is ready."""
        group = reg_id % self.num_groups
        start = max(cycle, self._read_free[group])
        if self._fast_stats:
            self._c_read_requests.value += 1
            self._c_read_retries.value += start - cycle
            if verify:
                self._c_verify_reads.value += 1
            self._c_bank_reads.value += 1 if affine else self.BANKS_PER_GROUP
        else:
            self.stats.read_requests += 1
            self.stats.read_retries += start - cycle
            if verify:
                self.stats.verify_read_requests += 1
            self.stats.bank_reads += 1 if affine else self.BANKS_PER_GROUP
        if self.tracer is not None and start > cycle:
            self.tracer.bank_conflict(reg_id, start - cycle, "read", verify)
        self._read_free[group] = start + 1
        return start + 1

    def schedule_write(self, reg_id: int, cycle: int, affine: bool = False) -> int:
        """Arbitrate one register write; returns the completion cycle."""
        group = reg_id % self.num_groups
        start = max(cycle, self._write_free[group])
        if self._fast_stats:
            self._c_write_requests.value += 1
            self._c_write_retries.value += start - cycle
            self._c_bank_writes.value += 1 if affine else self.BANKS_PER_GROUP
        else:
            self.stats.write_requests += 1
            self.stats.write_retries += start - cycle
            self.stats.bank_writes += 1 if affine else self.BANKS_PER_GROUP
        if self.tracer is not None and start > cycle:
            self.tracer.bank_conflict(reg_id, start - cycle, "write")
        self._write_free[group] = start + 1
        return start + 1

    def state_dict(self) -> dict:
        """Port-arbiter state (stats restore through the SM's stats tree,
        keeping the ``_c_*`` Counter references valid)."""
        return {
            "read_free": list(self._read_free),
            "write_free": list(self._write_free),
        }

    def load_state(self, state: dict) -> None:
        # In place: the superblock runtime binds these lists directly.
        self._read_free[:] = state["read_free"]
        self._write_free[:] = state["write_free"]

    @property
    def retries_per_request(self) -> float:
        total = self.stats.read_requests + self.stats.write_requests
        if not total:
            return 0.0
        return (self.stats.read_retries + self.stats.write_retries) / total
