"""Value signature buffer (Section V-A).

The VSB maps 32-bit value hashes to the physical register already holding
that value.  The paper's default indexes entries directly with the low hash
bits, having found associative search to add only marginal benefit; both
organisations are implemented here (``associativity=1`` is direct-indexed,
higher values use set-associative LRU search) so that trade-off is
reproducible — see ``benchmarks/test_ablation_associativity.py``.

A hit is only a *candidate* — hash collisions make false positives possible
— so the caller must verify with a verify-read of the actual register value
before remapping.

Entries hold references to their physical registers (release goes through
the reference counter), so a register named by a VSB entry can never be
recycled underneath it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.check.errors import InvariantViolation
from repro.core.refcount import ReferenceCounter
from repro.stats import StatGroup


class VSBStats(StatGroup):
    """VSB event counts.  ``hits`` are index + full-hash matches before
    verification; ``false_positives`` are verified mismatches, recorded by
    the caller."""

    COUNTERS = ("lookups", "hits", "misses", "insertions", "evictions",
                "false_positives")


class _Entry:
    __slots__ = ("valid", "hash_value", "reg")

    def __init__(self) -> None:
        self.valid = False
        self.hash_value = 0
        self.reg = -1


class ValueSignatureBuffer:
    """[hash -> physical register] table, direct-indexed or set-associative."""

    def __init__(
        self, entries: int, refcount: ReferenceCounter, associativity: int = 1
    ) -> None:
        if entries and entries & (entries - 1):
            raise ValueError("VSB entry count must be a power of two (or zero)")
        if associativity < 1 or (entries and entries % associativity):
            raise ValueError("associativity must divide the entry count")
        self.num_entries = entries
        self.associativity = associativity if entries else 1
        self._num_sets = entries // self.associativity if entries else 0
        self._refcount = refcount
        self._entries = [_Entry() for _ in range(entries)]
        #: Per-set slot order, least recently used first.
        self._lru: List[List[int]] = [
            list(range(s * self.associativity, (s + 1) * self.associativity))
            for s in range(self._num_sets)
        ]
        self.stats = VSBStats("vsb")
        handle = self.stats.handle
        self._c_lookups = handle("lookups")
        self._c_hits = handle("hits")
        self._c_misses = handle("misses")
        self._c_insertions = handle("insertions")
        self._c_evictions = handle("evictions")
        #: Observability hook (per-SM ``SMTraceView`` or ``None``).
        self.tracer = None

    def _set_of(self, hash_value: int) -> int:
        return hash_value & (self._num_sets - 1)

    def index_of(self, hash_value: int) -> int:
        """First slot of the set this hash maps to (direct index when
        associativity is 1)."""
        return self._set_of(hash_value) * self.associativity

    def _touch(self, set_index: int, slot: int) -> None:
        # A one-way set's recency order cannot change; skip the list
        # shuffle in the direct-indexed default.
        if self.associativity == 1:
            return
        order = self._lru[set_index]
        order.remove(slot)
        order.append(slot)

    def lookup(self, hash_value: int) -> Optional[int]:
        """Candidate physical register for *hash_value*, or ``None``."""
        self._c_lookups.value += 1
        if not self.num_entries:
            self._c_misses.value += 1
            return None
        set_index = self._set_of(hash_value)
        for slot in self._lru[set_index]:
            entry = self._entries[slot]
            if entry.valid and entry.hash_value == hash_value:
                self._c_hits.value += 1
                self._touch(set_index, slot)
                return entry.reg
        self._c_misses.value += 1
        return None

    def insert(self, hash_value: int, reg: int) -> None:
        """Register [hash, reg]; evicts the set's LRU entry if it is full."""
        if not self.num_entries:
            return
        set_index = self._set_of(hash_value)
        # Reuse an entry already holding this hash, else an invalid way,
        # else the LRU victim.
        victim = None
        for slot in self._lru[set_index]:
            entry = self._entries[slot]
            if entry.valid and entry.hash_value == hash_value:
                victim = slot
                break
        if victim is None:
            for slot in self._lru[set_index]:
                if not self._entries[slot].valid:
                    victim = slot
                    break
        if victim is None:
            victim = self._lru[set_index][0]
        entry = self._entries[victim]
        if entry.valid:
            self._c_evictions.value += 1
            if self.tracer is not None:
                self.tracer.component_event("vsb", "vsb_evict",
                                            {"reg": entry.reg})
            self._refcount.decref(entry.reg)
        self._refcount.incref(reg)
        entry.valid = True
        entry.hash_value = hash_value
        entry.reg = reg
        self._touch(set_index, victim)
        self._c_insertions.value += 1
        if self.tracer is not None:
            self.tracer.component_event("vsb", "vsb_insert", {"reg": reg})

    def evict_index(self, index: int) -> bool:
        """Low-register-mode eviction of one slot; True if one was dropped."""
        if not self.num_entries:
            return False
        entry = self._entries[index % self.num_entries]
        if not entry.valid:
            return False
        self._c_evictions.value += 1
        if self.tracer is not None:
            self.tracer.component_event("vsb", "vsb_evict", {"reg": entry.reg})
        self._refcount.decref(entry.reg)
        entry.valid = False
        entry.reg = -1
        return True

    def state_dict(self) -> dict:
        """Entries and per-set LRU order (stats live in the SM stats tree)."""
        return {
            "entries": [
                [entry.valid, entry.hash_value, entry.reg]
                for entry in self._entries
            ],
            "lru": [list(order) for order in self._lru],
        }

    def load_state(self, state: dict) -> None:
        # Fields are set directly — no incref/decref, the counter array is
        # restored wholesale elsewhere.
        for entry, (valid, hash_value, reg) in zip(self._entries,
                                                   state["entries"]):
            entry.valid = valid
            entry.hash_value = hash_value
            entry.reg = reg
        self._lru = [list(order) for order in state["lru"]]

    def note_false_positive(self) -> None:
        self.stats.false_positives += 1

    @property
    def hit_rate(self) -> float:
        if not self.stats.lookups:
            return 0.0
        return self.stats.hits / self.stats.lookups

    def occupancy(self) -> int:
        return sum(1 for entry in self._entries if entry.valid)

    def check_invariants(self, refcount: ReferenceCounter) -> None:
        """Every valid entry must name a live physical register."""
        for index, entry in enumerate(self._entries):
            if not entry.valid:
                continue
            if entry.reg < 0:
                raise InvariantViolation(
                    f"entry {index} is valid but names no register",
                    path="wir.vsb")
            if refcount.count(entry.reg) <= 0:
                raise InvariantViolation(
                    f"entry {index} names dead register {entry.reg}",
                    path="wir.vsb")
