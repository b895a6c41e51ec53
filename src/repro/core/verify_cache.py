"""Verify cache (Section VI-C).

Verify-read operations — reads that check a VSB candidate register's value
against a just-computed result — contend with true operand reads for the
register banks.  The verify cache is a small fully-associative LRU cache
tagged by physical register ID; verify-reads that hit skip the bank access
entirely.  A register write evicts the associated line (the cached value
would be stale).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.stats import StatGroup


class VerifyCacheStats(StatGroup):
    """Verify-cache event counts."""

    COUNTERS = ("accesses", "hits", "misses", "invalidations")

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class VerifyCache:
    """Tiny LRU cache of recently verify-read physical registers."""

    def __init__(self, entries: int) -> None:
        self.num_entries = max(entries, 0)  # a size <= 0 turns it off
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        self.stats = VerifyCacheStats("vc")
        handle = self.stats.handle
        self._c_accesses = handle("accesses")
        self._c_hits = handle("hits")
        self._c_misses = handle("misses")
        self._c_invalidations = handle("invalidations")

    @property
    def enabled(self) -> bool:
        return self.num_entries > 0

    def access(self, reg: int) -> bool:
        """Verify-read probe: ``True`` on hit (bank access avoided).

        A miss allocates the line (after the actual bank read fills it).
        """
        if not self.num_entries:
            return False
        self._c_accesses.value += 1
        lines = self._lines
        if reg in lines:
            self._c_hits.value += 1
            lines.move_to_end(reg)
            return True
        self._c_misses.value += 1
        if len(lines) >= self.num_entries:
            lines.popitem(last=False)
        lines[reg] = None
        return False

    def state_dict(self) -> dict:
        """Resident lines in LRU order (first = oldest)."""
        return {"lines": list(self._lines)}

    def load_state(self, state: dict) -> None:
        self._lines = OrderedDict((reg, None) for reg in state["lines"])

    def invalidate(self, reg: int) -> None:
        """A write to *reg* evicts its cached value."""
        if self.num_entries and reg in self._lines:
            del self._lines[reg]
            self._c_invalidations.value += 1

    def drop_random(self, rng) -> bool:
        """Fault injection: drop one random line; ``True`` if one existed."""
        if not self._lines:
            return False
        lines = list(self._lines)
        reg = lines[int(rng.integers(len(lines)))]
        del self._lines[reg]
        return True
