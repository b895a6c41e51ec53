"""Set-associative cache model with MSHR-limited outstanding misses.

The cache is a timing filter: tag state updates immediately on access, and
the caller receives the latency at which the data is available.  Misses
allocate an MSHR that is held until the fill returns; accesses that find all
MSHRs busy are delayed until the oldest outstanding fill completes (modelled
by returning a later availability cycle).  Secondary misses to a line with a
pending fill merge into the existing MSHR.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.config import CacheConfig
from repro.stats import StatGroup

#: Sentinel "no outstanding fill" completion cycle (past any real cycle).
_FAR = 1 << 62


class CacheStats(StatGroup):
    """Cache event counts, registered into the run's stats tree."""

    COUNTERS = ("accesses", "hits", "misses", "mshr_merges", "mshr_stalls",
                "evictions", "writebacks")

    def snapshot(self) -> Dict[str, int]:
        return self.counters()


class Cache:
    """LRU set-associative cache with a simple MSHR model.

    ``access`` returns ``(ready_cycle, hit)``: the cycle at which the data is
    available to the requester and whether the access hit.  The next level's
    latency is supplied by the ``miss_latency`` callback so the same class
    serves L1 (miss -> L2/DRAM) and L2 partitions (miss -> DRAM).
    """

    def __init__(
        self,
        config: CacheConfig,
        miss_latency: Callable[[int, int], int],
        name: str = "cache",
    ) -> None:
        self.config = config
        self.name = name
        self._miss_latency = miss_latency
        self.stats = CacheStats(name)
        self._num_sets = config.num_sets
        # Hot-path hoists: ``access`` reads these once per coalesced line.
        self._hit_latency = config.hit_latency
        self._ways = config.ways
        self._mshr_entries = config.mshr_entries
        # Per set: ordered list of line tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        # Pending fills: line address -> ready cycle.
        self._pending: Dict[int, int] = {}
        #: Earliest outstanding fill completion (``_FAR`` when none):
        #: ``access`` runs on every coalesced line of every memory
        #: instruction, so the fill reap is skipped while provably a no-op.
        #: Derived state — recomputed on restore, never serialized.
        self._pending_min = _FAR
        # Preloaded counter handles (StatGroup.handle): ``access`` is the
        # hottest shared path of both engines, so skip the attribute magic.
        s = self.stats
        self._c_accesses = s.handle("accesses")
        self._c_hits = s.handle("hits")
        self._c_misses = s.handle("misses")
        self._c_merges = s.handle("mshr_merges")
        self._c_stalls = s.handle("mshr_stalls")
        self._c_evictions = s.handle("evictions")

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self._num_sets

    def contains(self, line_addr: int) -> bool:
        """Tag probe without side effects (used by tests)."""
        return line_addr in self._sets[self._set_index(line_addr)]

    def _reap_pending(self, cycle: int) -> None:
        if cycle < self._pending_min:
            # No outstanding fill can have completed yet (``_pending_min``
            # only ever under-estimates, so skipping is always safe).
            return
        pending = self._pending
        done = [line for line, ready in pending.items() if ready <= cycle]
        for line in done:
            del pending[line]
        self._pending_min = min(pending.values(), default=_FAR)

    def access(
        self, line_addr: int, cycle: int, is_write: bool = False
    ) -> Tuple[int, bool]:
        """Access one cache line; returns (ready_cycle, hit)."""
        self._c_accesses.value += 1
        if cycle >= self._pending_min:
            self._reap_pending(cycle)
        line_set = self._sets[line_addr % self._num_sets]

        if line_addr in line_set:
            # A line with a pending fill counts as a miss-merge, not a hit.
            pending_ready = self._pending.get(line_addr)
            if pending_ready is not None:
                self._c_merges.value += 1
                return max(pending_ready, cycle + self._hit_latency), False
            self._c_hits.value += 1
            line_set.remove(line_addr)
            line_set.append(line_addr)
            return cycle + self._hit_latency, True

        # Miss.
        self._c_misses.value += 1
        start = cycle
        if len(self._pending) >= self._mshr_entries:
            # All MSHRs busy: the request waits for the oldest fill.
            self._c_stalls.value += 1
            start = min(self._pending.values())
            self._reap_pending(start)
        fill_latency = self._miss_latency(line_addr, start)
        ready = start + self._hit_latency + fill_latency

        # Allocate (write-allocate for simplicity; GPUs typically use
        # write-evict L1s, but allocation policy does not affect the reuse
        # mechanisms under study).
        if len(line_set) >= self._ways:
            victim = line_set.pop(0)
            self._c_evictions.value += 1
            self._pending.pop(victim, None)
        line_set.append(line_addr)
        self._pending[line_addr] = ready
        if ready < self._pending_min:
            self._pending_min = ready
        return ready, False

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self._num_sets)]
        self._pending.clear()
        self._pending_min = _FAR

    # --- checkpointing ------------------------------------------------------

    def state_dict(self) -> Dict:
        """Tag arrays (MRU order), in-flight fills (insertion order), and
        this cache's own stats — self-contained, because L2 partition
        caches have no live stats tree until collection time."""
        return {
            "sets": [list(line_set) for line_set in self._sets],
            "pending": [[line, ready] for line, ready in self._pending.items()],
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: Dict) -> None:
        self._sets = [list(line_set) for line_set in state["sets"]]
        self._pending = {line: ready for line, ready in state["pending"]}
        self._pending_min = min(self._pending.values(), default=_FAR)
        self.stats.load_state(state["stats"])
