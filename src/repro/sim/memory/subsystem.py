"""GPU-wide memory subsystem: NoC, L2 partitions, DRAM, per-SM ports.

Timing model
------------
* L1 data / constant caches live in the per-SM :class:`SMMemoryPort`.
* An L1 miss crosses the NoC (bandwidth-limited injection), accesses the
  address-interleaved L2 partition, and on an L2 miss queues at that
  partition's DRAM channel (latency + service-rate limited).
* Shared-memory (scratchpad) accesses have a fixed latency and never leave
  the SM.

The functional side (actual values) is handled against the launch's
:class:`~repro.sim.memory.space.MemoryImage` at access time; the timing side
returns the cycle at which the warp instruction's data is ready.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import MemSpace
from repro.sim.config import GPUConfig
from repro.sim.memory.cache import Cache
from repro.sim.memory.space import LaunchBase, MemoryImage
from repro.stats import StatGroup


@dataclass
class MemoryAccessResult:
    """Outcome of one warp-level memory access."""

    ready_cycle: int
    lines: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    scratchpad_accesses: int = 0
    #: Loaded values (zeros for stores / inactive lanes).
    values: Optional[np.ndarray] = None


class DRAMChannel:
    """One DRAM channel: fixed access latency plus service-rate queueing."""

    def __init__(self, extra_latency: int, service_cycles: int, queue_entries: int) -> None:
        self._extra_latency = extra_latency
        self._service_cycles = service_cycles
        self._queue_entries = queue_entries
        self._next_free = 0
        self.accesses = 0
        self.queueing_cycles = 0

    def access(self, cycle: int) -> int:
        """Register one line access; returns total added latency."""
        self.accesses += 1
        wait = max(0, self._next_free - cycle)
        # A bounded scheduling queue caps how far ahead requests can pile up.
        max_backlog = self._queue_entries * self._service_cycles
        wait = min(wait, max_backlog)
        self.queueing_cycles += wait
        self._next_free = max(self._next_free, cycle) + self._service_cycles
        return wait + self._extra_latency

    def state_dict(self) -> Dict:
        return {
            "next_free": self._next_free,
            "accesses": self.accesses,
            "queueing_cycles": self.queueing_cycles,
        }

    def load_state(self, state: Dict) -> None:
        self._next_free = state["next_free"]
        self.accesses = state["accesses"]
        self.queueing_cycles = state["queueing_cycles"]


class NoCModel:
    """Bandwidth-limited interconnect between SMs and L2 partitions."""

    def __init__(self, bytes_per_cycle: int, line_bytes: int, num_sms: int) -> None:
        self._service_cycles = max(1, line_bytes // max(1, bytes_per_cycle))
        self._next_free = [0] * num_sms
        self.flits = 0

    def traverse(self, sm_id: int, cycle: int) -> int:
        """One line transfer from *sm_id*; returns added latency."""
        self.flits += 1
        wait = max(0, self._next_free[sm_id] - cycle)
        self._next_free[sm_id] = max(self._next_free[sm_id], cycle) + self._service_cycles
        return wait + self._service_cycles

    def state_dict(self) -> Dict:
        return {"next_free": list(self._next_free), "flits": self.flits}

    def load_state(self, state: Dict) -> None:
        self._next_free = list(state["next_free"])
        self.flits = state["flits"]


class MemorySubsystem:
    """Shared L2 + DRAM + NoC serving all SMs."""

    def __init__(self, config: GPUConfig, image: MemoryImage) -> None:
        self.config = config
        self.image = image
        line_bytes = config.l1d.line_bytes
        dram_service = max(1, line_bytes // max(1, config.noc_bytes_per_cycle))
        self.dram_channels = [
            DRAMChannel(
                extra_latency=config.dram_latency - config.l2_latency,
                service_cycles=dram_service,
                queue_entries=config.dram_queue_entries,
            )
            for _ in range(config.l2_partitions)
        ]
        self.noc = NoCModel(config.noc_bytes_per_cycle, line_bytes, config.num_sms)
        #: Observability hook (chip-level ``SMTraceView`` or ``None``).
        self.tracer = None
        self.l2_partitions = [
            Cache(
                config.l2_partition_config,
                miss_latency=self._make_dram_callback(i),
                name=f"l2[{i}]",
            )
            for i in range(config.l2_partitions)
        ]

    def _make_dram_callback(self, partition: int):
        channel = self.dram_channels[partition]

        def dram_latency(_line_addr: int, cycle: int) -> int:
            return channel.access(cycle)

        return dram_latency

    def _partition_of(self, line_addr: int) -> int:
        return line_addr % len(self.l2_partitions)

    def service_l1_miss(self, sm_id: int, line_addr: int, cycle: int) -> int:
        """Latency added beyond the L1 for one missed line."""
        noc_delay = self.noc.traverse(sm_id, cycle)
        if self.tracer is not None:
            self.tracer.component_event(
                "mem", "l1_miss",
                {"sm": sm_id, "line": line_addr,
                 "partition": self._partition_of(line_addr)})
        partition = self.l2_partitions[self._partition_of(line_addr)]
        # L2 "hit latency" in its CacheConfig is the round-trip seen by the
        # SM minus the NoC component; Table II's 200-cycle L2 latency is the
        # total, so subtract the L1 probe time built into the access.
        ready, _hit = partition.access(line_addr, cycle + noc_delay)
        base = self.config.l2_latency - self.config.l1d.hit_latency
        return max(0, noc_delay + (ready - cycle) + base - partition.config.hit_latency)

    def state_dict(self, base: LaunchBase) -> Dict:
        """Chip-level timing state plus the functional memory image
        (its global store as a delta against *base*).

        The DRAM-callback closures inside the L2 partitions are rebuilt at
        construction; ``stats_group()`` aggregates from the restored
        scalars at collection time, so no chip-level stat tree is stored.
        """
        return {
            "dram": [channel.state_dict() for channel in self.dram_channels],
            "noc": self.noc.state_dict(),
            "l2": [partition.state_dict() for partition in self.l2_partitions],
            "image": self.image.state_dict(base),
        }

    def load_state(self, state: Dict, base: LaunchBase) -> None:
        for channel, data in zip(self.dram_channels, state["dram"]):
            channel.load_state(data)
        self.noc.load_state(state["noc"])
        for partition, data in zip(self.l2_partitions, state["l2"]):
            partition.load_state(data)
        self.image.load_state(state["image"], base)

    @property
    def l2_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for partition in self.l2_partitions:
            for key, value in partition.stats.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def dram_accesses(self) -> int:
        return sum(channel.accesses for channel in self.dram_channels)

    def stats_group(self) -> StatGroup:
        """This subsystem's subtree of the run's stats registry.

        Chip-level structures aggregate their per-partition/channel scalars
        at collection time (unlike the per-SM groups, which are live).
        """
        memory = StatGroup("memory")
        l2 = memory.group("l2")
        for key, value in self.l2_stats.items():
            l2.add_counter(key, value)
        dram = memory.group("dram")
        dram.add_counter("accesses", self.dram_accesses)
        dram.add_counter(
            "queueing_cycles",
            sum(channel.queueing_cycles for channel in self.dram_channels),
        )
        memory.group("noc").add_counter("flits", self.noc.flits)
        return memory


class SMMemoryPort:
    """Per-SM memory pipeline front door: L1 caches + scratchpad timing."""

    def __init__(self, sm_id: int, config: GPUConfig, subsystem: MemorySubsystem) -> None:
        self.sm_id = sm_id
        self.config = config
        self.subsystem = subsystem
        self.l1d = Cache(config.l1d, miss_latency=self._miss_cb, name=f"l1d[{sm_id}]")
        self.l1c = Cache(config.l1c, miss_latency=self._miss_cb, name=f"l1c[{sm_id}]")
        self.stats = StatGroup("port")
        self.stats.add_counter("scratchpad_accesses")
        #: Observability hook (per-SM ``SMTraceView`` or ``None``).
        self.tracer = None

    @property
    def scratchpad_accesses(self) -> int:
        return self.stats.scratchpad_accesses

    def state_dict(self) -> Dict:
        return {
            "l1d": self.l1d.state_dict(),
            "l1c": self.l1c.state_dict(),
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: Dict) -> None:
        self.l1d.load_state(state["l1d"])
        self.l1c.load_state(state["l1c"])
        self.stats.load_state(state["stats"])

    def _miss_cb(self, line_addr: int, cycle: int) -> int:
        return self.subsystem.service_l1_miss(self.sm_id, line_addr, cycle)

    def _coalesce(self, addrs: np.ndarray, mask: np.ndarray, line_bytes: int) -> List[int]:
        """Unique line addresses touched by the active lanes.

        A sorted python set beats ``np.unique`` by an order of magnitude at
        warp width (32 lanes), and this runs once per memory instruction.
        """
        shift = line_bytes.bit_length() - 1
        lanes = addrs.tolist() if mask.all() else addrs[mask].tolist()
        return sorted({addr >> shift for addr in lanes})

    def access(
        self,
        space: MemSpace,
        block_id: int,
        addrs: np.ndarray,
        mask: np.ndarray,
        cycle: int,
        is_store: bool = False,
        store_values: Optional[np.ndarray] = None,
    ) -> MemoryAccessResult:
        """Perform one warp memory access: functional + timing.

        Global/local traffic goes through the L1D; const/param through the
        L1C; shared memory is a fixed-latency scratchpad.  Coalesced lines
        are serviced one per cycle; the instruction completes when its last
        line is ready.
        """
        store = self.subsystem.image.store_for(space, block_id)

        # Functional part.
        values: Optional[np.ndarray] = None
        if is_store:
            assert store_values is not None
            store.store(addrs, store_values, mask)
        else:
            values = store.load(addrs, mask)

        # Timing part.
        if space is MemSpace.SHARED:
            self.stats.scratchpad_accesses += 1
            if self.tracer is not None:
                self.tracer.mem_access("shared", 0, 0, 0)
            return MemoryAccessResult(
                ready_cycle=cycle + self.config.shared_mem_latency,
                scratchpad_accesses=1,
                values=values,
            )

        cache = self.l1c if space in (MemSpace.CONST, MemSpace.PARAM) else self.l1d
        lines = self._coalesce(addrs, mask, cache.config.line_bytes)
        if not lines:
            return MemoryAccessResult(ready_cycle=cycle + 1, values=values)

        ready = cycle
        hits = misses = 0
        for i, line in enumerate(lines):
            line_ready, hit = cache.access(line, cycle + i, is_write=is_store)
            ready = max(ready, line_ready)
            if hit:
                hits += 1
            else:
                misses += 1
        if self.tracer is not None:
            self.tracer.mem_access(space.name.lower(), len(lines), hits, misses)
        return MemoryAccessResult(
            ready_cycle=ready,
            lines=len(lines),
            l1_hits=hits,
            l1_misses=misses,
            values=values,
        )
