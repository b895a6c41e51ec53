"""The reuse buffer (Sections V-C, VI-A, VI-B).

A direct-indexed, cache-like table whose tag is
``[opcode, source operand descriptors]`` where each source descriptor is
either a physical warp register ID or an immediate value.  A hit returns the
physical register holding the previously computed result; the hitting
instruction bypasses the backend and simply remaps its logical destination.

Load-reuse support adds three fields per entry (Figure 9):

* ``pending`` — set by the pending-retry mechanism while the reserving
  instruction is still executing; matching instructions wait in a small
  retry queue instead of re-executing (Section VI-B).
* ``barrier_count`` — loads may only reuse results produced after the
  consumer block's latest barrier (Section VI-A).
* ``tbid`` — scratchpad loads may only reuse loads from the same thread
  block, whose scratchpad address space they share; ``NULL_TBID`` for
  arithmetic and non-scratchpad loads.

Entries hold reference-counted pointers to every physical register they
name (sources and result), so a register can never be recycled while a tag
still refers to it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.check.errors import InvariantViolation
from repro.core.refcount import ReferenceCounter
from repro.stats import StatGroup

#: Source descriptor: ("r", physical id) or ("i", immediate bits).
SrcDesc = Tuple[str, int]
#: Tag: (opcode index, source descriptors).
Tag = Tuple[int, Tuple[SrcDesc, ...]]

#: TBID null value for non-scratchpad entries (paper: 4-bit field, one
#: encoding reserved for null).
NULL_TBID = -1

#: Bound of each buffer's tag -> set memo (cleared wholesale when reached).
SET_MEMO_LIMIT = 1 << 12


class ReuseBufferStats(StatGroup):
    """Reuse-buffer event counts.

    ``hits`` are immediately-available results; ``pending_hits`` matched a
    pending entry and queued; ``retry_drops`` matched pending but found the
    retry queue full; ``pending_releases`` counts waiters released by a
    producer retire.
    """

    COUNTERS = ("lookups", "hits", "pending_hits", "retry_drops", "misses",
                "reservations", "updates", "evictions", "load_hits",
                "pending_releases")


class Waiter:
    """One queued instruction waiting on a pending entry."""

    __slots__ = ("on_result", "descriptor")

    def __init__(self, on_result: Callable[[Optional[int]], None]) -> None:
        #: Called with the result physical register, or ``None`` when the
        #: pending entry was evicted and the waiter must execute after all.
        self.on_result = on_result
        #: Plain-data identity of the waiting instruction, set by the SM
        #: (checkpointing externalizes the queue through it); the buffer
        #: itself never reads it.
        self.descriptor = None


class _Entry:
    __slots__ = ("valid", "tag", "result_reg", "pending", "barrier_count",
                 "tbid", "waiters", "is_load", "token")

    def __init__(self) -> None:
        self.valid = False
        self.tag: Optional[Tag] = None
        self.result_reg = -1
        self.pending = False
        self.barrier_count = 0
        self.tbid = NULL_TBID
        self.waiters: List[Waiter] = []
        self.is_load = False
        #: Reservation token: two reservations of the *same tag* (e.g. by
        #: different thread blocks, where only the TBID field differs) must
        #: not satisfy each other's retire-time fill.
        self.token = -1


def _mix(tag: Tag) -> int:
    """Deterministic FNV-style tag hash used for direct indexing."""
    value = 0x811C9DC5
    value = (value ^ tag[0]) * 0x01000193 & 0xFFFFFFFF
    for kind, operand in tag[1]:
        value = (value ^ (1 if kind == "r" else 2)) * 0x01000193 & 0xFFFFFFFF
        value = (value ^ (operand & 0xFFFFFFFF)) * 0x01000193 & 0xFFFFFFFF
        value = (value ^ (operand >> 16)) * 0x01000193 & 0xFFFFFFFF
    return value


class ReuseBuffer:
    """Reuse buffer with pending-retry support.

    ``associativity=1`` (the paper's default) is direct-indexed; higher
    values organise the entries into LRU sets searched associatively — the
    alternative the paper considered and found marginal (Section V-C).
    """

    def __init__(
        self,
        entries: int,
        refcount: ReferenceCounter,
        retry_queue_entries: int = 16,
        associativity: int = 1,
    ) -> None:
        if entries and entries & (entries - 1):
            raise ValueError("reuse buffer entry count must be a power of two")
        if associativity < 1 or (entries and entries % associativity):
            raise ValueError("associativity must divide the entry count")
        self.num_entries = entries
        self.associativity = associativity if entries else 1
        self._num_sets = entries // self.associativity if entries else 0
        self._refcount = refcount
        self._entries = [_Entry() for _ in range(entries)]
        #: Per-set slot order, least recently used first.
        self._lru = [
            list(range(s * self.associativity, (s + 1) * self.associativity))
            for s in range(self._num_sets)
        ]
        self.retry_queue_entries = retry_queue_entries
        self._retry_queue_used = 0
        self._next_token = 0
        self.stats = ReuseBufferStats("rb")
        handle = self.stats.handle
        self._c_lookups = handle("lookups")
        self._c_hits = handle("hits")
        self._c_pending_hits = handle("pending_hits")
        self._c_retry_drops = handle("retry_drops")
        self._c_misses = handle("misses")
        self._c_reservations = handle("reservations")
        self._c_updates = handle("updates")
        self._c_evictions = handle("evictions")
        self._c_load_hits = handle("load_hits")
        self._c_pending_releases = handle("pending_releases")
        #: tag -> set index memo: a pure function of the tag (``_mix``),
        #: bounded by :data:`SET_MEMO_LIMIT`, and not checkpoint state.
        self._set_memo: Dict[Tag, int] = {}
        #: Observability hook (per-SM ``SMTraceView`` or ``None``).
        self.tracer = None

    # --- helpers -------------------------------------------------------------

    def _set_of(self, tag: Tag) -> int:
        memo = self._set_memo
        set_index = memo.get(tag)
        if set_index is None:
            if len(memo) >= SET_MEMO_LIMIT:
                memo.clear()
            set_index = memo[tag] = _mix(tag) & (self._num_sets - 1)
        return set_index

    def index_of(self, tag: Tag) -> int:
        """First slot of the set this tag maps to."""
        return self._set_of(tag) * self.associativity

    def _touch(self, set_index: int, slot: int) -> None:
        # A one-way set's recency order cannot change; skip the list
        # shuffle in the direct-indexed default.
        if self.associativity == 1:
            return
        order = self._lru[set_index]
        order.remove(slot)
        order.append(slot)

    def _detach_entry(self, entry: _Entry) -> List[Waiter]:
        """Release an entry's references; return its orphaned waiters.

        The caller must finish mutating the table and only then notify the
        orphans via :meth:`_notify_failed` — waiter callbacks can re-enter
        the buffer (a failed waiter re-runs the reuse stage), so they must
        never observe a half-updated entry.
        """
        if not entry.valid:
            return []
        self._c_evictions.value += 1
        if self.tracer is not None:
            self.tracer.component_event(
                "rb", "rb_evict",
                {"reg": entry.result_reg, "pending": entry.pending,
                 "orphans": len(entry.waiters)})
        for kind, operand in entry.tag[1]:
            if kind == "r":
                self._refcount.decref(operand)
        if entry.result_reg >= 0:
            self._refcount.decref(entry.result_reg)
        waiters = entry.waiters
        entry.waiters = []
        self._retry_queue_used -= len(waiters)
        entry.valid = False
        entry.tag = None
        entry.result_reg = -1
        entry.pending = False
        return waiters

    @staticmethod
    def _notify_failed(waiters: List[Waiter]) -> None:
        for waiter in waiters:
            waiter.on_result(None)

    # --- pipeline operations ---------------------------------------------------

    def lookup(
        self,
        tag: Tag,
        is_load: bool,
        consumer_barrier_count: int,
        consumer_tbid: int,
        pending_retry: bool,
        make_waiter: Optional[Callable[..., Waiter]] = None,
        waiter_args: Tuple = (),
    ) -> Tuple[str, Optional[int], int]:
        """Probe the buffer at the reuse stage.

        Returns ``(outcome, result_reg, index)`` where outcome is:

        * ``"hit"`` — result available; ``result_reg`` holds it.
        * ``"queued"`` — matched a pending entry; the waiter built by
          ``make_waiter(*waiter_args)`` (only then) was enqueued.
        * ``"miss"`` — no reusable result; the instruction must execute.
        """
        self._c_lookups.value += 1
        if not self.num_entries:
            self._c_misses.value += 1
            return "miss", None, 0
        set_index = self._set_of(tag)
        entries = self._entries
        # The set's order is iterated without a copy: ``_touch`` reorders
        # it only right before a return, and ``make_waiter`` never touches
        # the buffer.
        for slot in self._lru[set_index]:
            entry = entries[slot]
            match = entry.valid and entry.tag == tag
            if match and is_load:
                # Load scoping rules (Section VI-A).
                if entry.barrier_count != consumer_barrier_count:
                    match = False
                elif entry.tbid != NULL_TBID and entry.tbid != consumer_tbid:
                    match = False
            if not match:
                continue

            if not entry.pending:
                self._c_hits.value += 1
                if is_load:
                    self._c_load_hits.value += 1
                self._touch(set_index, slot)
                return "hit", entry.result_reg, slot

            if pending_retry and make_waiter is not None:
                if self._retry_queue_used < self.retry_queue_entries:
                    self._retry_queue_used += 1
                    entry.waiters.append(make_waiter(*waiter_args))
                    self._c_pending_hits.value += 1
                    self._touch(set_index, slot)
                    return "queued", None, slot
                self._c_retry_drops.value += 1
            break

        self._c_misses.value += 1
        return "miss", None, set_index * self.associativity

    def reserve(
        self,
        tag: Tag,
        is_load: bool,
        barrier_count: int,
        tbid: int,
        allow_insert: bool = True,
    ) -> Optional[Tuple[int, int]]:
        """Reserve the entry for a missed instruction (pending-retry eager
        reservation, or plain placeholder for the retire-time update).

        Returns ``(index, token)``, or ``None`` when insertion is disabled
        (low-register mode evicts instead of inserting).  The token must be
        presented at :meth:`fill`.
        """
        if not self.num_entries:
            return None
        set_index = self._set_of(tag)
        # Victim selection: a way already holding this tag, else an invalid
        # way, else the set's LRU entry (equivalent to the direct index when
        # associativity is 1).
        victim = None
        for slot in self._lru[set_index]:
            candidate = self._entries[slot]
            if candidate.valid and candidate.tag == tag:
                victim = slot
                break
        if victim is None:
            for slot in self._lru[set_index]:
                if not self._entries[slot].valid:
                    victim = slot
                    break
        if victim is None:
            victim = self._lru[set_index][0]
        index = victim
        entry = self._entries[index]
        orphans = self._detach_entry(entry)
        if not allow_insert:
            self._notify_failed(orphans)
            return None
        for kind, operand in tag[1]:
            if kind == "r":
                self._refcount.incref(operand)
        entry.valid = True
        entry.tag = tag
        entry.pending = True
        entry.result_reg = -1
        entry.barrier_count = barrier_count
        entry.tbid = tbid
        entry.is_load = is_load
        self._next_token += 1
        token = self._next_token
        entry.token = token
        self._touch(set_index, index)
        self._c_reservations.value += 1
        # Orphans re-enter the reuse stage only after the entry is coherent;
        # they may evict this very entry again — and allocate further tokens
        # re-entrantly — which is safe because the retire-time fill checks
        # the token *captured here*, not the (possibly advanced) counter.
        self._notify_failed(orphans)
        return index, token

    def fill(self, index: int, token: int, result_reg: int) -> List[Waiter]:
        """Producer retire: record the result and release the waiters.

        Returns the waiters so the caller can schedule their completions.
        If the entry no longer holds the producer's reservation (it was
        evicted and possibly re-reserved — even with an identical tag),
        nothing happens and no waiters are returned.
        """
        if not self.num_entries:
            return []
        entry = self._entries[index]
        if not entry.valid or entry.token != token or not entry.pending:
            return []
        self._refcount.incref(result_reg)
        entry.result_reg = result_reg
        entry.pending = False
        waiters = entry.waiters
        entry.waiters = []
        self._retry_queue_used -= len(waiters)
        self._c_updates.value += 1
        self._c_pending_releases.value += len(waiters)
        if self.tracer is not None:
            self.tracer.component_event(
                "rb", "rb_fill",
                {"index": index, "reg": result_reg, "waiters": len(waiters)})
        if entry.is_load:
            self._c_load_hits.value += len(waiters)
        return waiters

    def evict_index(self, index: int) -> bool:
        """Low-register-mode eviction; ``True`` if an entry was dropped."""
        if not self.num_entries:
            return False
        entry = self._entries[index % self.num_entries]
        if not entry.valid:
            return False
        self._notify_failed(self._detach_entry(entry))
        return True

    def evict_if_source(self, index: int, reg: int) -> bool:
        """Evict the entry at *index* only if its tag names *reg* as a source.

        Used to invalidate tags that alias a pinned register being
        overwritten in place (divergence handling, Section V-D).
        """
        if not self.num_entries:
            return False
        entry = self._entries[index % self.num_entries]
        if not entry.valid:
            return False
        if not any(kind == "r" and operand == reg for kind, operand in entry.tag[1]):
            return False
        self._notify_failed(self._detach_entry(entry))
        return True

    def evict_tbid(self, tbid: int) -> int:
        """Drop all scratchpad entries of a completed thread block.

        The 4-bit TBID field is recycled when a new block is dispatched; a
        stale entry from the finished block would otherwise alias the new
        block's (physically different) scratchpad.  Returns the number of
        entries dropped.
        """
        dropped = 0
        orphans = []
        for entry in self._entries:
            if entry.valid and entry.tbid == tbid:
                orphans.extend(self._detach_entry(entry))
                dropped += 1
        self._notify_failed(orphans)
        return dropped

    # --- checkpointing ---------------------------------------------------------

    def state_dict(self, encode_waiter: Callable[[Waiter], dict]) -> dict:
        """Entries, LRU orders, and queue bookkeeping.

        Waiters hold SM-side callbacks, so the SM supplies *encode_waiter*
        to externalize each one (via ``Waiter.descriptor``) as plain data.
        """
        entries = []
        for entry in self._entries:
            tag = entry.tag
            entries.append({
                "valid": entry.valid,
                "tag": ([tag[0], [list(desc) for desc in tag[1]]]
                        if tag is not None else None),
                "result_reg": entry.result_reg,
                "pending": entry.pending,
                "barrier_count": entry.barrier_count,
                "tbid": entry.tbid,
                "is_load": entry.is_load,
                "token": entry.token,
                "waiters": [encode_waiter(w) for w in entry.waiters],
            })
        return {
            "entries": entries,
            "lru": [list(order) for order in self._lru],
            "retry_queue_used": self._retry_queue_used,
            "next_token": self._next_token,
        }

    def load_state(
        self, state: dict, decode_waiter: Callable[[dict], Waiter]
    ) -> None:
        """Inverse of :meth:`state_dict`.

        Fields are set directly, never through reserve/fill — the matching
        reference counts are restored wholesale by the ReferenceCounter.
        Tags are re-tupled (JSON lists would break ``entry.tag == tag``
        equality and ``_mix``).
        """
        for entry, data in zip(self._entries, state["entries"]):
            entry.valid = data["valid"]
            tag = data["tag"]
            entry.tag = (
                (tag[0], tuple((kind, operand) for kind, operand in tag[1]))
                if tag is not None else None)
            entry.result_reg = data["result_reg"]
            entry.pending = data["pending"]
            entry.barrier_count = data["barrier_count"]
            entry.tbid = data["tbid"]
            entry.is_load = data["is_load"]
            entry.token = data["token"]
            entry.waiters = [decode_waiter(w) for w in data["waiters"]]
        self._lru = [list(order) for order in state["lru"]]
        self._retry_queue_used = state["retry_queue_used"]
        self._next_token = state["next_token"]

    def occupancy(self) -> int:
        return sum(1 for entry in self._entries if entry.valid)

    @property
    def retry_queue_used(self) -> int:
        return self._retry_queue_used

    def check_invariants(self, refcount: ReferenceCounter) -> None:
        """Structure self-check; raises :class:`InvariantViolation`.

        Verified: retry-queue accounting matches the waiters actually held,
        waiters only hang off pending entries, and every register a valid
        entry names (tag sources and the result) is still live.
        """
        waiters = sum(len(entry.waiters) for entry in self._entries)
        if waiters != self._retry_queue_used:
            raise InvariantViolation(
                f"retry-queue accounting off: {waiters} waiters held but "
                f"{self._retry_queue_used} slots accounted", path="wir.rb")
        for index, entry in enumerate(self._entries):
            if not entry.valid:
                continue
            if entry.waiters and not entry.pending:
                raise InvariantViolation(
                    f"entry {index} holds waiters but is not pending",
                    path="wir.rb")
            if not entry.pending:
                if entry.result_reg < 0:
                    raise InvariantViolation(
                        f"entry {index} is filled but names no result "
                        f"register", path="wir.rb")
                if refcount.count(entry.result_reg) <= 0:
                    raise InvariantViolation(
                        f"entry {index} names dead result register "
                        f"{entry.result_reg}", path="wir.rb")
            for kind, operand in entry.tag[1]:
                if kind == "r" and refcount.count(operand) <= 0:
                    raise InvariantViolation(
                        f"entry {index} tag names dead source register "
                        f"{operand}", path="wir.rb")
