"""Warp schedulers: greedy-then-oldest (GTO) and loose round-robin (LRR).

Each SM has two schedulers (Table II); scheduler *i* owns the warp slots
with ``slot % num_schedulers == i`` so the two groups of 24 warps issue
independently, one warp instruction per scheduler per cycle.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.config import SchedulerPolicy


class WarpScheduler:
    """Selects one ready warp slot per cycle from its group."""

    def __init__(
        self, scheduler_id: int, slots: List[int], policy: SchedulerPolicy
    ) -> None:
        self.scheduler_id = scheduler_id
        self.slots = list(slots)
        self.policy = policy
        self._last_issued: Optional[int] = None
        self._rr_index = 0
        #: Slot age: lower = older; refreshed when a block is dispatched.
        self._age: dict = {slot: i for i, slot in enumerate(self.slots)}
        self._age_counter = len(self.slots)
        #: Fast-path arbitration (set by the SM when the fast engine is
        #: selected): GTO scans only slots currently holding a warp instead
        #: of the full static group.  Ages are unique, so the min-age winner
        #: is independent of scan order and the pick is provably identical —
        #: non-resident slots can never be ready.  LRR keeps the full scan
        #: in both modes because its ``_rr_index`` update depends on the
        #: static slot ordering.
        self.use_resident = False
        self._resident: List[int] = []
        #: Resident slots whose current instruction is not known to be
        #: scoreboard-blocked (see ``SMCore._sb_wait``).  The SM keeps this
        #: in sync with every ``_sb_wait`` toggle; when it hits zero the
        #: fused pick returns immediately.  Maintained (but unused) under
        #: the scalar engine, which never sets ``_sb_wait``.
        self.scannable = 0
        #: Observability hook: called as ``on_pick(scheduler_id, slot)``
        #: whenever a slot wins arbitration.  Never influences the choice.
        self.on_pick: Optional[Callable[[int, int], None]] = None
        #: Cycle before which a fused scan provably returns ``None`` (set by
        #: a failed ``fast_pick`` from the blocked slots' wake candidates;
        #: reset to 0 by every event that can make a slot ready earlier:
        #: scoreboard release, pending-retry wakeup, barrier release, block
        #: dispatch).  Pure optimisation state — never serialized; a restore
        #: starts at 0 and the first scan recomputes it.
        self.wake_memo = 0
        #: Greedy-hint handoff (superblock dispatch): when an issued warp's
        #: next instruction is already hazard-free, ``try_issue`` pins
        #: (cycle+1, slot, fu-class) here, and the next tick re-checks only
        #: the FU gate instead of re-running arbitration — the GTO greedy
        #: probe would reach the same pick.  Ephemeral, never serialized: a
        #: restore (or a consumed/stale hint) falls back to the fused scan,
        #: which is decision-identical.
        self.hint_cycle = -1
        self.hint_slot = 0
        self.hint_fu = 3

    def note_dispatch(self, slot: int) -> None:
        """Record that *slot* received a fresh warp (it becomes youngest).

        ``_resident`` is kept age-ascending (append order == dispatch order
        == age order); the fused GTO scan relies on this to return the
        first ready slot it meets."""
        self._age[slot] = self._age_counter
        self._age_counter += 1
        self.wake_memo = 0
        if slot in self._resident:
            self._resident.remove(slot)
            self._resident.append(slot)
        else:
            self._resident.append(slot)
            self.scannable += 1

    def note_finished(self, slot: int) -> None:
        """Record that *slot*'s warp exited (drop it from the fast scan).

        The slot's ``_sb_wait`` flag is always clear here (its last retire
        or issue preceded the exit), so it counted as scannable.
        """
        if slot in self._resident:
            self._resident.remove(slot)
            self.scannable -= 1

    def state_dict(self) -> dict:
        """Arbitration state (``slots``/``policy``/``use_resident`` are
        config-derived and rebuilt at construction)."""
        return {
            "last_issued": self._last_issued,
            "rr_index": self._rr_index,
            "age": {str(slot): age for slot, age in self._age.items()},
            "age_counter": self._age_counter,
            "resident": list(self._resident),
            "scannable": self.scannable,
        }

    def load_state(self, state: dict) -> None:
        self._last_issued = state["last_issued"]
        self._rr_index = state["rr_index"]
        self._age = {int(slot): age for slot, age in state["age"].items()}
        self._age_counter = state["age_counter"]
        self._resident = list(state["resident"])
        self.scannable = state["scannable"]
        self.wake_memo = 0
        self.hint_cycle = -1

    def pick(self, ready: Callable[[int], bool]) -> Optional[int]:
        """Select the next slot to issue from, or ``None`` if none is ready."""
        if self.policy is SchedulerPolicy.GTO:
            slot = self._pick_gto(ready)
        else:
            slot = self._pick_lrr(ready)
        if slot is not None and self.on_pick is not None:
            self.on_pick(self.scheduler_id, slot)
        return slot

    def _pick_gto(self, ready: Callable[[int], bool]) -> Optional[int]:
        # Greedy: stick with the last-issued warp while it stays ready.
        if self._last_issued is not None and ready(self._last_issued):
            return self._last_issued
        # Then oldest: lowest dispatch age wins.
        best: Optional[int] = None
        best_age = None
        for slot in (self._resident if self.use_resident else self.slots):
            if not ready(slot):
                continue
            age = self._age[slot]
            if best_age is None or age < best_age:
                best, best_age = slot, age
        if best is not None:
            self._last_issued = best
        return best

    def _pick_lrr(self, ready: Callable[[int], bool]) -> Optional[int]:
        n = len(self.slots)
        for offset in range(n):
            slot = self.slots[(self._rr_index + offset) % n]
            if ready(slot):
                self._rr_index = (self._rr_index + offset + 1) % n
                return slot
        return None
