"""Functional backing stores for the simulated address spaces.

All simulated accesses are 4-byte words.  :class:`MemorySpaceStore` keeps a
flat ``uint32`` array that grows on demand; the functional execution engine
loads/stores vectors of per-lane addresses with an active-lane mask.

A :class:`MemoryImage` bundles the stores for every address space of one
kernel launch: one global store shared by the whole GPU, one constant and
one parameter store (read-only), and one scratchpad store per thread block
(created lazily, since scratchpad address spaces are private per block).

Checkpoints store the global store as a delta against the launch image
(:class:`LaunchBase`): its ``size_words`` plus the 4 KB pages that differ
from the launch image zero-extended.  The other stores are small and are
stored whole.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from repro.ckpt.codec import decode_array, encode_array
from repro.ckpt.snapshot import CheckpointError
from repro.isa.opcodes import MemSpace

#: Words per page of a global-memory delta (4 KB).
PAGE_WORDS = 1024


class MemorySpaceStore:
    """Auto-growing word-addressable backing store."""

    def __init__(self, name: str, initial_words: int = 1024) -> None:
        self.name = name
        self._data = np.zeros(max(initial_words, 16), dtype=np.uint32)

    def _ensure(self, max_word: int) -> None:
        if max_word >= self._data.size:
            new_size = self._data.size
            while new_size <= max_word:
                new_size *= 2
            grown = np.zeros(new_size, dtype=np.uint32)
            grown[: self._data.size] = self._data
            self._data = grown

    def load(self, byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Load 32-bit words at per-lane *byte_addrs* where *mask* is set.

        Inactive lanes return zero.  Addresses are truncated to word
        alignment (the simulator models 4-byte accesses only).
        """
        words = (byte_addrs >> 2).astype(np.int64)
        if mask.all():
            # Hot path: every lane active, so the gather needs no zero-fill
            # scatter.  Growth is the rare case — probe first, size after.
            try:
                return self._data[words]
            except IndexError:
                self._ensure(int(words.max()))
                return self._data[words]
        out = np.zeros(byte_addrs.shape[0], dtype=np.uint32)
        active_words = words[mask]
        if active_words.size:
            self._ensure(int(active_words.max()))
            out[mask] = self._data[active_words]
        return out

    def store(
        self, byte_addrs: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Store 32-bit *values* at per-lane *byte_addrs* where *mask* is set.

        When multiple active lanes target the same word the highest lane
        wins, matching the unordered intra-warp store semantics of real GPUs
        (numpy fancy assignment applies later indices last).
        """
        if mask.all():
            words = (byte_addrs >> 2).astype(np.int64)
            try:
                self._data[words] = values
            except IndexError:
                self._ensure(int(words.max()))
                self._data[words] = values
            return
        if not mask.any():
            return
        words = (byte_addrs[mask] >> 2).astype(np.int64)
        self._ensure(int(words.max()))
        self._data[words] = values[mask]

    def write_block(self, byte_addr: int, values: np.ndarray) -> None:
        """Bulk initialisation helper used by workload input generators."""
        values = np.asarray(values, dtype=np.uint32).ravel()
        start = byte_addr >> 2
        self._ensure(start + values.size)
        self._data[start : start + values.size] = values

    def read_block(self, byte_addr: int, count: int) -> np.ndarray:
        """Read *count* words starting at *byte_addr* (for result checking)."""
        start = byte_addr >> 2
        self._ensure(start + count)
        return self._data[start : start + count].copy()

    @property
    def size_words(self) -> int:
        return self._data.size

    def state_dict(self) -> Dict:
        """The full backing array — including its grown size, so address
        probes after restore see the same ``size_words``."""
        return {"data": encode_array(self._data)}

    def load_state(self, state: Dict) -> None:
        self._data = decode_array(state["data"])

    def delta_state(self, base: np.ndarray) -> Dict:
        """``size_words`` plus the pages that differ from *base*
        zero-extended to the store's current size."""
        data = self._data
        ref = base if base.size == data.size else _extended(base, data.size)
        starts = np.arange(0, data.size, PAGE_WORDS)
        pages = np.flatnonzero(np.logical_or.reduceat(data != ref, starts))
        return {
            "size_words": int(data.size),
            "pages": {str(page): encode_array(
                data[page * PAGE_WORDS:(page + 1) * PAGE_WORDS])
                for page in pages.tolist()},
        }

    def load_delta(self, state: Dict, base: np.ndarray) -> None:
        """Inverse of :meth:`delta_state` against the same *base*."""
        data = _extended(base, state["size_words"])
        for page, encoded in state["pages"].items():
            start = int(page) * PAGE_WORDS
            words = decode_array(encoded)
            data[start:start + words.size] = words
        self._data = data


def _extended(base: np.ndarray, size: int) -> np.ndarray:
    """A fresh copy of *base* truncated or zero-extended to *size* words."""
    out = np.zeros(size, dtype=np.uint32)
    out[:min(base.size, size)] = base[:size]
    return out


class LaunchBase:
    """The global store as launched: what checkpoint deltas are taken
    against.

    Captured once at run start, before anything runs or a resume
    overwrites the store, together with its digest: the live store
    mutates, so the digest cannot be recomputed at each write, and a
    resume compares it to refuse a delta taken against another image.
    """

    def __init__(self, image: "MemoryImage") -> None:
        self.words = image.global_mem._data.copy()
        self.digest = hashlib.sha256(self.words.tobytes()).hexdigest()


class MemoryImage:
    """All backing stores for one kernel launch."""

    def __init__(self) -> None:
        self.global_mem = MemorySpaceStore("global")
        self.const_mem = MemorySpaceStore("const")
        self.param_mem = MemorySpaceStore("param")
        self.local_mem = MemorySpaceStore("local")
        self._scratchpads: Dict[int, MemorySpaceStore] = {}

    def scratchpad(self, block_id: int) -> MemorySpaceStore:
        """Per-thread-block scratchpad store (created on first touch)."""
        store = self._scratchpads.get(block_id)
        if store is None:
            store = MemorySpaceStore(f"shared[{block_id}]")
            self._scratchpads[block_id] = store
        return store

    def release_scratchpad(self, block_id: int) -> None:
        """Free a completed block's scratchpad."""
        self._scratchpads.pop(block_id, None)

    def state_dict(self, base: LaunchBase) -> Dict:
        """Every store, the global one as a delta against *base*."""
        return {
            "global": {"base": base.digest,
                       **self.global_mem.delta_state(base.words)},
            "const": self.const_mem.state_dict(),
            "param": self.param_mem.state_dict(),
            "local": self.local_mem.state_dict(),
            "scratchpads": {
                str(block_id): store.state_dict()
                for block_id, store in self._scratchpads.items()
            },
        }

    def load_state(self, state: Dict, base: LaunchBase) -> None:
        """Restore *state*; refuses (before touching any store) a global
        delta taken against a launch image other than *base*."""
        if state["global"].get("base") != base.digest:
            raise CheckpointError(
                "checkpoint memory delta was taken against a different "
                "launch image")
        self.global_mem.load_delta(state["global"], base.words)
        self.const_mem.load_state(state["const"])
        self.param_mem.load_state(state["param"])
        self.local_mem.load_state(state["local"])
        self._scratchpads = {}
        for block_id, data in state["scratchpads"].items():
            store = MemorySpaceStore(f"shared[{int(block_id)}]")
            store.load_state(data)
            self._scratchpads[int(block_id)] = store

    def store_for(self, space: MemSpace, block_id: int) -> MemorySpaceStore:
        """Resolve the backing store for *space* accessed by *block_id*."""
        if space is MemSpace.GLOBAL:
            return self.global_mem
        if space is MemSpace.SHARED:
            return self.scratchpad(block_id)
        if space is MemSpace.CONST:
            return self.const_mem
        if space is MemSpace.PARAM:
            return self.param_mem
        if space is MemSpace.LOCAL:
            return self.local_mem
        raise ValueError(f"unknown space {space}")
