"""H3 hash generation for warp register values (paper Sections V-A, VII-E).

The register allocation stage reduces each 1024-bit result value to a 32-bit
signature with an H3-class universal hash: every output bit is the XOR of a
fixed random subset of input bits.  We implement H3 as tabulation hashing —
mathematically identical — with one 256-entry table of output words per
input byte; hashing is then a XOR-reduction of 128 table lookups, which maps
directly onto the paper's cascaded-XOR hardware estimate.

H3 is linear over GF(2): ``h(x ^ y) == h(x) ^ h(y)`` and ``h(0) == 0``.
The property-based tests exercise this invariant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Bytes in one warp register value (32 lanes x 4 bytes = 1024 bits).
WARP_REGISTER_BYTES = 128

_UINT32 = np.dtype(np.uint32)


@lru_cache(maxsize=16)
def _build_tables(bits: int, seed: int) -> np.ndarray:
    """The 128x256 tabulation table of one ``(bits, seed)`` H3 function,
    built on first use (never at import) and shared read-only by every
    hasher with those parameters."""
    rng = np.random.default_rng(seed)
    # One table per input byte position; entry 0 must be 0 for GF(2)
    # linearity, which tabulation hashing guarantees by construction:
    # table[i][b] = XOR of the 8 per-bit masks selected by b's set bits.
    bit_masks = rng.integers(
        0, 1 << 32, size=(WARP_REGISTER_BYTES, 8), dtype=np.uint32
    )
    tables = np.zeros((WARP_REGISTER_BYTES, 256), dtype=np.uint32)
    for bit in range(8):
        selected = np.arange(256) & (1 << bit) != 0
        tables[:, selected] ^= bit_masks[:, bit : bit + 1]
    tables &= np.uint32((1 << bits) - 1)
    tables.flags.writeable = False
    return tables


class H3Hash:
    """Deterministic H3 hash from 1024-bit values to ``bits``-wide signatures."""

    def __init__(self, bits: int = 32, seed: int = 0x5EED_C0DE) -> None:
        if not 1 <= bits <= 32:
            raise ValueError("hash width must be between 1 and 32 bits")
        self.bits = bits
        self._tables = _build_tables(bits, seed)
        self._positions = np.arange(WARP_REGISTER_BYTES)
        # Signature memo: warp values recur heavily (that redundancy is the
        # whole point of the paper), so identical 128-byte payloads skip the
        # table gather.  The hash is a pure function of the bytes, so the
        # memo cannot change any signature — it is bounded and cleared
        # wholesale to keep worst-case memory flat.
        self._memo: dict = {}
        self._memo_limit = 1 << 16

    def hash_value(self, value: np.ndarray) -> int:
        """Hash one warp register value (32 uint32 lanes) to a signature."""
        if (type(value) is np.ndarray and value.dtype is _UINT32
                and value.size == 32):
            # ``tobytes`` is C-order whatever the strides: the same bytes
            # the general path below hashes.
            key = value.tobytes()
        else:
            data = np.ascontiguousarray(value, dtype=np.uint32).view(np.uint8)
            if data.size != WARP_REGISTER_BYTES:
                raise ValueError(
                    f"expected {WARP_REGISTER_BYTES} bytes, got {data.size}"
                )
            key = data.tobytes()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        data = np.frombuffer(key, dtype=np.uint8)
        words = self._tables[self._positions, data]
        result = int(np.bitwise_xor.reduce(words))
        if len(self._memo) >= self._memo_limit:
            self._memo.clear()
        self._memo[key] = result
        return result

    def hash_bytes(self, data: bytes) -> int:
        """Hash a raw 128-byte buffer (convenience for tests)."""
        return self.hash_value(np.frombuffer(data, dtype=np.uint32))
