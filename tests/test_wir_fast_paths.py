"""Property tests for the per-instruction WIR fast paths.

Each fast path must compute exactly what the plain form computes: the
reuse buffer's tag -> set memo, the shared H3 tables and the byte-keyed
signature memo, the list-backed rename tables, and the byte-wise affine
classification.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.codec import decode_array, encode_array
from repro.core.affine import is_affine_value
from repro.core import reuse_buffer
from repro.core.hashing import WARP_REGISTER_BYTES, H3Hash
from repro.core.physreg import ZERO_REG, PhysicalRegisterFile
from repro.core.refcount import ReferenceCounter
from repro.core.rename import RenameTables
from repro.core.reuse_buffer import ReuseBuffer, _mix
from repro.isa.instruction import NUM_LOGICAL_REGS

_desc = st.tuples(st.sampled_from("ri"), st.integers(0, 0xFFFFFFFF))
_tag = st.tuples(st.integers(0, 200),
                 st.lists(_desc, max_size=4).map(tuple))


class TestSetMemo:
    @given(st.lists(_tag, min_size=1, max_size=60),
           st.sampled_from([1, 2, 4]), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_mix_across_clears(self, tags, assoc, limit):
        """``_set_of`` is ``_mix(tag) & (sets - 1)`` for every tag, also
        right after the memo is cleared wholesale at its bound."""
        refcount = ReferenceCounter(PhysicalRegisterFile(16))
        buffer = ReuseBuffer(64, refcount, associativity=assoc)
        sets = 64 // assoc
        saved = reuse_buffer.SET_MEMO_LIMIT
        reuse_buffer.SET_MEMO_LIMIT = limit
        try:
            for tag in tags + tags:
                assert buffer._set_of(tag) == _mix(tag) & (sets - 1)
                assert len(buffer._set_memo) <= limit
        finally:
            reuse_buffer.SET_MEMO_LIMIT = saved


def _reference_h3(bits: int, seed: int, data: bytes) -> int:
    """H3 from its definition: XOR the per-bit masks of every set bit."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << 32, size=(WARP_REGISTER_BYTES, 8),
                         dtype=np.uint32)
    out = 0
    for position, byte in enumerate(data):
        for bit in range(8):
            if byte >> bit & 1:
                out ^= int(masks[position, bit])
    return out & ((1 << bits) - 1)


_lanes = st.lists(st.integers(0, 0xFFFFFFFF), min_size=32, max_size=32)


class TestSharedH3Tables:
    @given(_lanes, st.integers(1, 32), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_equal_parameters_share_one_correct_table(self, lanes, bits, seed):
        a, b = H3Hash(bits=bits, seed=seed), H3Hash(bits=bits, seed=seed)
        assert a._tables is b._tables
        assert not a._tables.flags.writeable
        value = np.array(lanes, dtype=np.uint32)
        want = _reference_h3(bits, seed, value.tobytes())
        assert a.hash_value(value) == want
        assert b.hash_value(value) == want       # b's memo is its own

    @given(_lanes)
    @settings(max_examples=40, deadline=None)
    def test_every_input_form_hashes_as_its_uint32_lanes(self, lanes):
        """Other dtypes, byte orders, shapes and strides take the general
        path and hash exactly as the contiguous uint32 lanes."""
        plain = np.array(lanes, dtype=np.uint32)
        want = H3Hash().hash_value(plain)
        wide = np.zeros(64, dtype=np.uint32)
        wide[::2] = plain
        for form in (np.array(lanes, dtype=np.int64),
                     plain.astype(">u4"),
                     plain.reshape(4, 8),
                     wide[::2],
                     plain[::-1].copy()[::-1],
                     lanes):
            assert H3Hash().hash_value(form) == want
        assert H3Hash().hash_bytes(plain.tobytes()) == want


_slot = st.integers(0, 3)
_logical = st.integers(0, NUM_LOGICAL_REGS - 1)
_op = st.one_of(
    st.tuples(st.just("remap"), _slot, _logical),
    st.tuples(st.just("reset"), _slot, st.just(0)),
    st.tuples(st.just("pin"), _slot, _logical),
    st.tuples(st.just("unpin"), _slot, _logical),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
)


class TestListBackedRenameTables:
    @given(st.lists(_op, min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_reference(self, ops):
        """Random remap/reset/pin traffic and checkpoint round trips agree
        with an int32/bool array model, and the checkpoint bytes are the
        array encoding of that model."""
        physfile = PhysicalRegisterFile(512)
        refcount = ReferenceCounter(physfile)
        tables = RenameTables(4, refcount)
        mapping = np.full((4, NUM_LOGICAL_REGS), -1, dtype=np.int32)
        pins = np.zeros((4, NUM_LOGICAL_REGS), dtype=bool)
        for kind, slot, logical in ops:
            if kind == "remap":
                phys = physfile.allocate()
                if phys is None:
                    continue
                tables.remap(slot, logical, phys)
                mapping[slot, logical] = phys
            elif kind == "reset":
                tables.reset_slot(slot)
                mapping[slot] = -1
                pins[slot] = False
            elif kind == "pin":
                tables.set_pin(slot, logical)
                pins[slot, logical] = True
            elif kind == "unpin":
                tables.clear_pin(slot, logical)
                pins[slot, logical] = False
            else:
                state = tables.state_dict()
                assert state == {"mapping": encode_array(mapping),
                                 "pin": encode_array(pins)}
                # Slots written before the rename tallies were dropped
                # still load.
                state.update(reads=7, writes=3)
                tables = RenameTables(4, refcount)
                tables.load_state(state)
            _agree(tables, mapping, pins, slot, logical)
            refcount.check_conservation()
        for slot in range(4):
            for logical in range(NUM_LOGICAL_REGS):
                _agree(tables, mapping, pins, slot, logical)
        restored = decode_array(tables.state_dict()["mapping"])
        assert restored.dtype == np.int32 and np.array_equal(restored, mapping)


def _agree(tables, mapping, pins, slot, logical):
    phys = int(mapping[slot, logical])
    assert tables.lookup(slot, logical) == (phys if phys >= 0 else ZERO_REG)
    assert tables.is_mapped(slot, logical) is (phys >= 0)
    assert tables.pin_bit(slot, logical) is bool(pins[slot, logical])
    assert tables.mapped_registers(slot) == [
        int(p) for p in mapping[slot] if p >= 0]


class TestAffineClassification:
    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
           st.lists(st.tuples(st.integers(0, 31), st.integers(1, 0xFFFFFFFF)),
                    max_size=2),
           st.sampled_from([np.uint32, np.int64, np.uint64]))
    @settings(max_examples=80, deadline=None)
    def test_byte_compare_equals_wrapping_int64_strides(self, base, stride,
                                                        flips, dtype):
        """The byte-wise test agrees with lane differences taken in int64
        and reduced mod 2**32, on strided (wrapping) values, on values
        with lanes flipped, and on wider integer inputs."""
        lanes = (base + np.arange(32, dtype=np.uint64) * stride) & 0xFFFFFFFF
        values = lanes.astype(np.uint32)
        for lane, bits in flips:
            values[lane] ^= np.uint32(bits)
        wide = values.astype(np.int64)
        diffs = (wide[1:] - wide[:-1]) & 0xFFFFFFFF
        assert is_affine_value(values.astype(dtype)) == bool(
            (diffs == diffs[0]).all())
        if not flips:
            assert is_affine_value(values)
