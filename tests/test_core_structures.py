"""Rename tables, VSB, verify cache, and affine tracker unit tests."""

import numpy as np
import pytest

from repro.core.affine import AFFINE_PRESERVING_OPS, AffineTracker, is_affine_value
from repro.core.physreg import ZERO_REG, PhysicalRegisterFile
from repro.core.refcount import ReferenceCounter
from repro.core.rename import RenameTables
from repro.core.verify_cache import VerifyCache
from repro.core.vsb import ValueSignatureBuffer
from repro.isa.opcodes import Opcode


@pytest.fixture
def machinery():
    physfile = PhysicalRegisterFile(64)
    counter = ReferenceCounter(physfile)
    return physfile, counter


class TestRenameTables:
    def test_unmapped_reads_as_zero_register(self, machinery):
        _, counter = machinery
        tables = RenameTables(4, counter)
        assert tables.lookup(0, 5) == ZERO_REG
        assert not tables.is_mapped(0, 5)

    def test_remap_transfers_references(self, machinery):
        physfile, counter = machinery
        tables = RenameTables(4, counter)
        a, b = physfile.allocate(), physfile.allocate()
        counter.incref(a)  # transit
        tables.remap(0, 5, a)
        counter.decref(a)
        counter.incref(b)
        tables.remap(0, 5, b)
        counter.decref(b)
        # a's only reference was the table entry: it is free again, leaving
        # only b allocated (63 free at start, minus b).
        assert physfile.free_count == 62
        assert tables.lookup(0, 5) == b
        counter.check_conservation()

    def test_shared_physical_register_across_slots(self, machinery):
        physfile, counter = machinery
        tables = RenameTables(4, counter)
        reg = physfile.allocate()
        counter.incref(reg)
        tables.remap(0, 1, reg)
        tables.remap(1, 1, reg)
        tables.remap(2, 2, reg)
        counter.decref(reg)
        assert counter.count(reg) == 3
        tables.reset_slot(0)
        tables.reset_slot(1)
        assert counter.count(reg) == 1
        tables.reset_slot(2)
        assert physfile.in_use == 1

    def test_pin_bits(self, machinery):
        _, counter = machinery
        tables = RenameTables(2, counter)
        assert not tables.pin_bit(0, 3)
        tables.set_pin(0, 3)
        assert tables.pin_bit(0, 3)
        assert not tables.pin_bit(1, 3)  # per-slot isolation
        tables.clear_pin(0, 3)
        assert not tables.pin_bit(0, 3)
        tables.set_pin(1, 4)
        tables.reset_slot(1)
        assert not tables.pin_bit(1, 4)

    def test_mapped_registers_listing(self, machinery):
        physfile, counter = machinery
        tables = RenameTables(2, counter)
        a = physfile.allocate()
        counter.incref(a)
        tables.remap(0, 7, a)
        counter.decref(a)
        assert tables.mapped_registers(0) == [a]


class TestValueSignatureBuffer:
    def test_lookup_requires_full_hash_match(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(16, counter)
        reg = physfile.allocate()
        vsb.insert(0x12345678, reg)
        assert vsb.lookup(0x12345678) == reg
        # Same index (low 4 bits) but different upper bits: no match.
        assert vsb.lookup(0xABCD5678 & ~0xF | 0x8) is None

    def test_insert_evicts_and_releases(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(16, counter)
        a, b = physfile.allocate(), physfile.allocate()
        vsb.insert(0x10, a)
        vsb.insert(0x10 + 16, b)  # same index
        assert vsb.lookup(0x10) is None
        assert vsb.lookup(0x10 + 16) == b
        assert physfile.in_use == 2  # a was released
        counter.check_conservation()

    def test_zero_entries_disabled(self, machinery):
        _, counter = machinery
        vsb = ValueSignatureBuffer(0, counter)
        assert vsb.lookup(5) is None
        vsb.insert(5, 3)  # no-op, no crash
        assert vsb.stats.misses == 1

    def test_power_of_two_required(self, machinery):
        _, counter = machinery
        with pytest.raises(ValueError):
            ValueSignatureBuffer(100, counter)

    def test_evict_index_and_occupancy(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(16, counter)
        reg = physfile.allocate()
        vsb.insert(3, reg)
        assert vsb.occupancy() == 1
        assert vsb.evict_index(3)
        assert vsb.occupancy() == 0
        assert not vsb.evict_index(3)
        assert physfile.in_use == 1

    def test_hit_rate_and_false_positive_counters(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(16, counter)
        reg = physfile.allocate()
        vsb.insert(7, reg)
        vsb.lookup(7)
        vsb.lookup(8)
        assert vsb.hit_rate == pytest.approx(0.5)
        vsb.note_false_positive()
        assert vsb.stats.false_positives == 1


class TestVerifyCache:
    def test_miss_fill_hit(self):
        cache = VerifyCache(2)
        assert not cache.access(5)
        assert cache.access(5)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = VerifyCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)   # refresh 1
        cache.access(3)   # evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_write_invalidates(self):
        cache = VerifyCache(2)
        cache.access(4)
        cache.invalidate(4)
        assert not cache.access(4)
        assert cache.stats.invalidations == 1

    def test_disabled_cache_never_hits(self):
        cache = VerifyCache(0)
        assert not cache.enabled
        assert not cache.access(1)
        assert not cache.access(1)
        assert cache.stats.accesses == 0

    def test_negative_size_disables_the_cache(self):
        cache = VerifyCache(-3)
        assert not cache.enabled
        assert not cache.access(1)
        assert not cache.access(1)
        cache.invalidate(1)
        assert cache.stats.accesses == 0
        assert cache.stats.invalidations == 0


class TestAffine:
    def test_is_affine_value_cases(self):
        assert is_affine_value(np.arange(32, dtype=np.uint32))
        assert is_affine_value(np.full(32, 9, dtype=np.uint32))
        assert is_affine_value((np.arange(32, dtype=np.int64) * -3 & 0xFFFFFFFF
                                ).astype(np.uint32))
        bad = np.arange(32, dtype=np.uint32)
        bad[7] += 1
        assert not is_affine_value(bad)

    def test_wraparound_stride_is_affine(self):
        # base + lane*stride in 32-bit arithmetic may wrap and is still a
        # representable tuple.
        values = (np.uint32(0xFFFFFFF0) + np.arange(32, dtype=np.uint32) * 3)
        assert is_affine_value(values)

    def test_tracker_records_and_queries(self):
        tracker = AffineTracker(enabled=True)
        assert tracker.record_write(1, np.arange(32, dtype=np.uint32),
                                    opcode=Opcode.ADD)
        assert tracker.is_affine(1)
        rng = np.random.default_rng(0)
        assert not tracker.record_write(
            2, rng.integers(0, 99999, 32).astype(np.uint32), opcode=Opcode.ADD)
        assert not tracker.is_affine(2)
        assert tracker.all_affine([1]) and not tracker.all_affine([1, 2])

    def test_non_affine_op_forces_full_width(self):
        tracker = AffineTracker(enabled=True)
        affine_values = np.arange(32, dtype=np.uint32)
        assert not tracker.record_write(3, affine_values, opcode=Opcode.MAD)

    def test_partial_write_is_conservative(self):
        tracker = AffineTracker(enabled=True)
        tracker.record_write(1, np.arange(32, dtype=np.uint32), opcode=Opcode.ADD)
        tracker.record_partial_write(1)
        assert not tracker.is_affine(1)

    def test_disabled_tracker(self):
        tracker = AffineTracker(enabled=False)
        assert not tracker.record_write(1, np.zeros(32, dtype=np.uint32))
        assert not tracker.is_affine(1)
        assert not tracker.all_affine([1])

    def test_unwritten_defaults_affine(self):
        tracker = AffineTracker(enabled=True)
        assert tracker.is_affine(42)  # registers start as all-zero: affine

    def test_affine_preserving_set_matches_paper(self):
        assert Opcode.MOV in AFFINE_PRESERVING_OPS
        assert Opcode.ADD in AFFINE_PRESERVING_OPS
        assert Opcode.MUL in AFFINE_PRESERVING_OPS
        assert Opcode.FMAD not in AFFINE_PRESERVING_OPS
        assert Opcode.RCP not in AFFINE_PRESERVING_OPS
