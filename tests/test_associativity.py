"""Set-associative VSB / reuse-buffer organisation (the paper's rejected
alternative, Sections V-A and V-C)."""

import numpy as np
import pytest

from repro.core.physreg import PhysicalRegisterFile
from repro.core.refcount import ReferenceCounter
from repro.core.reuse_buffer import NULL_TBID, ReuseBuffer, Waiter
from repro.core.vsb import ValueSignatureBuffer
from tests.conftest import OUT, SIMPLE_ARITH, run_kernel


@pytest.fixture
def machinery():
    physfile = PhysicalRegisterFile(256)
    counter = ReferenceCounter(physfile)
    return physfile, counter


class TestAssociativeVSB:
    def test_conflicting_hashes_coexist(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(16, counter, associativity=4)  # 4 sets
        regs = [physfile.allocate() for _ in range(3)]
        # Three hashes mapping to the same set (same low bits).
        hashes = [0x4, 0x4 + 4 * 16, 0x4 + 8 * 16]
        for h, reg in zip(hashes, regs):
            vsb.insert(h, reg)
        for h, reg in zip(hashes, regs):
            assert vsb.lookup(h) == reg
        # A direct-indexed buffer keeps only the last one.
        direct = ValueSignatureBuffer(16, counter, associativity=1)
        for h, reg in zip(hashes, regs):
            direct.insert(h, reg)
        assert direct.lookup(hashes[0]) is None
        assert direct.lookup(hashes[2]) == regs[2]

    def test_lru_within_set(self, machinery):
        physfile, counter = machinery
        vsb = ValueSignatureBuffer(8, counter, associativity=2)  # 4 sets x 2
        a, b, c = (physfile.allocate() for _ in range(3))
        vsb.insert(0x1, a)
        vsb.insert(0x1 + 4, b)      # same set
        vsb.lookup(0x1)             # refresh a
        vsb.insert(0x1 + 8, c)      # evicts b (LRU)
        assert vsb.lookup(0x1) == a
        assert vsb.lookup(0x1 + 4) is None
        assert vsb.lookup(0x1 + 8) == c
        counter.check_conservation()

    def test_invalid_associativity_rejected(self, machinery):
        _, counter = machinery
        with pytest.raises(ValueError):
            ValueSignatureBuffer(16, counter, associativity=3)
        with pytest.raises(ValueError):
            ValueSignatureBuffer(16, counter, associativity=0)


class TestAssociativeReuseBuffer:
    def make(self, counter, assoc):
        return ReuseBuffer(16, counter, associativity=assoc)

    def _fill(self, buffer, tag, reg):
        index, token = buffer.reserve(tag, False, 0, NULL_TBID)
        buffer.fill(index, token, reg)

    def test_conflicting_tags_coexist(self, machinery):
        physfile, counter = machinery
        buffer = self.make(counter, assoc=4)
        # Find three distinct tags mapping to the same set.
        tags = []
        want_set = None
        reg = 1
        while len(tags) < 3:
            counter.incref(reg)
            tag = (3, (("r", reg),))
            set_index = buffer.index_of(tag)
            if want_set is None:
                want_set = set_index
            if set_index == want_set:
                tags.append(tag)
            reg += 1
        results = []
        for tag in tags:
            result = physfile.allocate()
            counter.incref(result)
            self._fill(buffer, tag, result)
            results.append(result)
        for tag, result in zip(tags, results):
            outcome, got, _ = buffer.lookup(tag, False, 0, 0, False)
            assert outcome == "hit" and got == result

    def _same_set_tags(self, buffer, counter, count):
        tags, want_set, reg = [], None, 1
        while len(tags) < count:
            counter.incref(reg)
            tag = (3, (("r", reg),))
            if want_set is None:
                want_set = buffer.index_of(tag)
            if buffer.index_of(tag) == want_set:
                tags.append(tag)
            reg += 1
        return tags, want_set // buffer.associativity

    def test_probe_reorders_the_set_it_walks(self, machinery):
        """``lookup`` walks the set's LRU order without copying it; a hit or
        a queued waiter reorders that order and returns at once, so every
        way is still found and recency stays exact."""
        physfile, counter = machinery
        buffer = self.make(counter, assoc=4)
        tags, set_index = self._same_set_tags(buffer, counter, 5)
        results = {}
        for tag in tags[:3]:
            results[tag] = physfile.allocate()
            counter.incref(results[tag])
            self._fill(buffer, tag, results[tag])
        buffer.reserve(tags[3], False, 0, NULL_TBID)   # pending, 4th way
        first = buffer._lru[set_index][0]
        for tag in (tags[2], tags[0], tags[1], tags[2]):
            outcome, got, slot = buffer.lookup(tag, False, 0, 0, False)
            assert (outcome, got) == ("hit", results[tag])
            assert buffer._lru[set_index][-1] == slot
        waiter = Waiter(lambda reg: None)
        outcome, _, slot = buffer.lookup(tags[3], False, 0, 0, True,
                                         make_waiter=lambda: waiter)
        assert outcome == "queued" and buffer._lru[set_index][-1] == slot
        assert buffer._lru[set_index][0] == first   # tags[0]'s way again
        assert sorted(buffer._lru[set_index]) == list(
            range(set_index * 4, set_index * 4 + 4))
        # The LRU way (tags[0]'s, probed longest ago) is the next victim.
        buffer.reserve(tags[4], False, 0, NULL_TBID)
        assert buffer.lookup(tags[0], False, 0, 0, False)[0] == "miss"
        assert buffer.lookup(tags[1], False, 0, 0, False)[0] == "hit"
        buffer.check_invariants(counter)

    def test_kernel_level_effect_is_marginal(self):
        """The paper's observation: associative search adds little.

        A 4-way buffer may recover some conflict misses but the reuse rate
        moves by at most a few points on a real kernel.
        """
        direct, _ = run_kernel(SIMPLE_ARITH, grid=8, block=64, model="RLPV",
                               reuse_buffer_entries=32)
        assoc, _ = run_kernel(SIMPLE_ARITH, grid=8, block=64, model="RLPV",
                              reuse_buffer_entries=32,
                              reuse_buffer_associativity=4,
                              vsb_associativity=4)
        assert assoc.reuse_fraction >= direct.reuse_fraction - 0.02
        assert abs(assoc.reuse_fraction - direct.reuse_fraction) < 0.25
        # And architectural state is unaffected either way.
        _, img_a = run_kernel(SIMPLE_ARITH, grid=8, block=64, model="RLPV",
                              reuse_buffer_associativity=4)
        _, img_b = run_kernel(SIMPLE_ARITH, grid=8, block=64, model="Base")
        assert np.array_equal(img_a.global_mem.read_block(OUT, 8 * 64),
                              img_b.global_mem.read_block(OUT, 8 * 64))
