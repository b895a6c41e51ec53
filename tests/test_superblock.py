"""Property suite for superblock trace compilation (DESIGN.md §16).

Three walls:

* **Formation** — on random kernels with branches, barriers, and guarded
  instructions, every compiled range is straight-line (cut at control
  flow, sync, leaders, and reconvergence points), guarded instructions
  only ever form ``(pc, pc + 1)`` singletons, and ranges are maximal.
* **Caching** — compiled tables are keyed by program *identity* and
  config digest: distinct digests and distinct (even textually equal)
  programs never alias; the same key returns the cached table.
* **Equivalence** — the generated row evaluators produce rows
  bit-identical (values *and* dtypes) to the scalar oracle
  ``exec_engine.execute`` committing instruction by instruction, on
  random register/predicate/mask state, at every block-local entry index
  (segment heads, mid-segment entry after a restore, guarded singletons),
  and whole random programs run cycle- and output-identical on both
  engines.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Dim3, KernelLaunch, MemoryImage, assemble, model_config
from repro.isa.opcodes import OpClass
from repro.isa.program import EXIT_PC
from repro.sim.exec_engine import execute
from repro.sim.gpu import GPU
from repro.sim.grid import WARP_SIZE
from repro.sim.superblock import (block_leaders, compiled_table,
                                  is_compilable, is_guard_compilable,
                                  superblock_ranges)
from repro.sim.warp import StackEntry, Warp
from tests.test_properties import OUT, random_kernel

#: An arbitrary but fixed config digest; the row evaluators under test are
#: digest-independent (timing constants only feed the step closures).
DIGEST = (1, 4, 8, 4, 4)

_BINOPS = ["add", "sub", "mul", "xor", "and", "or", "min", "max"]


@st.composite
def random_cfg_kernel(draw):
    """A random kernel mixing straight-line runs with branches, barriers,
    guarded instructions, and loads — every cut reason the formation rules
    name.  Only assembled (never run), so uninitialised state is fine."""
    lines = ["    mov r0, %tid.x", "    setp.lt p0, r0, 16"]
    n_chunks = draw(st.integers(1, 5))
    for chunk in range(n_chunks):
        for _ in range(draw(st.integers(1, 6))):
            op = draw(st.sampled_from(_BINOPS))
            dst = draw(st.integers(1, 9))
            a, b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
            lines.append(f"    {op} r{dst}, r{a}, r{b}")
        cut = draw(st.integers(0, 4))
        if cut == 0:
            lines.append(f"@p0 bra L{chunk}")
            lines.append(f"L{chunk}:")
        elif cut == 1:
            lines.append("    bar.sync")
        elif cut == 2:
            lines.append(f"@p0 add r{draw(st.integers(1, 9))}, r0, 1")
        elif cut == 3:
            lines.append("    mov r10, 4096")
            lines.append(f"    ld.global r{draw(st.integers(1, 9))}, [r10]")
        # cut == 4: plain fallthrough, runs merge.
    lines.append("    exit")
    return "\n".join(lines)


# ----------------------------------------------------------------- formation

@given(random_cfg_kernel())
@settings(max_examples=50, deadline=None)
def test_ranges_are_straight_line_and_maximal(source):
    program = assemble(source, name="sb-formation")
    leaders = block_leaders(program)
    insts = program.instructions
    ranges = superblock_ranges(program)

    for start, end in ranges:
        assert 0 <= start < end <= len(insts), (start, end)
        if end - start > 1:
            # Multi-instruction runs contain only unguarded compilable
            # instructions and are never entered mid-run by a jump.
            for pc in range(start, end):
                assert is_compilable(insts[pc]), source
                assert pc == start or pc not in leaders, source
        # Maximality: whatever ends the range is a genuine cut reason —
        # program end, a leader, a non-compilable instruction, or (for a
        # guarded singleton) the guard itself.
        if insts[start].guard is not None:
            assert (start, end) == (start, start + 1), source
        elif end < len(insts):
            assert end in leaders or not is_compilable(insts[end]), source

    # Ranges never overlap, and every guard-compilable pc has a singleton.
    covered = sorted(pc for s, e in ranges for pc in range(s, e))
    assert len(covered) == len(set(covered)), source
    for pc, inst in enumerate(insts):
        if is_guard_compilable(inst):
            assert (pc, pc + 1) in ranges, source
        if inst.op_class in (OpClass.CONTROL, OpClass.SYNC):
            assert pc not in covered, source


@given(random_cfg_kernel())
@settings(max_examples=25, deadline=None)
def test_guarded_instructions_never_join_a_block(source):
    program = assemble(source, name="sb-guards")
    table = compiled_table(program, DIGEST)
    for pc, inst in enumerate(program.instructions):
        slotted = table[pc]
        if inst.guard is not None and slotted is not None:
            block, idx = slotted
            assert (block.start, block.end, idx) == (pc, pc + 1, 0), source


# ------------------------------------------------------------------- caching

def test_cache_keys_never_alias():
    source = "\n".join(["    mov r0, %tid.x", "    add r1, r0, r0",
                        "    mul r2, r1, r0", "    exit"])
    program = assemble(source, name="sb-cache")
    table_a = compiled_table(program, DIGEST)
    # Same (program identity, digest): the cached table itself.
    assert compiled_table(program, DIGEST) is table_a
    # A different digest compiles fresh blocks (timing constants are baked
    # into the step closures, so sharing would corrupt timing).
    other = (2,) + DIGEST[1:]
    table_b = compiled_table(program, other)
    assert table_b is not table_a
    blocks_a = {id(b) for e in table_a if e for b in [e[0]]}
    blocks_b = {id(b) for e in table_b if e for b in [e[0]]}
    assert not blocks_a & blocks_b
    # A textually identical but distinct program never shares tables:
    # the cache is keyed by identity, not value.
    twin = assemble(source, name="sb-cache-twin")
    assert compiled_table(twin, DIGEST) is not table_a


# --------------------------------------------------------------- equivalence

class FakeWarp:
    """The slice of ``Warp`` the row evaluators and the scalar oracle read:
    random registers and predicates under a one-entry SIMT stack."""

    read_reg = Warp.read_reg
    read_pred = Warp.read_pred
    write_reg = Warp.write_reg
    write_pred = Warp.write_pred
    guard_mask = Warp.guard_mask
    active_mask = Warp.active_mask

    def __init__(self, rng, mask):
        self.registers = rng.integers(0, 2**32, (63, WARP_SIZE),
                                      dtype=np.uint32)
        self.predicates = rng.integers(0, 2, (8, WARP_SIZE)).astype(bool)
        self.stack = [StackEntry(mask=mask, pc=0, reconv_pc=EXIT_PC)]
        self._tid = np.arange(WARP_SIZE, dtype=np.uint32)

    def special_value(self, name):
        if name == "%tid.x":
            return self._tid
        return np.full(WARP_SIZE, 3, dtype=np.uint32)

    def copy(self):
        twin = copy.copy(self)
        twin.registers = self.registers.copy()
        twin.predicates = self.predicates.copy()
        return twin


def _entry_mask(rng, full):
    """``(stack mask, entry mask)``: the entry mask is ``None`` for a full
    warp, exactly as ``SuperblockRuntime.try_issue`` passes it."""
    if full:
        return np.ones(WARP_SIZE, dtype=bool), None
    mask = rng.integers(0, 2, WARP_SIZE).astype(bool)
    return mask, (None if mask.all() else mask)


def _oracle_row(program, pc, warp):
    """Issue *pc* through the scalar oracle ``execute``, commit its result
    into *warp* as the per-instruction path does, and return the row its
    compiled step must receive: the committed value of an unguarded
    register or predicate write (steps commit it full-width), the raw
    result of a guarded singleton (its step wrapper masks at issue), and
    the address (and store value) vectors of a memory access.  A segment
    ends at its only load, so no loaded value is ever needed."""
    inst = program.instructions[pc]
    res = execute(inst, warp)
    if inst.op_class is OpClass.LOAD:
        return res.addresses
    if inst.op_class is OpClass.STORE:
        return (res.addresses, res.store_values)
    dst = inst.dst.value
    if inst.writes_predicate:
        raw = res.pred_result
        warp.write_pred(dst, raw, res.mask)
        committed = warp.predicates[dst]
    else:
        raw = res.result
        warp.write_reg(dst, raw, res.mask)
        committed = warp.registers[dst]
    return raw if inst.guard is not None else committed.copy()


def _assert_rows_equal(got, want, context):
    assert got.keys() == want.keys(), context
    for pc, got_row in got.items():
        want_row = want[pc]
        if isinstance(want_row, tuple):  # store rows: (addresses, values)
            pairs = zip(got_row, want_row)
        else:
            pairs = [(got_row, want_row)]
        for g, w in pairs:
            assert g.dtype == w.dtype, (context, pc)
            assert np.array_equal(g, w), (context, pc)


def _blocks(table):
    seen = {}
    for entry in table:
        if entry is not None:
            seen.setdefault(id(entry[0]), entry[0])
    return list(seen.values())


def _segment_heads(block):
    heads, idx = [], 0
    while idx < block.end - block.start:
        heads.append(idx)
        idx = block._seg_end[idx]
    return heads


#: Guarantees a guarded singleton (``@p0 add``) under a partial mask.
_GUARDED = ("    mov r0, %tid.x\n    setp.lt p0, r0, 9\n    mov r6, 3\n"
            "@p0 add r6, r0, 11\n    add r7, r6, r0\n    exit")


@given(random_kernel(), st.integers(0, 2**31))
@example(_GUARDED, 5)
@settings(max_examples=30, deadline=None)
def test_fused_segments_match_per_instruction_rows(source, seed):
    """Entered at a segment head — guarded singletons included — the
    generated evaluator yields exactly the rows the scalar oracle commits
    instruction by instruction, values and dtypes, on random register and
    predicate state under full and masked entry."""
    program = assemble(source, name="sb-eval")
    checked = 0
    for block in _blocks(compiled_table(program, DIGEST)):
        assert not block._seg_fn, "evaluators compile on first entry"
        for head in _segment_heads(block):
            for full in (True, False):
                rng = np.random.default_rng(seed ^ (head + 1))
                stack_mask, mask = _entry_mask(rng, full)
                warp = FakeWarp(rng, stack_mask)
                got = {}
                block.eval_rows(warp.copy(), head, mask, got)
                want = {block.start + i: _oracle_row(
                            program, block.start + i, warp)
                        for i in range(head, block._seg_end[head])}
                _assert_rows_equal(got, want, (source, block.start, head))
                checked += 1
    assert checked, source


@given(random_kernel(), st.integers(0, 2**31))
@example(_GUARDED, 5)
@settings(max_examples=15, deadline=None)
def test_mid_segment_entry_matches_fused_suffix(source, seed):
    """The checkpoint-restore and ``invalidate()`` path: once the oracle
    has committed a segment's prefix, entering at any later index of the
    segment yields exactly the oracle's remaining rows — the suffix of the
    rows the segment head's evaluator produced — under full and masked
    entry."""
    program = assemble(source, name="sb-resume")
    checked = 0
    for block in _blocks(compiled_table(program, DIGEST)):
        for head in _segment_heads(block):
            end = block._seg_end[head]
            for full in (True, False):
                rng = np.random.default_rng(seed ^ (head + 1))
                stack_mask, mask = _entry_mask(rng, full)
                warp = FakeWarp(rng, stack_mask)
                fused = {}
                block.eval_rows(warp.copy(), head, mask, fused)
                # One oracle pass over the segment, snapshotting the warp
                # before each instruction: the state a restore resumes from.
                before, want = {}, {}
                for i in range(head, end):
                    before[i] = warp.copy()
                    want[block.start + i] = _oracle_row(
                        program, block.start + i, warp)
                for cut in range(head + 1, end):
                    got = {}
                    block.eval_rows(before[cut], cut, mask, got)
                    suffix = {pc: want[pc] for pc in got}
                    context = (source, block.start, cut, full)
                    _assert_rows_equal(got, suffix, context)
                    _assert_rows_equal({pc: fused[pc] for pc in got},
                                       suffix, context)
                    checked += 1
    assert checked, source


def _run_cycles(source, engine, **trace):
    config = model_config("Base")
    config.num_sms = 2
    config.exec_engine = engine
    for key, value in trace.items():
        setattr(config.trace, key, value)
    image = MemoryImage()
    image.global_mem.write_block(4096, np.arange(16, dtype=np.uint32))
    program = assemble(source, name="sb-run")
    launch = KernelLaunch(program, Dim3(2), Dim3(64), image)
    result = GPU(config).run(launch)
    return result.cycles, image.global_mem.read_block(OUT, 2 * 64)


@given(random_kernel())
@settings(max_examples=8, deadline=None)
def test_random_programs_identical_across_engines(source):
    """Compile→execute equals instruction-by-instruction, end to end."""
    cycles, out = _run_cycles(source, "scalar")
    got_cycles, got_out = _run_cycles(source, "fast")
    assert got_cycles == cycles, source
    assert np.array_equal(got_out, out), source


def test_observers_do_not_change_cycles():
    """Acceptance criterion: enabling an observer forces the fast engine
    onto the per-instruction path without moving a single cycle."""
    source = ("    mov r0, %tid.x\n    add r1, r0, 7\n    mul r2, r1, 3\n"
              "    shl r3, r0, 2\n    add r3, r3, " + str(OUT) +
              "\n    st.global -, [r3], r2\n    exit")
    plain, out = _run_cycles(source, "fast")
    observed, out2 = _run_cycles(source, "fast", stalls=True)
    assert observed == plain
    assert np.array_equal(out, out2)


@pytest.mark.parametrize("model, off", [("Base", False), ("RLPV", True),
                                        ("Affine", True)])
def test_table_off_stops_offering_issues(monkeypatch, model, off):
    """With the compiled table off (a live WIR unit or affine tracking) the
    runtime is only asked during the first issuing cycle (once per
    scheduler) and then never again, so those runs pay nothing for it;
    with it on, every backend issue goes through it."""
    from repro.sim.superblock import SuperblockRuntime

    calls = []
    original = SuperblockRuntime.try_issue

    def counting(self, slot, warp, cycle):
        calls.append(slot)
        return original(self, slot, warp, cycle)

    monkeypatch.setattr(SuperblockRuntime, "try_issue", counting)
    config = model_config(model)
    config.num_sms = 2
    source = ("    mov r0, %tid.x\n    add r1, r0, 7\n    mul r2, r1, 3\n"
              "    shl r3, r0, 2\n    add r3, r3, " + str(OUT) +
              "\n    st.global -, [r3], r2\n    exit")
    launch = KernelLaunch(assemble(source, name="sb-off"), Dim3(2),
                          Dim3(64), MemoryImage())
    GPU(config).run(launch)
    first_cycle = config.num_sms * config.num_schedulers
    if off:
        assert len(calls) <= first_cycle
    else:
        assert len(calls) > first_cycle


def test_quarantine_rearms_block_dispatch():
    """A quarantine flush stops the WIR probes, so the runtime must be
    offered issues again and compile its table at the next one."""
    from repro.sim.memory.subsystem import MemorySubsystem
    from repro.sim.smcore import SMCore

    config = model_config("RLPV")
    sm = SMCore(0, config, assemble("    mov r0, %tid.x\n    exit"),
                MemorySubsystem(config, MemoryImage()))
    runtime = sm._superblock
    assert runtime._refresh() is runtime._off
    assert sm._sb_live is None
    sm.quarantine_wir("test")
    assert sm._sb_live is runtime
    assert runtime._refresh() is not runtime._off
