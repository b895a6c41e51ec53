"""Stage-conformance suite: every registered pipeline stage must honour the
declared-dataflow, observer-purity, and checkpoint contracts of
:class:`repro.pipeline.base.Stage` (DESIGN.md §13)."""

import json

import pytest

from repro import Dim3, MemoryImage, assemble
from repro.pipeline import (
    EXTERNAL_INPUTS,
    STAGE_REGISTRY,
    PipelineWiringError,
    Stage,
    register_stage,
)
from repro.pipeline.spec import PipelineSpec
from repro.sim.grid import BlockDescriptor
from repro.sim.memory.subsystem import MemorySubsystem
from repro.sim.smcore import SMCore
from tests.conftest import SIMPLE_ARITH, make_config

STAGE_NAMES = list(STAGE_REGISTRY)

#: A tag-heavy kernel: repeated identical computations exercise the reuse
#: probe, allocate/verify, and commit paths, not just the bypass path.
REUSE_KERNEL = """
    mov   r0, %tid.x
    and   r1, r0, 3
    mul   r2, r1, 5
    add   r3, r2, 9
    mul   r2, r1, 5
    add   r3, r2, 9
    shl   r4, r0, 2
    st.global -, [r4], r3
    exit
"""


def make_sm(model="RLPV", engine="scalar", source=SIMPLE_ARITH):
    config = make_config(model)
    config.exec_engine = engine
    subsystem = MemorySubsystem(config, MemoryImage())
    return SMCore(0, config, assemble(source), subsystem)


def drive(sm, num_blocks=2, threads=64):
    """Dispatch *num_blocks* and tick the SM to completion (the GPU loop's
    single-SM skeleton, including the idle fast-forward)."""
    for block_id in range(num_blocks):
        sm.dispatch_block(BlockDescriptor(block_id, (block_id, 0, 0),
                                          Dim3(threads), Dim3(num_blocks)))
    cycle = 0
    while sm.busy():
        if sm.tick(cycle):
            cycle += 1
        else:
            wake = sm.next_wake()
            assert wake is not None, "SM idle forever with work pending"
            cycle = max(cycle + 1, wake)
        assert cycle < 200_000
    return cycle


class RecorderView:
    """Minimal trace view capturing the hook calls stages make."""

    def __init__(self):
        self.events = []

    def wir_event(self, slot, name, payload):
        self.events.append(("wir", slot, name, dict(payload)))

    def end_inst(self, slot, inst):
        self.events.append(("end", slot, inst.pc))


# ------------------------------------------------------------- declarations


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_declared_dataflow_is_satisfied(name):
    """Each stage's inputs must be produced upstream (or be external)."""
    produced = set(EXTERNAL_INPUTS)
    for stage_name, cls in STAGE_REGISTRY.items():
        if stage_name == name:
            missing = set(cls.inputs) - produced
            assert not missing, f"{name} consumes undeclared {missing}"
            break
        produced.update(cls.outputs)


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_declarations_are_tuples_of_names(name):
    cls = STAGE_REGISTRY[name]
    for attr in ("inputs", "outputs", "STATE_FIELDS", "stat_paths"):
        value = getattr(cls, attr)
        assert isinstance(value, tuple)
        assert all(isinstance(item, str) for item in value)


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_describe_shape(name):
    sm = make_sm()
    desc = sm.pipeline.by_name[name].describe()
    assert desc["name"] == name
    assert set(desc) >= {"name", "inputs", "outputs", "state_fields",
                         "stats", "binding"}
    cls = STAGE_REGISTRY[name]
    assert desc["inputs"] == list(cls.inputs)
    assert desc["outputs"] == list(cls.outputs)


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_stat_paths_resolve(name):
    """Every declared stat path names a live stat under the SM's tree
    (wildcard tails assert the component group exists)."""
    sm = make_sm(model="RLPV")
    for path in STAGE_REGISTRY[name].stat_paths:
        parts = path.split(".")
        group = sm.stats
        for part in parts[:-1]:
            assert part in group.children, f"{path}: no group {part!r}"
            group = group.children[part]
        if parts[-1] != "*":
            group.handle(parts[-1])  # raises StatLookupError if absent


def test_stage_stats_registered_under_stage_namespace():
    sm = make_sm(model="RLPV")
    stage_group = sm.stats.children["stage"]
    assert stage_group.children["reuse_probe"].handle("retry_wakeups") is not None


# ----------------------------------------------------------------- wiring


def test_build_pipeline_registry_order():
    sm = make_sm()
    assert [stage.name for stage in sm.pipeline.stages] == STAGE_NAMES


def test_wiring_validation_rejects_unproduced_input():
    class Orphan(Stage):
        name = "orphan"
        inputs = ("no_such_value",)

    sm = make_sm()
    broken = PipelineSpec([*sm.pipeline.stages, Orphan(sm, sm.pipeline.stats.group("x"))],
                          sm.pipeline.stats)
    with pytest.raises(PipelineWiringError, match="no_such_value"):
        broken.validate()


def test_register_stage_rejects_duplicate_name():
    with pytest.raises(TypeError, match="duplicate stage name"):
        @register_stage
        class Dup(Stage):  # noqa: F811
            name = "rename"


# ----------------------------------------------------------- observer purity


@pytest.mark.parametrize("name", STAGE_NAMES)
@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_observer_purity(name, engine):
    """Attaching a tracer to one stage never changes timing or stats."""
    plain = make_sm(engine=engine, source=REUSE_KERNEL)
    traced = make_sm(engine=engine, source=REUSE_KERNEL)
    view = RecorderView()
    traced.pipeline.by_name[name].attach_tracer(view)

    cycles_plain = drive(plain)
    cycles_traced = drive(traced)

    assert cycles_traced == cycles_plain
    assert traced.stats.to_dict() == plain.stats.to_dict()


def test_reuse_kernel_actually_reuses():
    """Guard: the purity kernel exercises the reuse path, so the purity
    assertions above cover hit/commit hooks rather than trivially passing."""
    sm = make_sm(source=REUSE_KERNEL)
    drive(sm)
    assert sm.counters.reused > 0


# ------------------------------------------------------------- state_dict


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_state_dict_roundtrip(name):
    """state_dict covers exactly STATE_FIELDS and survives JSON + load."""
    sm = make_sm(engine="fast")
    drive(sm, num_blocks=1)
    stage = sm.pipeline.by_name[name]
    state = stage.state_dict()
    assert set(state) == set(stage.STATE_FIELDS)
    restored = json.loads(json.dumps(state))
    stage.load_state(restored)
    assert stage.state_dict() == state


def test_pipeline_state_dict_only_stateful_stages():
    sm = make_sm()
    doc = sm.pipeline.state_dict()
    assert set(doc) == {name for name, cls in STAGE_REGISTRY.items()
                        if cls.STATE_FIELDS}
    json.dumps(doc)  # the sub-document must be JSON-native


def test_execute_stage_state_restores_in_place():
    """load_state must mutate the live sp_free list (the select stage holds
    a direct reference), never replace it."""
    sm = make_sm()
    execute = sm.pipeline.execute
    alias = execute.sp_free
    state = execute.state_dict()
    state["sp_free"] = [v + 17 for v in state["sp_free"]]
    execute.load_state(state)
    assert execute.sp_free is alias
    assert alias == state["sp_free"]
