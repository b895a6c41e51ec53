"""Pipeline composition: wire registered stages into one validated spec.

:func:`build_pipeline` instantiates every class in
:data:`~repro.pipeline.base.STAGE_REGISTRY` (in registration order — the
paper's pipeline order), runs the two-phase bind (construct all, then
resolve cross-stage references), and validates the declared dataflow.  Both
executors consume the result: the scalar oracle walks the stages through
``SMCore``'s event loop, the fast engine calls the same stage objects
through bound-method references cached at SM construction (DESIGN.md §13).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.pipeline.base import STAGE_REGISTRY, Stage
from repro.stats import StatGroup

#: Dataflow values produced outside the stage pipeline: the fetch/decode
#: front end supplies the instruction stream and the architectural warp
#: contexts; the event loop supplies time.
EXTERNAL_INPUTS = frozenset({"warps", "scoreboard", "inst", "cycle"})


class PipelineWiringError(Exception):
    """A stage consumes a value no earlier stage (or external input) produces."""


class PipelineSpec:
    """An ordered, validated composition of constructed stages.

    Stages are reachable by attribute (``spec.reuse_probe``) and by
    iteration; :meth:`state_dict` / :meth:`load_state` aggregate the
    stages' inherited checkpoint hooks, so the SM core serializes the whole
    pipeline as one sub-document.
    """

    def __init__(self, stages: Iterable[Stage], stats: StatGroup) -> None:
        self.stages: List[Stage] = list(stages)
        #: The shared ``stage`` stats subtree (adopted into the SM's tree).
        self.stats = stats
        self.by_name = {}
        for stage in self.stages:
            self.by_name[stage.name] = stage
            setattr(self, stage.name, stage)

    def validate(self) -> None:
        """Check every declared input is produced upstream (fail fast)."""
        produced = set(EXTERNAL_INPUTS)
        for stage in self.stages:
            missing = [name for name in stage.inputs if name not in produced]
            if missing:
                raise PipelineWiringError(
                    f"stage {stage.name!r} consumes {missing} but only "
                    f"{sorted(produced)} are produced upstream")
            produced.update(stage.outputs)

    def attach_tracer(self, view) -> None:
        """Install the SM's trace view on every stage (observer only)."""
        for stage in self.stages:
            stage.attach_tracer(view)

    # ---------------------------------------------------------- checkpointing

    def state_dict(self) -> dict:
        """Per-stage snapshots (stages without state are omitted)."""
        return {stage.name: stage.state_dict()
                for stage in self.stages if stage.STATE_FIELDS}

    def load_state(self, state: dict) -> None:
        for stage in self.stages:
            if stage.STATE_FIELDS:
                stage.load_state(state[stage.name])

    # ------------------------------------------------------------- description

    def describe(self) -> List[dict]:
        """Stage descriptions in pipeline order (``repro pipeline show``)."""
        return [stage.describe() for stage in self.stages]


def build_pipeline(core) -> PipelineSpec:
    """Construct, bind, and validate the stage pipeline for one SM core."""
    stats = StatGroup("stage")
    stages = [cls(core, stats) for cls in STAGE_REGISTRY.values()]
    spec = PipelineSpec(stages, stats)
    for stage in stages:
        stage.bind(spec)
    spec.validate()
    return spec
