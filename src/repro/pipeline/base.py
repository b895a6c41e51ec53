"""Typed pipeline-stage contract shared by both execution engines.

A :class:`Stage` is one step of the WIR pipeline — rename, reuse probe,
operand read, execute, allocate/verify, writeback/retire — expressed as a
small class with a *declared* dataflow interface:

* ``inputs`` / ``outputs`` name the values the stage consumes and produces.
  :meth:`repro.pipeline.spec.PipelineSpec.validate` checks at composition
  time that every input is produced by an earlier stage (or is an external
  input of the pipeline), so a mis-ordered or mis-wired variant fails fast
  instead of silently computing garbage.
* ``STATE_FIELDS`` names the attributes that constitute the stage's
  architectural state.  The base class derives :meth:`state_dict` /
  :meth:`load_state` from the declaration, so no stage hand-writes
  checkpoint plumbing — and list-valued fields are restored *in place*,
  because sibling stages cache direct references to them (DESIGN.md §12).
* Stat hooks: :meth:`counter` registers a stage-owned counter under the
  SM's ``stage.<name>.*`` namespace and returns the raw
  :class:`~repro.stats.registry.Counter` handle (preloaded access — the
  one-helper replacement for the per-callsite ``_stats`` lookups the
  vector fast path used to open-code).  ``stat_paths`` additionally lists
  pre-existing SM stats the stage updates, for ``repro pipeline show``.
* Tracer hooks: :meth:`attach_tracer` installs the per-SM trace view;
  stages must treat ``self.tracer is None`` as "observability off" and
  emit nothing (observer purity — a traced run is bit-identical to an
  untraced one; the conformance suite enforces this).

Stages are constructed against a live :class:`~repro.sim.smcore.SMCore`
and may cache references to core structures (register file, scoreboard,
stat counters) — that caching is exactly how the fast engine's fused
implementations keep their speed while sharing one decision path with the
scalar oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.stats import StatGroup
from repro.stats.registry import Counter

#: Registered stage classes in pipeline order (declaration order of the
#: ``@register_stage`` decorators; :func:`repro.pipeline.spec.build_pipeline`
#: instantiates them in this order).
STAGE_REGISTRY: Dict[str, Type["Stage"]] = {}


def register_stage(cls: Type["Stage"]) -> Type["Stage"]:
    """Class decorator adding a concrete stage to :data:`STAGE_REGISTRY`.

    Validates the declaration eagerly (unique name, tuple-typed dataflow
    declarations) so a malformed stage is an import error, not a latent
    composition bug.
    """
    if not cls.name or cls.name == Stage.name:
        raise TypeError(f"{cls.__name__} must declare a unique 'name'")
    if cls.name in STAGE_REGISTRY:
        raise TypeError(f"duplicate stage name {cls.name!r}")
    for attr in ("inputs", "outputs", "STATE_FIELDS", "stat_paths"):
        if not isinstance(getattr(cls, attr), tuple):
            raise TypeError(f"{cls.__name__}.{attr} must be a tuple")
    STAGE_REGISTRY[cls.name] = cls
    return cls


class Stage:
    """Base class for one pipeline stage (see module docstring)."""

    #: Unique stage name; also the stat namespace (``sm*.stage.<name>.*``).
    name: str = "stage"
    #: Dataflow values consumed; each must be an external input or an
    #: output of an earlier stage.
    inputs: Tuple[str, ...] = ()
    #: Dataflow values produced.
    outputs: Tuple[str, ...] = ()
    #: Attribute names serialized by the inherited ``state_dict``.
    STATE_FIELDS: Tuple[str, ...] = ()
    #: Pre-existing SM stat paths this stage updates (documentation for
    #: ``repro pipeline show``; stage-owned counters are discovered live).
    stat_paths: Tuple[str, ...] = ()

    def __init__(self, core, stats_root: StatGroup) -> None:
        self.core = core
        self.config = core.config
        self.unit = core.unit
        #: Per-SM trace view; ``None`` keeps the stage observer-silent.
        self.tracer = None
        #: This stage's subtree of the SM's ``stage`` stats group.
        self.stats = stats_root.group(self.name)

    # ------------------------------------------------------------- composition

    def bind(self, spec) -> None:
        """Resolve cross-stage references after every stage is built.

        Called once by :func:`~repro.pipeline.spec.build_pipeline` with the
        composed :class:`~repro.pipeline.spec.PipelineSpec`; stages override
        it to cache bound methods of sibling stages (the execute stage binds
        the operand-read stage's bank-key plan, the select stage binds the
        execute stage's pipeline-availability probe, ...).
        """

    # -------------------------------------------------------------- stat hooks

    def counter(self, name: str) -> Counter:
        """Register (or fetch) a stage-owned counter and return the raw
        handle.  The counter lives at ``sm*.stage.<stage-name>.<name>`` in
        the run's stats registry; updating ``handle.value`` directly is the
        supported hot-path idiom for both engines."""
        return self.stats.add_counter(name)

    # ------------------------------------------------------------ tracer hooks

    def attach_tracer(self, view) -> None:
        """Install the SM's trace view (observer only; never timing)."""
        self.tracer = view

    # ---------------------------------------------------------- checkpointing

    def state_dict(self) -> dict:
        """Snapshot of the declared ``STATE_FIELDS`` (plain data)."""
        state = {}
        for field in self.STATE_FIELDS:
            value = getattr(self, field)
            state[field] = list(value) if isinstance(value, list) else value
        return state

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        List-valued fields are written in place — sibling stages and the
        SM core hold direct references to them (e.g. the select stage reads
        the execute stage's ``sp_free`` every pick), so a restore must
        mutate, never replace.
        """
        for field in self.STATE_FIELDS:
            value = state[field]
            current = getattr(self, field)
            if isinstance(current, list):
                current[:] = value
            else:
                setattr(self, field, value)

    # ------------------------------------------------------------- description

    def binding(self) -> str:
        """How the two executors drive this stage (for ``pipeline show``)."""
        return "shared"

    def describe(self) -> dict:
        """Plain-data description of the composed stage (CLI / tests)."""
        own = sorted(f"stage.{self.name}.{stat}" for stat in self.stats.stats)
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "state_fields": list(self.STATE_FIELDS),
            "stats": own + list(self.stat_paths),
            "binding": self.binding(),
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"{type(self).__name__}({self.name!r}, "
                f"in={list(self.inputs)}, out={list(self.outputs)})")
