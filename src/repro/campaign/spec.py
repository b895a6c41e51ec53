"""Declarative campaign matrices: axes in, RunSpec job graph out.

A :class:`MatrixSpec` names the experiment design space — benchmarks ×
models × scales × seeds × WIR-config sweeps — without running anything.
``expand()`` materializes the cartesian product into concrete
:class:`~repro.harness.runner.RunSpec` jobs, and the matrix digest names
the campaign itself: re-running ``repro campaign run`` with the same
matrix resumes the same campaign instead of starting a second one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ckpt import canonical_sha256
from repro.harness.runner import EXPERIMENT_SMS, RunSpec


@dataclass(frozen=True)
class MatrixSpec:
    """The declarative design space of one campaign."""

    benchmarks: Tuple[str, ...]
    models: Tuple[str, ...] = ("Base",)
    scales: Tuple[int, ...] = (1,)
    seeds: Tuple[int, ...] = (7,)
    num_sms: int = EXPERIMENT_SMS
    #: WIR config override sweeps: ``((name, (v1, v2, ...)), ...)``.
    #: Every combination across axes becomes its own design point.
    sweeps: Tuple[Tuple[str, Tuple[object, ...]], ...] = field(
        default_factory=tuple)

    @classmethod
    def make(cls, benchmarks, models=("Base",), scales=(1,), seeds=(7,),
             num_sms: int = EXPERIMENT_SMS, **sweeps) -> "MatrixSpec":
        """Convenience constructor: ``sweeps`` kwargs may be scalars or
        iterables, e.g. ``MatrixSpec.make(["KM"], reuse_buffer_entries=(64,
        256))``."""
        normalized = tuple(sorted(
            (name, tuple(values) if isinstance(values, (tuple, list))
             else (values,))
            for name, values in sweeps.items()))
        return cls(tuple(benchmarks), tuple(models), tuple(scales),
                   tuple(seeds), num_sms, normalized)

    def expand(self) -> List[RunSpec]:
        """Materialize every job of the matrix, in deterministic order."""
        sweep_names = [name for name, _ in self.sweeps]
        sweep_values = [values for _, values in self.sweeps]
        specs: List[RunSpec] = []
        for abbr, model, scale, seed in itertools.product(
                self.benchmarks, self.models, self.scales, self.seeds):
            for combo in itertools.product(*sweep_values):
                overrides = dict(zip(sweep_names, combo))
                specs.append(RunSpec.make(
                    abbr, model, scale=scale, seed=seed,
                    num_sms=self.num_sms, **overrides))
        return specs

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmarks": list(self.benchmarks),
            "models": list(self.models),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "num_sms": self.num_sms,
            "sweeps": [[name, list(values)] for name, values in self.sweeps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MatrixSpec":
        # A stored ``exec_engine`` key (older campaign files) is ignored.
        return cls(
            benchmarks=tuple(data["benchmarks"]),
            models=tuple(data["models"]),
            scales=tuple(data["scales"]),
            seeds=tuple(data["seeds"]),
            num_sms=data.get("num_sms", EXPERIMENT_SMS),
            sweeps=tuple((name, tuple(values))
                         for name, values in data.get("sweeps", [])),
        )

    def campaign_id(self) -> str:
        """Stable short identity of the campaign this matrix defines."""
        return canonical_sha256(self.to_dict())[:12]
