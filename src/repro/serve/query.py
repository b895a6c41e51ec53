"""Query parsing: URL parameters in, validated :class:`QuerySpec` out.

The serve layer answers *figure-level* questions ("Fig. 17 speedup for KM
at scale 5 under RLPV"), and every such question is ultimately a set of
simulations.  :class:`QuerySpec` is the validated middle form: it names
the figure and the simulation parameterisation, and
:func:`required_specs` expands it into the exact
:class:`~repro.harness.runner.RunSpec` values the CLI harness would build
for the same request.  That equality is load-bearing — the content
address (``RunSpec.digest()``) is both the cache key *and* the HTTP ETag,
so any serve-only drift would silently split the cache into an HTTP half
and a CLI half.  ``tests/test_serve_query.py`` holds a hypothesis
property pinning the two together.

Parsing is strict: unknown figures, workloads, models, unknown
parameter names, repeated parameters, and out-of-range integers all raise
:class:`QueryError`, which handlers turn into ``400`` error envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.core.models import model_names
from repro.harness.runner import EXPERIMENT_SMS, RunSpec
from repro.workloads import DEMO_WORKLOADS, all_abbrs

#: Hard ceilings on the numeric query axes: the service refuses to
#: enqueue arbitrarily large simulations on behalf of anonymous clients.
MAX_SCALE = 8
MAX_SMS = 16
MAX_SEED = 2**31 - 1


class QueryError(ValueError):
    """A malformed or out-of-range query parameter (HTTP 400)."""

    def __init__(self, message: str, param: str = "") -> None:
        super().__init__(message)
        self.param = param


@dataclass(frozen=True)
class QuerySpec:
    """One validated figure-level query (single workload or whole suite)."""

    fig: str
    #: Benchmark abbreviation, or ``"*"`` for a whole-suite query.
    workload: str
    model: str = "RLPV"
    scale: int = 1
    seed: int = 7
    num_sms: int = EXPERIMENT_SMS

    @property
    def suite(self) -> bool:
        return self.workload == "*"

    def workloads(self) -> List[str]:
        """The concrete benchmark list this query spans."""
        return all_abbrs() if self.suite else [self.workload]

    def to_dict(self) -> Dict[str, object]:
        return {
            "fig": self.fig,
            "workload": self.workload,
            "model": self.model,
            "scale": self.scale,
            "seed": self.seed,
            "num_sms": self.num_sms,
        }


def known_workloads() -> List[str]:
    """Every benchmark the service will simulate (Table I + demos)."""
    return all_abbrs() + list(DEMO_WORKLOADS)


def _one(params: Mapping[str, Sequence[str]], name: str, default: str) -> str:
    values = params.get(name)
    if values is None:
        return default
    if len(values) != 1:
        raise QueryError(f"parameter {name!r} given {len(values)} times",
                         param=name)
    return values[0]


def _int(params: Mapping[str, Sequence[str]], name: str, default: int,
         low: int, high: int) -> int:
    raw = _one(params, name, str(default))
    try:
        value = int(raw)
    except ValueError:
        raise QueryError(f"parameter {name!r} must be an integer, "
                         f"got {raw!r}", param=name) from None
    if not low <= value <= high:
        raise QueryError(f"parameter {name!r} must be in [{low}, {high}], "
                         f"got {value}", param=name)
    return value


def parse_query(fig: str, params: Mapping[str, Sequence[str]],
                suite: bool = False) -> QuerySpec:
    """Validate raw (multi-valued) query parameters into a QuerySpec.

    *params* is the mapping ``urllib.parse.parse_qs`` produces.  With
    ``suite=True`` the ``workload`` parameter is forbidden (the query
    spans the whole Table I suite); otherwise it is required.
    """
    from repro.serve.figures import FIGURES  # circular-free at call time

    if fig not in FIGURES:
        raise QueryError(
            f"unknown figure {fig!r}; available: {', '.join(FIGURES)}",
            param="fig")
    allowed = {"workload", "model", "scale", "seed", "sms"}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise QueryError(f"unknown parameter(s) {', '.join(unknown)}",
                         param=unknown[0])

    if suite:
        if "workload" in params:
            raise QueryError("suite queries span every benchmark; drop the "
                             "'workload' parameter", param="workload")
        workload = "*"
    else:
        workload = _one(params, "workload", "")
        if not workload:
            raise QueryError("missing required parameter 'workload'",
                             param="workload")
        if workload not in known_workloads():
            raise QueryError(f"unknown workload {workload!r} "
                             "(see 'repro list')", param="workload")

    model = _one(params, "model", "RLPV")
    if model not in model_names():
        raise QueryError(f"unknown model {model!r}; available: "
                         f"{', '.join(model_names())}", param="model")
    return QuerySpec(
        fig=fig,
        workload=workload,
        model=model,
        scale=_int(params, "scale", 1, 1, MAX_SCALE),
        seed=_int(params, "seed", 7, 0, MAX_SEED),
        num_sms=_int(params, "sms", EXPERIMENT_SMS, 1, MAX_SMS),
    )


def role_spec(query: QuerySpec, role: str, abbr: str) -> RunSpec:
    """The RunSpec one figure *role* resolves to for one benchmark.

    Roles come from the figure table: ``"Base"`` pins the baseline design
    point, ``"MODEL"`` is the query's model axis, and ``"PROFILE"`` is a
    Base run with the redundancy profiler armed (Figure 2).  Everything
    else about the spec — scale, seed, SM count — comes straight
    from the query, through the *same* ``RunSpec.make`` the CLI harness
    uses, so serve digests and CLI digests can never drift apart.
    """
    profile = role == "PROFILE"
    model = query.model if role == "MODEL" else "Base"
    return RunSpec.make(abbr, model, scale=query.scale, seed=query.seed,
                        num_sms=query.num_sms, profile=profile)


def required_specs(query: QuerySpec) -> Dict[str, Dict[str, RunSpec]]:
    """Every simulation the query needs: ``{abbr: {role: RunSpec}}``."""
    from repro.serve.figures import FIGURES

    roles = FIGURES[query.fig].roles
    return {abbr: {role: role_spec(query, role, abbr) for role in roles}
            for abbr in query.workloads()}


def flat_specs(query: QuerySpec) -> List[RunSpec]:
    """The deduplicated spec list of :func:`required_specs`, in a
    deterministic (abbr-major, role-minor) order."""
    seen = []
    for by_role in required_specs(query).values():
        for spec in by_role.values():
            if spec not in seen:
                seen.append(spec)
    return seen
