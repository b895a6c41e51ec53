"""Differential proof that the fast engine is bit-identical to scalar.

The scalar interpreter is the correctness oracle; the fast engine
(``exec_engine = "fast"``: compiled per-instruction numpy kernels plus
trace-compiled superblocks, DESIGN.md §8 and §16) must be
indistinguishable from it in every architecturally visible way: cycle
count, the entire hierarchical stats registry, the launch summary, and
final global memory, byte for byte.

Tier 1 covers a diverse workload subset under Base and RLPV plus every
other design point in :mod:`repro.core.models` on a small pair of
workloads, one of them divergent (BF); the ``tier2`` marker widens to all
34 benchmarks under all ten design points, each engine checked against the
same scalar run.  A further set of tests runs the fast engine under
the lockstep golden-model oracle (:mod:`repro.check`), which referees every
commit — not just the final state — against an independent functional
model; with the checker observing, the fast engine must fall back to the
per-instruction path while staying cycle-identical to its unobserved self.
"""

import pytest

from repro.core.models import model_config, model_names
from repro.sim.gpu import GPU, KernelLaunch
from repro.workloads import all_abbrs, build_workload

#: Compute-bound, memory-bound, divergent, and tiny-kernel representatives.
TIER1_SUBSET = ["HW", "KM", "SD", "MQ", "BS", "BP"]

#: Design points beyond Base/RLPV, each checked on a short kernel and on
#: the divergent bfs kernel (guarded exits, masked superblock entries).
OTHER_MODELS = [m for m in model_names() if m not in ("Base", "RLPV")]
OTHER_MODEL_WORKLOADS = ["HT", "BF"]


def _run(abbr, engine, model="Base", scale=1, num_sms=2):
    """One uncached run; returns (serialized result sans config, memory)."""
    config = model_config(model)
    config.num_sms = num_sms
    config.exec_engine = engine
    workload = build_workload(abbr, scale=scale, seed=7)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    result = GPU(config).run(launch)
    workload.verify()
    data = result.to_dict()
    # The config block legitimately differs (it records the engine);
    # everything else must match exactly.
    data.pop("config")
    mem = workload.image.global_mem
    return data, mem.read_block(0, mem.size_words).tobytes()


def assert_engines_identical(abbr, **kwargs):
    scalar_data, scalar_mem = _run(abbr, "scalar", **kwargs)
    fast_data, fast_mem = _run(abbr, "fast", **kwargs)
    assert scalar_data["cycles"] == fast_data["cycles"], abbr
    assert scalar_data == fast_data, abbr
    assert scalar_mem == fast_mem, abbr


@pytest.mark.parametrize("abbr", TIER1_SUBSET)
def test_engines_identical_base(abbr):
    assert_engines_identical(abbr)


@pytest.mark.parametrize("abbr", ["HW", "BP", "SD"])
def test_engines_identical_rlpv(abbr):
    assert_engines_identical(abbr, model="RLPV")


@pytest.mark.parametrize("abbr", OTHER_MODEL_WORKLOADS)
@pytest.mark.parametrize("model", OTHER_MODELS)
def test_engines_identical_other_models(model, abbr):
    assert_engines_identical(abbr, model=model)


def test_engines_identical_single_sm():
    """SM-count independence: dispatch/retire ordering differs with 1 SM."""
    assert_engines_identical("KM", num_sms=1)


@pytest.mark.tier2
@pytest.mark.parametrize("abbr", all_abbrs())
@pytest.mark.parametrize("model", model_names())
def test_engines_identical_full(model, abbr):
    assert_engines_identical(abbr, model=model)


# ------------------------------------------------------------------ lockstep

def _checked_run(abbr, model):
    from repro.check.oracle import CheckedGPU

    config = model_config(model)
    config.num_sms = 2
    config.exec_engine = "fast"
    workload = build_workload(abbr, scale=1, seed=7)
    launch = KernelLaunch(workload.program, workload.grid, workload.block,
                          workload.image)
    result = CheckedGPU(config, benchmark=abbr).run(launch)
    workload.verify()
    return result


def test_vector_engine_under_lockstep_oracle_base():
    """Every commit the fast engine's per-instruction vector kernels make
    (the checker's observer hooks force that path) is refereed
    independently, and the run stays cycle-identical to scalar."""
    checked = _checked_run("HW", "Base")
    scalar, _ = _run("HW", "scalar")
    assert checked.cycles == scalar["cycles"]


def test_superblock_engine_under_lockstep_oracle_base():
    """The checker's observer hooks force the fast engine off its compiled
    superblocks; the run must still verify commit-by-commit and stay
    cycle-identical to the unobserved run, which dispatches superblocks."""
    checked = _checked_run("HW", "Base")
    plain, _ = _run("HW", "fast")
    assert checked.cycles == plain["cycles"]


def test_fast_engine_under_lockstep_oracle_affine_rlpv():
    """The richest design point (affine tracking plus every WIR
    optimisation) on the divergent bfs kernel, refereed commit by commit."""
    checked = _checked_run("BF", "Affine+RLPV")
    plain, _ = _run("BF", "fast", model="Affine+RLPV")
    assert checked.cycles == plain["cycles"]


@pytest.mark.tier2
def test_fast_engine_under_lockstep_oracle_rlpv():
    result = _checked_run("BP", "RLPV")
    assert result.cycles > 0
