"""The modelled Affine GPU is timing-neutral.

Affine execution (base+stride detection, 1-bank storage, a 1-lane FU) is
modelled as a cheaper way to run an affine warp instruction: it narrows
the SP lanes it occupies and the register-bank traffic it costs, and
nothing else.  Adding it to a design point must therefore leave cycles
and every other stat unchanged.
Tier 1 checks a divergent benchmark (BF) and a straight-line one (HT);
tier 2 checks the whole Table I suite.
"""

import re

import pytest

from repro.harness.runner import RunSpec, _simulate
from repro.workloads import all_abbrs

#: Every ``RunResult.to_dict()`` path that Affine may change.
AFFINE_KEYS = {
    "config.wir.affine",
    "sm*.core.affine_fu_insts",
    "sm*.core.fu_sp_lanes",
    "sm*.regfile.bank_reads",
    "sm*.regfile.bank_writes",
}

PAIRS = [("Base", "Affine"), ("RLPV", "Affine+RLPV")]


def _flat(data, path=()):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _flat(value, path + (key,))
    else:
        yield path, data


def _name(path) -> str:
    """``stats.groups.sm0.groups.core.stats.x`` -> ``sm*.core.x``."""
    if path[0] == "stats":
        path = [part for part in path[1:] if part not in ("groups", "stats")]
    return re.sub(r"^sm\d+\.", "sm*.", ".".join(map(str, path)))


def _differing_keys(abbr: str, plain: str, affine: str) -> set:
    a = dict(_flat(_simulate(RunSpec.make(abbr, plain, num_sms=1))[0]
                   .to_dict()))
    b = dict(_flat(_simulate(RunSpec.make(abbr, affine, num_sms=1))[0]
                   .to_dict()))
    return {_name(path) for path in a.keys() | b.keys()
            if a.get(path) != b.get(path)}


@pytest.mark.parametrize("plain,affine", PAIRS)
@pytest.mark.parametrize("abbr", ["BF", "HT"])
def test_affine_changes_only_bank_and_lane_counts(abbr, plain, affine):
    assert _differing_keys(abbr, plain, affine) == AFFINE_KEYS


@pytest.mark.tier2
@pytest.mark.parametrize("plain,affine", PAIRS)
@pytest.mark.parametrize("abbr", all_abbrs())
def test_affine_is_timing_neutral_on_the_suite(abbr, plain, affine):
    assert _differing_keys(abbr, plain, affine) == AFFINE_KEYS
