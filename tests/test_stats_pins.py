"""Every counter of every design point, pinned.

The scalar and fast engines share the pipeline stages and the WIR
structures, so the engine differential test cannot see a drift in that
shared code, and the golden figure tables only show a few ratios.  This
test pins, for each of the ten design points on a small fixed subset of
benchmarks, the cycle count and the SHA-256 of the flattened per-SM stats
tree: any change to any counter of any SM fails it.

Regenerate (only for an intended model change) with
``PYTHONPATH=src python tests/test_stats_pins.py``.
"""

import json
from pathlib import Path

import pytest

from repro.ckpt.snapshot import canonical_sha256
from repro.core.models import model_names
from repro.harness.runner import RunSpec, _simulate

PINS = Path(__file__).resolve().parent / "data" / "stats_pins.json"

#: A small fixed subset: straight-line (HW), divergent (BF) and two
#: load-heavy kernels (BP, SD).
ABBRS = ("HW", "BP", "BF", "SD")


def measure(abbr: str, model: str) -> dict:
    result = _simulate(RunSpec.make(abbr, model, num_sms=1))[0]
    tree = {f"sm{i}": group.flat()
            for i, group in enumerate(result.sm_groups)}
    return {"cycles": result.cycles, "sm_stats_sha256": canonical_sha256(tree)}


def _key(abbr: str, model: str) -> str:
    return f"{abbr}/{model}"


@pytest.mark.parametrize("model", model_names())
@pytest.mark.parametrize("abbr", ABBRS)
def test_counters_match_pins(abbr, model):
    pins = json.loads(PINS.read_text())
    assert measure(abbr, model) == pins[_key(abbr, model)]


def test_pins_cover_every_design_point():
    pins = json.loads(PINS.read_text())
    assert set(pins) == {_key(a, m) for a in ABBRS for m in model_names()}


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {_key(a, m): measure(a, m) for a in ABBRS for m in model_names()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
