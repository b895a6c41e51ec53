#!/usr/bin/env python3
"""Ratchet guard for the committed throughput baseline.

The bench CI job gates *fresh* measurements against the committed
``BENCH_sim_throughput.json`` (machine-normalized, 15% tolerance) — but
that alone would let the headline speedup regress silently: re-measuring
on any machine and committing the new report always passes its own gate.
This script pins the floor the committed baseline itself must clear, so
lowering the headline number requires editing the ratchet here, in
review, instead of just re-running ``repro bench --out``.

Floors are per design point and ratcheted upward when the fast engine
gets faster (Base keeps the floor the superblock compiler earned; RLPV's
is set from the committed measurement, leaving headroom for host noise)
and never lowered without a matching DESIGN.md/README update.

Usage: ``PYTHONPATH=src python scripts/check_bench_ratchet.py``.
Exit status 0 when every floor holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Model -> minimum aggregate cycles/sec speedup of the fast engine over
#: the scalar oracle that the *committed* baseline must show.
FLOORS = {
    "Base": 3.0,
    "RLPV": 1.3,
}


def repo_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit(f"cannot locate repo root above {here}")


def main() -> int:
    from repro.bench import DEFAULT_REPORT_NAME, PINNED_SUBSET, BenchReport

    path = repo_root() / DEFAULT_REPORT_NAME
    baseline = BenchReport.load(path)
    failures = []
    if baseline.subset != PINNED_SUBSET:
        failures.append(
            f"baseline subset {baseline.subset} != pinned {PINNED_SUBSET}")
    for model, floor in sorted(FLOORS.items()):
        speedup = baseline.speedup(model)
        status = "ok" if speedup >= floor else "RATCHET BROKEN"
        print(f"{model:6s} fast speedup {speedup:.2f}x  floor {floor:.2f}x  "
              f"[{status}]")
        if speedup < floor:
            failures.append(
                f"{model} fast speedup {speedup:.2f}x below ratcheted floor "
                f"{floor:.2f}x — the committed {DEFAULT_REPORT_NAME} must "
                f"be measured on an unloaded machine")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
