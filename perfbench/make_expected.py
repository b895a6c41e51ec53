"""Regenerate ``perfbench/expected.json``, the pinned simulated results.

    python3 perfbench/make_expected.py

Pins, per run, the exact counts the benchmark checks its outputs against:

* ``figures``: every Table I benchmark at Base, RLPV and Affine+RLPV with
  the figure drivers' fixed seed: cycles, instructions, L1D and WIR
  structure counters;
* ``pool``: cycles and instructions of each short benchmark at Base and
  RLPV for every seed in ``SEED_POOL`` (the campaign seed axis and the
  cold serve queries draw from these).

Only rerun this when a change is meant to move simulated results.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[1])

from perfbench.common import (EXPECTED, FIGURE_MODELS, NPROC,  # noqa: E402
                              SEED_POOL, SHORT_BENCHMARKS, SRC, WORK)

sys.path.insert(1, str(SRC))

from repro.harness import runner  # noqa: E402
from repro.workloads import all_abbrs  # noqa: E402

from perfbench.tracer import result_counts  # noqa: E402


def main() -> int:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        runner.set_cache_dir(cache)
        figure_specs = [runner.RunSpec.make(abbr, model)
                        for abbr in all_abbrs() for model in FIGURE_MODELS]
        pool_specs = [runner.RunSpec.make(abbr, model, seed=seed)
                      for abbr in SHORT_BENCHMARKS for model in ("Base", "RLPV")
                      for seed in SEED_POOL]
        runner.prefetch(figure_specs + pool_specs, jobs=NPROC)
        doc = {"figures": {}, "pool": {}}
        for spec in figure_specs:
            result = runner.lookup_result(spec)[0]
            doc["figures"][f"{spec.abbr}/{spec.model}"] = result_counts(
                result, spec.model)
        for spec in pool_specs:
            result = runner.lookup_result(spec)[0]
            doc["pool"][f"{spec.abbr}/{spec.model}/{spec.seed}"] = [
                result.cycles, result.issued_instructions]
    EXPECTED.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}: {len(doc['figures'])} figure runs, "
          f"{len(doc['pool'])} pool runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
