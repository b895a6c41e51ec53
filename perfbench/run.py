"""The repository's benchmark: one command per workload, from a checkout.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload once untraced and once with per-layer wrappers and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong output counts as a failed operation and makes the exit code 1.

``--repeat N`` runs the workload N times (seeds ``seed .. seed+N-1``), each
in a fresh process, and prints every metric's median, quartiles and
spread (IQR / median) as a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Import the benchmark as a package from the checkout root, never its own
# directory (a module here must not shadow a top-level one).
sys.path[0] = str(ROOT)

from perfbench.common import (SRC, WORK, WORKLOADS, BenchmarkError,  # noqa: E402
                              RunDir, metrics_for, result_line)


def _run_once(args) -> int:
    if not (SRC / "repro" / "__init__.py").exists():
        raise BenchmarkError(f"no program sources under {SRC}")
    sys.path.insert(1, str(SRC))
    if args.workload == "figures-cold":
        from perfbench import figures as workload
    elif args.workload == "campaign-sweep":
        from perfbench import campaign as workload
    else:
        from perfbench import serve as workload
    WORK.mkdir(exist_ok=True)
    with RunDir(args.workload) as work:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                               work)
    for problem in outcome.problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    if outcome.details:
        print("details: " + json.dumps(outcome.details), file=sys.stderr)
    line = result_line(args.workload, bool(args.trace), outcome)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _repeat(args) -> int:
    """Run the workload N times in fresh processes; print the spread table."""
    samples = {}
    units = {}
    failures = 0
    for i in range(args.repeat):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"run {i}: exit {proc.returncode}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i} (seed {args.seed + i}): "
              f"{time.perf_counter() - started:.1f}s, attempted "
              f"{result['attempted']}, failed {result['failed']}: "
              + ", ".join(f"{name}={metric['value']:.4g}" for name, metric
                          in result["metrics"].items()),
              file=sys.stderr)
    print(f"{'metric':44} {'unit':8} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8}")
    for metric in metrics_for(bool(args.trace)):
        values = samples.get(metric.name)
        if not values:
            continue
        q1, median, q3 = _quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{metric.name:44} {units[metric.name]:8} {q1:12.6g} "
              f"{median:12.6g} {q3:12.6g} {spread:8.3f}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times in fresh processes and print "
                             "each metric's median and quartiles")
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            return _repeat(args)
        return _run_once(args)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
