"""Simulator performance benchmarking and regression gating.

``python -m repro bench`` times the simulator itself (cycles simulated per
wall-clock second) over a pinned workload subset under both execution
engines and the Base and RLPV design points, writes a schema-versioned ``BENCH_sim_throughput.json`` report,
and — given a committed baseline — fails when throughput regresses by more
than the tolerance.  See :mod:`repro.bench.throughput`.
"""

from repro.bench.throughput import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_REPORT_NAME,
    ENGINES,
    MODELS,
    PINNED_SUBSET,
    REGRESSION_TOLERANCE,
    BenchEntry,
    BenchReport,
    calibrate_machine,
    compare_reports,
    measure_subset,
    speedup_table,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_REPORT_NAME",
    "ENGINES",
    "MODELS",
    "PINNED_SUBSET",
    "REGRESSION_TOLERANCE",
    "BenchEntry",
    "BenchReport",
    "calibrate_machine",
    "compare_reports",
    "measure_subset",
    "speedup_table",
]
