"""Per-layer host-time tracing, installed from outside the program.

The traced run wraps public functions and methods of the program's layers
at class or module level, before any ``GPU`` is built.  Every wrapped call
goes through one per-thread call stack, so each function gets

* ``calls``: how many times it ran,
* ``total``: wall seconds inside it,
* ``child``: wall seconds inside wrapped functions it called,

and its self time is ``total - child``.  High-frequency functions (the
pipeline stages, WIR structures, memory) keep only these aggregates;
coarse boundaries (one simulation, one campaign job) also record a span
``(name, start, end, parent)`` in memory.  Hooks read counts off results
where the work happens (simulated cycles per model, lease grants, bytes
of checkpoint written).

Processes: a forked pool worker inherits the wrappers but is terminated by
its pool, so it writes its data out every time its call stack empties.  A
campaign worker or server started through ``perfbench/entry.py`` writes
its data out when it exits.  The benchmark process merges every file at
the end (:func:`merge_dir`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Names used in metric keys for the three design points (``+`` is not
#: allowed in a metric name).
MODEL_KEYS = {"Base": "Base", "RLPV": "RLPV", "Affine+RLPV": "Affine_RLPV"}


def model_key(model: str) -> str:
    return MODEL_KEYS.get(model, model.replace("+", "_"))


class _ThreadState:
    """One thread's call stack and aggregates (no locking on the hot path)."""

    __slots__ = ("stack", "aggs", "counts", "spans", "model")

    def __init__(self) -> None:
        #: One ``[child_seconds, own_span, nearest_span]`` frame per active
        #: wrapped call (span indexes are -1 where there is none).
        self.stack: List[list] = []
        #: key -> [calls, total_s, child_s]
        self.aggs: Dict[str, list] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: (name, start, end, parent span index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        #: Design point of the simulation running on this thread.
        self.model: Optional[str] = None


class Recorder:
    """Call-stack accounting with explicit timestamps.

    :meth:`enter` / :meth:`exit` are the whole arithmetic; the wrappers
    feed them ``time.perf_counter()`` and the tests feed them a synthetic
    span tree.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState()
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, state: _ThreadState, span: bool, name: str,
              start: float) -> list:
        stack = state.stack
        parent = stack[-1][2] if stack else -1
        index = -1
        if span:
            index = len(state.spans)
            state.spans.append((name, start, start, parent))
        frame = [0.0, index, index if span else parent]
        stack.append(frame)
        return frame

    def exit(self, state: _ThreadState, key: str, frame: list, start: float,
             end: float) -> None:
        state.stack.pop()
        elapsed = end - start
        if state.stack:
            state.stack[-1][0] += elapsed
        agg = state.aggs.get(key)
        if agg is None:
            agg = state.aggs[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += frame[0]
        if frame[1] >= 0:
            name, _, _, parent = state.spans[frame[1]]
            state.spans[frame[1]] = (name, start, end, parent)

    def snapshot(self) -> Dict:
        """Merge every thread's data into one plain document and start
        afresh."""
        aggs: Dict[str, list] = {}
        counts: Dict[str, float] = defaultdict(float)
        spans: List = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, child) in list(state.aggs.items()):
                agg = aggs.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += child
            for key, value in list(state.counts.items()):
                counts[key] += value
            spans.extend(state.spans)
            state.aggs = {}
            state.counts = defaultdict(float)
            state.spans = []
        return {"aggs": aggs, "counts": dict(counts), "spans": spans}


def self_seconds(aggs: Dict[str, list], key: str) -> float:
    """Self time of *key*: its total minus time in wrapped callees."""
    _, total, child = aggs.get(key, (0, 0.0, 0.0))
    return total - child


class Tracer(Recorder):
    """Installs wrappers and writes this process's data to *out_dir*."""

    def __init__(self, out_dir: Path) -> None:
        super().__init__()
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.flush_on_idle = False
        self._seq = itertools.count()
        self._installed: List[Tuple[object, str, object]] = []

    # -- output ------------------------------------------------------------

    def flush(self) -> None:
        doc = self.snapshot()
        if not (doc["aggs"] or doc["counts"] or doc["spans"]):
            return
        path = self.out_dir / f"{os.getpid()}-{next(self._seq)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)

    def _after_fork_in_child(self) -> None:
        # The child inherits a copy of the parent's unflushed data; drop it
        # (the parent reports it) and flush each finished top-level call,
        # because the pool may terminate this process at any moment.
        self._tls = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.flush_on_idle = True

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, key: str, span: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A timing wrapper around *fn* recording under *key*."""
        perf = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder.state()
            if before is not None:
                before(state, args, kwargs)
            start = perf()
            frame = recorder.enter(state, span, key, start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.exit(state, key, frame, start, perf())
                raise
            end = perf()
            recorder.exit(state, key, frame, start, end)
            if after is not None:
                after(state, args, result, end - start)
            if not state.stack and recorder.flush_on_idle:
                recorder.flush()
            return result

        return wrapper

    def patch_method(self, cls: type, name: str, key: str, **kw) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(original, key, **kw))
        self._installed.append((cls, name, original))

    def patch_function(self, module_name: str, name: str, key: str,
                       **kw) -> None:
        """Wrap a module-level function everywhere it is bound.

        Modules that did ``from x import f`` hold their own reference, so
        every loaded ``repro`` module whose attribute is the same object
        gets the wrapper too.
        """
        original = getattr(sys.modules[module_name], name)
        wrapper = self.wrap(original, key, **kw)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []


# ----------------------------------------------------------------- layers

#: (module, class, method, metric key) of every class-level wrapper.
METHODS = (
    ("repro.pipeline.stages", "ReuseProbeStage", "issue",
     "pipeline.ReuseProbeStage.issue"),
    ("repro.pipeline.stages", "RenameStage", "run",
     "pipeline.RenameStage.run"),
    ("repro.pipeline.stages", "OperandReadStage", "schedule_reads",
     "pipeline.OperandReadStage.schedule_reads"),
    ("repro.pipeline.stages", "ExecuteStage", "run",
     "pipeline.ExecuteStage.run"),
    ("repro.pipeline.stages", "AllocateVerifyStage", "run",
     "pipeline.AllocateVerifyStage.run"),
    ("repro.pipeline.stages", "WritebackRetireStage", "retire",
     "pipeline.WritebackRetireStage.retire"),
    ("repro.core.reuse_buffer", "ReuseBuffer", "lookup",
     "core.ReuseBuffer.lookup"),
    ("repro.core.vsb", "ValueSignatureBuffer", "lookup",
     "core.ValueSignatureBuffer.lookup"),
    ("repro.core.vsb", "ValueSignatureBuffer", "insert",
     "core.ValueSignatureBuffer.insert"),
    ("repro.core.hashing", "H3Hash", "hash_value", "core.H3Hash.hash_value"),
    ("repro.core.rename", "RenameTables", "lookup", "core.RenameTables.lookup"),
    ("repro.core.verify_cache", "VerifyCache", "access",
     "core.VerifyCache.access"),
    ("repro.core.wir_unit", "WIRUnit", "allocate_register",
     "core.WIRUnit.allocate_register"),
    ("repro.sim.memory.subsystem", "SMMemoryPort", "access",
     "memory.SMMemoryPort.access"),
    ("repro.sim.memory.subsystem", "MemorySubsystem", "service_l1_miss",
     "memory.MemorySubsystem.service_l1_miss"),
    ("repro.workloads.common", "BuiltWorkload", "verify", "workloads.verify"),
    ("repro.serve.app", "ResultService", "collect", "serve.collect"),
    ("repro.campaign.lease", "LeaseManager", "claim", "campaign.lease.claim"),
)

#: Per-run stats read off every simulated result (numerator, denominator).
RATIO_STATS = {
    "core.reuse_ratio": ("core.reused", "core.issued"),
    "core.rb.hit_ratio": ("wir.rb.hits", "wir.rb.lookups"),
    "core.vsb.hit_ratio": ("wir.vsb.hits", "wir.vsb.lookups"),
    "core.vc.hit_ratio": ("wir.vc.hits", "wir.vc.accesses"),
}


def result_counts(result, model: str) -> Dict[str, float]:
    """The exact simulated counts one run contributes, keyed by model.

    Both the traced run (from the ``GPU.run`` hook) and the untraced run
    (from the results the program returns) sum these, so the purity check
    compares like with like.
    """
    m = model_key(model)
    out = {
        f"sim.cycles.{m}": result.cycles,
        f"sim.insts.{m}": result.issued_instructions,
        "memory.l1d.hits": result.sm_stat("l1d.hits"),
        "memory.l1d.accesses": result.sm_stat("l1d.accesses"),
    }
    groups = result.sm_groups
    if groups and "wir" in groups[0].children:
        for name, (num, den) in RATIO_STATS.items():
            out[f"{name}.{m}.num"] = result.sm_stat(num)
            out[f"{name}.{m}.den"] = result.sm_stat(den)
    return out


def _note_model(state, args, kwargs) -> None:
    state.model = args[0].model


def _after_gpu_run(state, args, result, elapsed) -> None:
    model = state.model or "?"
    for key, value in result_counts(result, model).items():
        state.counts[key] += value
    state.counts[f"sim.gpu_run_s.{model_key(model)}"] += elapsed


def _after_lookup(state, args, result, elapsed) -> None:
    if result is not None:
        state.counts["harness.lookup_result.hits"] += 1


def _after_claim(state, args, result, elapsed) -> None:
    if result is not None:
        state.counts["campaign.lease.grants"] += 1


def _after_ckpt(state, args, result, elapsed) -> None:
    try:
        state.counts["ckpt.write.bytes"] += Path(result).stat().st_size
    except OSError:
        pass


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer function the per-layer table reports."""
    import importlib

    for module_name in ("repro.harness.runner", "repro.harness.experiments",
                        "repro.sim.gpu", "repro.pipeline.stages",
                        "repro.core", "repro.sim.memory.subsystem",
                        "repro.workloads", "repro.energy",
                        "repro.ckpt.snapshot", "repro.campaign",
                        "repro.serve", "repro.serve.app",
                        "repro.serve.figures", "repro.serve.query",
                        "repro.serve.jobs"):
        importlib.import_module(module_name)
    from repro.sim.gpu import GPU

    for module_name, cls_name, method, key in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        after = _after_claim if key == "campaign.lease.claim" else None
        tracer.patch_method(cls, method, key, after=after)
    tracer.patch_method(GPU, "run", "sim.gpu_run", after=_after_gpu_run)
    functions = (
        ("repro.harness.runner", "run_benchmark", "harness.run_benchmark",
         {"span": True}),
        ("repro.harness.runner", "_simulate", "harness.simulate",
         {"span": True, "before": _note_model}),
        ("repro.harness.runner", "prefetch", "harness.prefetch",
         {"span": True}),
        ("repro.harness.runner", "lookup_result", "harness.lookup_result",
         {"after": _after_lookup}),
        ("repro.workloads.registry", "build_workload",
         "workloads.build_workload", {}),
        ("repro.energy.accounting", "compute_energy", "energy.compute_energy",
         {}),
        ("repro.ckpt.snapshot", "write_checkpoint", "ckpt.write",
         {"after": _after_ckpt}),
        ("repro.campaign.journal", "read_journal", "campaign.read_journal",
         {}),
        ("repro.campaign.journal", "append_record", "campaign.append_record",
         {}),
        ("repro.campaign.engine", "_execute_job", "campaign.execute_job",
         {"span": True}),
        ("repro.serve.query", "parse_query", "serve.parse_query", {}),
        ("repro.serve.figures", "figure_document", "serve.figure_document",
         {}),
        ("repro.serve.figures", "canonical_json", "serve.canonical_json", {}),
    )
    for module_name, name, key, kw in functions:
        tracer.patch_function(module_name, name, key, **kw)
    os.register_at_fork(after_in_child=tracer._after_fork_in_child)
    return tracer


def merge_dir(out_dir: Path, extra: Iterable[Dict] = ()) -> Dict:
    """Merge every flushed file under *out_dir* plus *extra* documents."""
    aggs: Dict[str, list] = {}
    counts: Dict[str, float] = defaultdict(float)
    spans: List = []
    docs = [json.loads(p.read_text()) for p in sorted(out_dir.glob("*.json"))]
    for doc in itertools.chain(docs, extra):
        for key, (calls, total, child) in doc["aggs"].items():
            agg = aggs.setdefault(key, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += child
        for key, value in doc["counts"].items():
            counts[key] += value
        spans.extend(doc["spans"])
    return {"aggs": aggs, "counts": dict(counts), "spans": spans}
