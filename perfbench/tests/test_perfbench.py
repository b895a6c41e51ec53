"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from perfbench import common, serve  # noqa: E402
from perfbench.common import (END_TO_END, METRIC_NAME, PER_LAYER,  # noqa: E402
                              WORKLOADS, BenchmarkError, Outcome,
                              TooFewSamples, percentile, result_line)
from perfbench.tracer import Recorder, Tracer, self_seconds  # noqa: E402


def test_metric_names_use_only_allowed_characters():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
        assert "+" not in name


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 99, 90)


def test_every_workload_reports_every_end_to_end_metric():
    everything = {m.name: 1.0 for m in END_TO_END}
    for workload in WORKLOADS:
        line = result_line(workload, False,
                           Outcome(attempted=1, values=dict(everything)))
        assert list(line["metrics"]) == [m.name for m in END_TO_END]
        for metric in END_TO_END:
            assert line["metrics"][metric.name]["unit"] == metric.unit


def test_speed_probe_times_its_slice_and_stops():
    with common.SpeedProbe() as probe:
        time.sleep(0.2)
    assert probe.proc.returncode == 0
    assert 0 < probe.slice_ms < 1000


def test_a_missing_end_to_end_metric_is_an_error():
    with pytest.raises(BenchmarkError):
        result_line("figures-cold", False,
                    Outcome(attempted=1, values={"setup_s": 1.0}))


def test_traced_run_prints_every_layer_metric_with_zero_default():
    line = result_line("serve-mixed", True,
                       Outcome(attempted=1, values={"ckpt.write.calls": 3}))
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}
    assert line["metrics"]["ckpt.write.calls"]["value"] == 3
    assert line["metrics"]["campaign.tail_share"]["value"] == 0


def test_wrong_output_makes_the_run_incorrect():
    outcome = Outcome(attempted=3, values={m.name: 1.0 for m in END_TO_END})
    outcome.fail("row differs")
    line = result_line("figures-cold", False, outcome)
    assert line["correct"] is False and line["failed"] == 1


def test_self_time_on_a_synthetic_span_tree():
    # A [0, 10] calls B [1, 4] (which calls C [2, 3]) and D [5, 9].
    rec = Recorder()
    state = rec.state()
    a = rec.enter(state, True, "A", 0.0)
    b = rec.enter(state, True, "B", 1.0)
    c = rec.enter(state, False, "C", 2.0)
    rec.exit(state, "C", c, 2.0, 3.0)
    rec.exit(state, "B", b, 1.0, 4.0)
    d = rec.enter(state, False, "D", 5.0)
    rec.exit(state, "D", d, 5.0, 9.0)
    rec.exit(state, "A", a, 0.0, 10.0)
    doc = rec.snapshot()
    aggs = doc["aggs"]
    assert self_seconds(aggs, "A") == pytest.approx(3.0)
    assert self_seconds(aggs, "B") == pytest.approx(2.0)
    assert self_seconds(aggs, "C") == pytest.approx(1.0)
    assert self_seconds(aggs, "D") == pytest.approx(4.0)
    assert aggs["A"][0] == 1 and aggs["A"][1] == pytest.approx(10.0)
    # Only A and B recorded spans; B's parent is A (index 0).
    assert doc["spans"] == [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0)]


def test_repeated_calls_aggregate_and_threads_do_not_mix():
    rec = Recorder()
    state = rec.state()
    for start in (0.0, 2.0):
        frame = rec.enter(state, False, "f", start)
        rec.exit(state, "f", frame, start, start + 0.5)
    other = {}

    def worker():
        s = rec.state()
        frame = rec.enter(s, False, "g", 0.0)
        rec.exit(s, "g", frame, 0.0, 1.0)
        other["stack"] = list(s.stack)

    import threading
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    aggs = rec.snapshot()["aggs"]
    assert aggs["f"] == [2, pytest.approx(1.0), 0.0]
    assert aggs["g"] == [1, pytest.approx(1.0), 0.0]
    assert other["stack"] == [] and state.stack == []


def test_wrapper_records_nesting_and_every_binding(tmp_path, monkeypatch):
    import types
    module = types.ModuleType("repro._perfbench_probe")
    user = types.ModuleType("repro._perfbench_user")

    def inner():
        time.sleep(0.01)

    module.inner = user.inner = inner
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = Tracer(tmp_path)
    tracer.patch_function(module.__name__, "inner", "probe.inner")
    # A module that imported the function by name gets the wrapper too.
    assert module.inner is not inner and user.inner is module.inner

    def outer():
        user.inner()
        return 7

    assert tracer.wrap(outer, "probe.outer", span=True)() == 7
    tracer.uninstall()
    assert module.inner is inner and user.inner is inner
    aggs = tracer.snapshot()["aggs"]
    assert aggs["probe.inner"][0] == 1
    assert aggs["probe.outer"][2] == pytest.approx(aggs["probe.inner"][1])
    assert self_seconds(aggs, "probe.outer") < aggs["probe.inner"][1]


# ---------------------------------------------------------- open loop

class _SlowServer:
    """Answers every GET with 200 after *delay* seconds, one at a time."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    async def handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            await asyncio.sleep(self.delay)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                         b"ETag: \"x\"\r\n\r\nok")
            await writer.drain()
        writer.close()


def test_open_loop_latency_counts_from_due_time_and_lateness_is_recorded():
    async def scenario():
        server = await asyncio.start_server(_SlowServer(0.1).handle,
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = serve.Client("127.0.0.1", port, Path("."))
        client.pool.put_nowait(await serve.Connection("127.0.0.1",
                                                      port).open())
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        # Both due at once on one connection: the second waits for the
        # first, and that wait is part of its latency.
        first = serve.Request("figure", "/a", 0.0)
        second = serve.Request("figure", "/b", 0.0)
        # A third is due while the loop is blocked, so it wakes late.
        third = serve.Request("figure", "/c", 0.3)
        loop.call_at(start + 0.25, time.sleep, 0.15)
        await asyncio.gather(client.hot(first, start),
                             client.hot(second, start),
                             client.hot(third, start))
        while not client.pool.empty():
            await client.pool.get_nowait().close()
        server.close()
        await server.wait_closed()
        return {r.request.path: r for r in client.result.replies}

    replies = asyncio.run(scenario())
    served_first, served_second = sorted(
        (replies["/a"], replies["/b"]), key=lambda reply: reply.latency)
    assert served_first.latency == pytest.approx(0.1, abs=0.05)
    assert served_second.latency >= 0.19
    assert served_second.late < 0.05
    assert replies["/c"].late >= 0.09
    assert replies["/c"].latency >= replies["/c"].late + 0.09


def test_schedule_is_a_pure_function_of_the_seed():
    hot1, cold1, pairs1 = serve.schedule(5, 2.0)
    hot2, cold2, pairs2 = serve.schedule(5, 2.0)
    hot3, _, pairs3 = serve.schedule(6, 2.0)
    assert hot1 == hot2 and cold1 == cold2 and pairs1 == pairs2
    assert [r.path for r in hot1] != [r.path for r in hot3]
    assert len(hot1) == int(serve.HOT_RATE * 2.0)
    assert all(seed in common.SEED_POOL for _, seed in pairs1)
    assert len(set(pairs1)) == len(pairs1)
