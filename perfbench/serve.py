"""serve-mixed: an open-loop client against a ``repro serve`` subprocess.

Setup warms a cache with the 34 Table I benchmarks at Base and RLPV
(``prefetch(jobs=nproc)``) and boots the server until ``/v1/readyz``
answers 200.  One asyncio client then sends, over at most two keep-alive
connections, a fixed-rate schedule of hot requests (single-workload figure
queries, whole-suite queries, ``If-None-Match`` revalidations and raw
result reads) plus a low-rate stream of cold queries for (workload, seed)
pairs the cache does not hold; each cold query goes 202, then waits for
its results to be published, then 200.  The benchmark seed picks the hot
request order and the cold pairs.

Latency counts from each request's due time, so a stall also charges the
requests queued behind it; how late the generator itself woke is
recorded separately.  After the timed phase every body is checked
byte-for-byte against the document computed in-process.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import cycle
from math import ceil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.common import (COLD_BENCHMARKS, NPROC, ROOT, SEED_POOL,
                              SETUP_REPEATS, BenchmarkError, Outcome,
                              SpeedProbe,
                              load_expected, percentile, proc_cpu_seconds,
                              proc_peak_rss_mb, subprocess_env)
from perfbench.tracer import merge_dir, result_counts

ENTRY = Path(__file__).resolve().parent / "entry.py"

#: Offered load: hot requests and cold queries per second.
HOT_RATE = 50.0
COLD_RATE = 1.0
#: Hot requests come in blocks of ten slots.  The first slot of every
#: block is a whole-suite query (a revalidation in every other block), so
#: suite queries are 10% of hot traffic, evenly spaced, and never pile up
#: on each other; the seed shuffles the other nine kinds within the block
#: and picks every target.
BLOCK = ("revalidate",) * 3 + ("result",) * 2 + ("figure",) * 4
FIGURES = ("fig12", "fig14", "fig15", "fig17")
COLD_FIGURES = ("fig12", "fig17")
CONNECTIONS = NPROC
REQUEST_TIMEOUT = 15.0


@dataclass
class Request:
    kind: str               # figure | suite | revalidate | result | cold
    path: str
    offset: float           # due time, seconds after the phase starts


@dataclass
class Reply:
    request: Request
    status: int
    etag: str
    body_hash: str
    latency: float          # seconds from due time (cold: from first send)
    late: float = 0.0       # how late the generator woke
    conditional: str = ""   # If-None-Match sent, if any
    job: str = ""           # cold: the background job that computed it


@dataclass
class PassResult:
    replies: List[Reply] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    wall: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    health: Dict = field(default_factory=dict)


# ------------------------------------------------------------ schedule

def schedule(seed: int, seconds: float) -> Tuple[List[Request], List[Request],
                                                 List[Tuple[str, int]]]:
    """The hot and cold requests of one run, from the benchmark seed."""
    from repro.harness.runner import RunSpec
    from repro.workloads import all_abbrs

    rng = random.Random(seed)
    abbrs = all_abbrs()

    def figure_path() -> str:
        return f"/v1/figure/{rng.choice(FIGURES)}?workload={rng.choice(abbrs)}"

    hot = []
    kinds = []
    for block in range(ceil(HOT_RATE * seconds / (len(BLOCK) + 1))):
        kinds.append("suite" if block % 2 == 0 else "suite-revalidate")
        kinds.extend(rng.sample(BLOCK, len(BLOCK)))
    for i, kind in enumerate(kinds[:int(HOT_RATE * seconds)]):
        offset = i / HOT_RATE
        if kind == "result":
            spec = RunSpec.make(rng.choice(abbrs), rng.choice(("Base", "RLPV")))
            hot.append(Request(kind, f"/v1/result/{spec.digest()}", offset))
        elif kind.startswith("suite"):
            hot.append(Request("revalidate" if kind.endswith("revalidate")
                               else "suite",
                               f"/v1/suite/{rng.choice(FIGURES)}", offset))
        else:
            hot.append(Request(kind, figure_path(), offset))
    # Cold pairs rotate through the cold benchmarks, so every run carries
    # the same mix; the seed picks each one's data seed.
    count = int(COLD_RATE * seconds)
    seeds = {abbr: rng.sample(SEED_POOL, -(-count // len(COLD_BENCHMARKS)))
             for abbr in COLD_BENCHMARKS}
    pairs = [(abbr, seeds[abbr][i // len(COLD_BENCHMARKS)])
             for i, abbr in zip(range(count), cycle(COLD_BENCHMARKS))]
    # Cold queries start two slots after a suite query, so a cold
    # simulation of usual length ends before the next suite query.
    first = 2 / HOT_RATE
    cold = [Request("cold", f"/v1/figure/{rng.choice(COLD_FIGURES)}"
                            f"?workload={abbr}&seed={seed_}",
                    first + i / COLD_RATE)
            for i, (abbr, seed_) in enumerate(pairs)]
    return hot, cold, pairs


# ------------------------------------------------------------ HTTP client

class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def get(self, path: str, headers: Dict[str, str]
                  ) -> Tuple[int, Dict[str, str], bytes]:
        if self.writer is None:
            await self.open()
        head = [f"GET {path} HTTP/1.1", f"Host: {self.host}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        reply_headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            reply_headers[name.strip().lower()] = value.strip()
        length = int(reply_headers.get("content-length", "0"))
        body = b"" if status == 304 else await self.reader.readexactly(length)
        if reply_headers.get("connection") == "close":
            await self.close()
        return status, reply_headers, body


class Client:
    """Open-loop driver over a fixed pool of connections."""

    def __init__(self, host: str, port: int, base: Path) -> None:
        self.host, self.port, self.base = host, port, base
        self.pool: asyncio.Queue = asyncio.Queue()
        self.etags: Dict[str, str] = {}
        self.result = PassResult()

    async def fetch(self, path: str, headers: Dict[str, str]
                    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = await self.pool.get()
        try:
            return await asyncio.wait_for(conn.get(path, headers),
                                          REQUEST_TIMEOUT)
        except (asyncio.TimeoutError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError, IndexError):
            await conn.close()
            raise
        finally:
            self.pool.put_nowait(conn)

    async def hot(self, request: Request, start: float) -> None:
        loop = asyncio.get_running_loop()
        due = start + request.offset
        await asyncio.sleep(max(0.0, due - loop.time()))
        late = loop.time() - due
        headers = {}
        if request.kind == "revalidate" and request.path in self.etags:
            headers["If-None-Match"] = self.etags[request.path]
        try:
            status, reply, body = await self.fetch(request.path, headers)
        except (asyncio.TimeoutError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError, IndexError) as err:
            self.result.failures.append(f"{request.path}: {err!r}")
            return
        etag = reply.get("etag", "")
        if status == 200 and request.kind != "result":
            self.etags[request.path] = etag
        self.result.replies.append(Reply(
            request, status, etag, hashlib.sha256(body).hexdigest(),
            loop.time() - due, late, headers.get("If-None-Match", "")))

    async def cold(self, request: Request, start: float,
                   digests: List[str]) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(max(0.0, start + request.offset - loop.time()))
        sent = loop.time()
        paths = [self.base / d[:2] / f"{d}.json" for d in digests]
        job = ""
        deadline = sent + 60.0
        try:
            while loop.time() < deadline:
                status, reply, body = await self.fetch(request.path, {})
                if status == 200:
                    self.result.replies.append(Reply(
                        request, status, reply.get("etag", ""),
                        hashlib.sha256(body).hexdigest(), loop.time() - sent,
                        job=job))
                    return
                if status != 202:
                    self.result.failures.append(
                        f"{request.path}: status {status}")
                    return
                accepted = json.loads(body)
                if accepted.get("status") == "deferred":
                    # Backlog full: nothing was enqueued; ask again.
                    await asyncio.sleep(0.5)
                    continue
                job = job or accepted.get("job", "")
                # Wait for the published results, not for a poll tick.
                while (not all(p.exists() for p in paths)
                       and loop.time() < deadline):
                    await asyncio.sleep(0.005)
            self.result.failures.append(f"{request.path}: no 200 in 60s")
        except (asyncio.TimeoutError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError, IndexError) as err:
            self.result.failures.append(f"{request.path}: {err!r}")

    async def run(self, hot: List[Request], cold: List[Request],
                  cold_digests: List[List[str]]) -> PassResult:
        for _ in range(CONNECTIONS):
            self.pool.put_nowait(await Connection(self.host,
                                                  self.port).open())
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.2
        tasks = [asyncio.ensure_future(self.hot(r, start)) for r in hot]
        tasks += [asyncio.ensure_future(self.cold(r, start, d))
                  for r, d in zip(cold, cold_digests)]
        await asyncio.gather(*tasks)
        while not self.pool.empty():
            await self.pool.get_nowait().close()
        return self.result


# ------------------------------------------------------------ server

def _get_json(host: str, port: int, path: str) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, argv: List[str], log: Path) -> None:
        started = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                         stderr=err, env=subprocess_env(),
                                         cwd=ROOT)
        try:
            # The server prints its bound address once listening.
            line = self.proc.stdout.readline().decode()
            if " on http://" not in line:
                raise BenchmarkError(f"server did not start: {line!r}")
            self.host, port = line.rsplit("http://", 1)[1].strip().rsplit(
                ":", 1)
            self.port = int(port)
            # Ready, then the first touch of every warmed run (the server
            # memoises what it reads), so the timed phase starts from a
            # serving steady state.
            for path in ["/v1/readyz"] + [f"/v1/suite/{fig}"
                                          for fig in FIGURES]:
                status, _ = _get_json(self.host, self.port, path)
                if status != 200:
                    raise BenchmarkError(f"{path} answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def untraced_argv(base: Path) -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--dir", str(base),
            "--port", "0"]


def traced_argv(base: Path, trace_dir: Path) -> List[str]:
    return [sys.executable, str(ENTRY), "serve", "--dir", str(base),
            "--trace-dir", str(trace_dir)]


def _cold_digests(pairs: List[Tuple[str, int]]) -> List[List[str]]:
    from repro.harness.runner import RunSpec

    return [[RunSpec.make(abbr, model, seed=seed_).digest()
             for model in ("Base", "RLPV")] for abbr, seed_ in pairs]


def traffic(server: Server, base: Path, hot: List[Request],
            cold: List[Request], pairs) -> PassResult:
    """Drive one timed phase; read the server's CPU, memory and health."""
    client = Client(server.host, server.port, base)
    cpu_before = proc_cpu_seconds(server.proc.pid)
    started = time.perf_counter()
    result = asyncio.run(client.run(hot, cold, _cold_digests(pairs)))
    result.wall = time.perf_counter() - started
    result.cpu_s = proc_cpu_seconds(server.proc.pid) - cpu_before
    result.peak_rss_mb = proc_peak_rss_mb(server.proc.pid)
    _, result.health = _get_json(server.host, server.port, "/v1/healthz")
    return result


# ------------------------------------------------------------ checks

def _reference(base: Path, paths: List[str]) -> Dict[str, Tuple[str, str]]:
    """(sha256 of the expected body, expected ETag) for each figure path,
    computed in-process through the same document code as ``repro query``."""
    from urllib.parse import parse_qs, urlsplit

    from repro.harness import runner
    from repro.serve.etag import document_etag
    from repro.serve.figures import (canonical_json, figure_document,
                                     load_via_harness)
    from repro.serve.query import parse_query

    runner.set_cache_dir(base)
    out = {}
    for path in paths:
        url = urlsplit(path)
        suite = url.path.startswith("/v1/suite/")
        query = parse_query(url.path.rsplit("/", 1)[1], parse_qs(url.query),
                            suite=suite)
        doc = figure_document(query, load_via_harness(query))
        body = canonical_json(doc).encode()
        out[path] = (hashlib.sha256(body).hexdigest(),
                     document_etag(query.fig, doc["runs"]))
    return out


def check(result: PassResult, reference: Dict[str, Tuple[str, str]],
          base: Path, outcome: Outcome) -> None:
    from repro.serve.etag import result_etag

    outcome.attempted += len(result.replies) + len(result.failures)
    for failure in result.failures:
        outcome.fail(failure)
    for reply in result.replies:
        path = reply.request.path
        if reply.status not in (200, 304):
            outcome.fail(f"{path}: status {reply.status}")
        elif reply.request.kind == "result":
            digest = path.rsplit("/", 1)[1]
            want = hashlib.sha256(
                (base / digest[:2] / f"{digest}.json").read_bytes()
            ).hexdigest()
            if reply.status != 200 or reply.body_hash != want \
                    or reply.etag != result_etag(digest):
                outcome.fail(f"{path}: body or ETag differs from the cache")
        elif reply.status == 304:
            if not reply.conditional or reply.etag != reference[path][1] \
                    or reply.conditional != reply.etag:
                outcome.fail(f"{path}: 304 with ETag {reply.etag!r}")
        elif (reply.body_hash, reply.etag) != reference[path]:
            outcome.fail(f"{path}: body or ETag differs from the document "
                         "computed in-process")


def _check_cold_pins(pairs, expected: Dict, outcome: Outcome,
                     ) -> Dict[str, float]:
    """Cold results equal the pins; returns their summed simulated counts."""
    from repro.harness import runner

    totals: Dict[str, float] = {}
    for abbr, seed_ in pairs:
        for model in ("Base", "RLPV"):
            found = runner.lookup_result(
                runner.RunSpec.make(abbr, model, seed=seed_))
            pin = expected["pool"][f"{abbr}/{model}/{seed_}"]
            if found is None or [found[0].cycles,
                                 found[0].issued_instructions] != pin:
                outcome.fail(f"cold {abbr}/{model}/{seed_} differs from pin")
                continue
            for key, value in result_counts(found[0], model).items():
                totals[key] = totals.get(key, 0) + value
    return totals


# ------------------------------------------------------------ metrics

def _latencies(result: PassResult, kind: str) -> List[float]:
    if kind == "cold":
        return [r.latency for r in result.replies if r.request.kind == "cold"]
    return [r.latency for r in result.replies if r.request.kind != "cold"]


def end_to_end(result: PassResult, slice_ms: float,
               outcome: Outcome) -> None:
    hot_ms = [x * 1000.0 for x in _latencies(result, "hot")]
    outcome.details["op_ms"] = percentile(hot_ms, 50)
    outcome.values["op_slices"] = outcome.details["op_ms"] / slice_ms
    outcome.detail("hot_p99_ms", hot_ms, 99)
    outcome.detail("cold_p50_s", _latencies(result, "cold"), 50)
    outcome.detail("gen_late_p99_ms", [r.late * 1000.0 for r in result.replies
                                       if r.request.kind != "cold"], 99)


def serve_layers(result: PassResult, base: Path,
                 outcome: Outcome) -> Dict[str, float]:
    """Per-layer serve numbers that need no wrappers."""
    from repro.campaign import read_journal

    hot = [r for r in result.replies if r.request.kind != "cold"]
    hot_ms = [r.latency * 1000.0 for r in hot]
    queue_ms, run_ms = [], []
    for reply in result.replies:
        if reply.request.kind != "cold" or not reply.job:
            continue
        root = base / "campaign" / reply.job
        records = read_journal(root / "journal.jsonl").records
        claims = [r["time"] for r in records if r["type"] == "claim"]
        completes = [r["time"] for r in records if r["type"] == "complete"]
        if claims and completes:
            submitted = (root / "campaign.json").stat().st_mtime
            queue_ms.append((min(claims) - submitted) * 1000.0)
            run_ms.append((max(completes) - min(claims)) * 1000.0)
    cold_ms = percentile(_latencies(result, "cold"), 50) * 1000.0
    outcome.detail("cold_queue_ms", queue_ms, 50)
    outcome.detail("cold_run_ms", run_ms, 50)
    outcome.details["cpu_ms_per_req"] = result.cpu_s * 1000.0 / len(hot)
    health = result.health
    return {
        "serve.hot_tail_ratio": percentile(hot_ms, 99) / percentile(hot_ms,
                                                                    50),
        "serve.cpu_share": result.cpu_s / result.wall,
        "serve.cold.queue_share": percentile(queue_ms, 50) / cold_ms,
        "serve.shed": health["admission"]["shed"],
        "serve.timeouts": health["requests"]["timeouts"],
        "serve.stale": health["requests"]["stale_served"],
    }


# ------------------------------------------------------------ the workload

def _warm(base: Path) -> float:
    from repro.harness import runner
    from repro.workloads import all_abbrs

    started = time.perf_counter()
    runner.set_cache_dir(base)
    runner.prefetch([runner.RunSpec.make(abbr, model)
                     for abbr in all_abbrs() for model in ("Base", "RLPV")],
                    jobs=NPROC)
    runner.clear_cache()
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    expected = load_expected()
    base = work / "cache"
    warm = _warm(base)
    hot, cold, pairs = schedule(seed, seconds)
    if trace:
        shutil.copytree(base, work / "cache-traced")
    log = work / "server.log"
    boots = []
    server = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(untraced_argv(base), log)
            boots.append(server.boot_s)
        outcome.values["setup_s"] = warm + statistics.median(boots)
        with SpeedProbe() as probe:
            result = traffic(server, base, hot, cold, pairs)
    finally:
        if server is not None:
            server.stop()
    paths = sorted({r.path for r in hot if r.kind != "result"}
                   | {r.path for r in cold})
    reference = _reference(base, paths)
    check(result, reference, base, outcome)
    untraced_counts = _check_cold_pins(pairs, expected, outcome)
    outcome.values["peak_rss_mb"] = result.peak_rss_mb
    end_to_end(result, probe.slice_ms, outcome)
    if trace:
        _traced_pass(result, untraced_counts, reference, hot, cold, pairs,
                     work, outcome)
    return outcome


def _traced_pass(untraced: PassResult, untraced_counts: Dict[str, float],
                 reference, hot, cold, pairs, work: Path,
                 outcome: Outcome) -> None:
    base = work / "cache-traced"
    trace_dir = work / "trace"
    trace_dir.mkdir()
    server = Server(traced_argv(base, trace_dir), work / "server.log")
    try:
        result = traffic(server, base, hot, cold, pairs)
    finally:
        server.stop()
    check(result, reference, base, outcome)
    doc = merge_dir(trace_dir)
    doc["requests"] = [(r.request.kind, r.request.path, r.request.offset,
                        r.latency, r.late, r.status) for r in result.replies]
    values = layers.traced_values("serve-mixed", doc, untraced_counts,
                                  result.wall, outcome)
    values.update(serve_layers(untraced, work / "cache", outcome))
    values["trace.overhead_ratio"] = result.cpu_s / untraced.cpu_s
    outcome.values = values
