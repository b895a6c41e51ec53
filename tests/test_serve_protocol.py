"""HTTP protocol conformance of the serve API (``repro.serve``).

Runs a real :class:`ResultService` on a loopback socket (port 0) inside
the test's event loop and speaks actual HTTP/1.1 bytes at it: hit
semantics (ETag, If-None-Match → 304, content types), the error envelope
on every 4xx/405 path, malformed-wire handling, HEAD, keep-alive, raw
result payload byte-exactness, and the 202 + durable-job contract on
cache misses.  The cache is warmed once per module with two small GA
runs, so every test here is tier-1 fast.
"""

import asyncio
import json

import pytest

import repro.harness.runner as runner
from repro import cli
from repro.harness.runner import (RunSpec, clear_cache, run_benchmark,
                                  set_cache_dir)
from tests.serve_util import (get_json, http_get, raw_request, serving,
                              wait_for_job)

#: The warm query every hit-path test uses (both runs cached at warm-up).
Q = "/v1/figure/fig17?workload=GA&scale=1&sms=1"


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    clear_cache()
    monkeypatch.setattr(runner, "_TEST_HOOK", None)
    yield
    clear_cache()
    set_cache_dir(None)


@pytest.fixture(scope="module")
def warm_base(tmp_path_factory):
    """A cache directory holding the GA Base + RLPV runs fig17 needs."""
    base = tmp_path_factory.mktemp("serve-cache")
    set_cache_dir(base)
    run_benchmark("GA", "Base", scale=1, num_sms=1)
    run_benchmark("GA", "RLPV", scale=1, num_sms=1)
    clear_cache()
    set_cache_dir(None)
    return base


class TestHits:
    def test_hit_is_byte_identical_to_the_cli_query_verb(self, warm_base,
                                                         capsys):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                return await http_get(port, Q)

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"] == "application/json; charset=utf-8"
        assert headers["etag"].startswith('"doc-')
        assert int(headers["content-length"]) == len(body)

        # The acceptance criterion: served bytes == `repro query` stdout.
        assert cli.main(["query", "fig17", "--workload", "GA", "--scale",
                         "1", "--sms", "1", "--dir", str(warm_base)]) == 0
        assert body == capsys.readouterr().out.strip().encode()

    def test_etag_revalidation(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (service, port):
                _, headers, body = await http_get(port, Q)
                etag = headers["etag"]
                hit = await http_get(port, Q, {"If-None-Match": etag})
                wild = await http_get(port, Q, {"If-None-Match": "*"})
                weak = await http_get(port, Q, {"If-None-Match": "W/" + etag})
                many = await http_get(
                    port, Q, {"If-None-Match": f'"nope", {etag}'})
                miss = await http_get(port, Q, {"If-None-Match": '"stale"'})
                return etag, body, hit, wild, weak, many, miss, service.counts

        etag, body, hit, wild, weak, many, miss, counts = asyncio.run(main())
        for status, headers, got in (hit, wild, weak, many):
            assert status == 304
            assert got == b""  # 304 carries no body...
            assert headers["etag"] == etag
            # ...but advertises the length the 200 would have had.
            assert int(headers["content-length"]) == len(body)
            assert "content-type" not in headers
        assert miss[0] == 200 and miss[2] == body
        assert counts["not_modified"] == 4

    def test_result_payload_served_byte_exact(self, warm_base):
        digest = RunSpec.make("GA", "Base", scale=1, num_sms=1).digest()
        stored = (warm_base / digest[:2] / f"{digest}.json").read_bytes()

        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                full = await http_get(port, f"/v1/result/{digest}")
                cond = await http_get(port, f"/v1/result/{digest}",
                                      {"If-None-Match": f'"{digest}"'})
                return full, cond

        (status, headers, body), (cstatus, _, _) = asyncio.run(main())
        assert status == 200
        assert body == stored
        assert headers["etag"] == f'"{digest}"'
        assert cstatus == 304

    def test_etag_is_stable_across_server_restarts(self, warm_base):
        async def one_boot():
            async with serving(warm_base, worker=False) as (_, port):
                _, headers, _ = await http_get(port, Q)
                return headers["etag"]

        first = asyncio.run(one_boot())
        second = asyncio.run(one_boot())  # a brand-new service instance
        assert first == second


    def test_load_cached_computes_energy_once_per_spec(self, warm_base,
                                                        monkeypatch):
        from repro.serve import figures

        compute = runner.compute_energy
        calls = []

        def counting(result):
            calls.append(result)
            return compute(result)

        # Wherever the serve layer reaches compute_energy from.
        monkeypatch.setattr(runner, "compute_energy", counting)
        monkeypatch.setattr(figures, "compute_energy", counting,
                            raising=False)
        set_cache_dir(warm_base)
        spec = RunSpec.make("GA", "RLPV", scale=1, num_sms=1)
        first = figures.load_cached(spec)
        second = figures.load_cached(spec)
        assert len(calls) == 1
        assert second.energy == first.energy == compute(first.result)
        clear_cache()  # drops the energy memo with the result memo
        figures.load_cached(spec)
        assert len(calls) == 2


class TestErrors:
    def _envelope(self, doc):
        assert set(doc) == {"error"}
        assert {"code", "message"} <= set(doc["error"])
        return doc["error"]

    def test_bad_queries_name_the_parameter(self, warm_base):
        cases = {
            "/v1/figure/fig17?workload=NOPE": "workload",
            "/v1/figure/fig17": "workload",
            "/v1/figure/fig17?workload=GA&scale=banana": "scale",
            "/v1/figure/fig17?workload=GA&scale=999": "scale",
            "/v1/figure/fig17?workload=GA&workload=KM": "workload",
            "/v1/figure/fig17?workload=GA&turbo=1": "turbo",
            "/v1/figure/fig99?workload=GA": "fig",
            "/v1/suite/fig17?workload=GA": "workload",
        }

        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                return [await get_json(port, path) for path in cases]

        for (status, _, doc), param in zip(asyncio.run(main()),
                                           cases.values()):
            assert status == 400
            error = self._envelope(doc)
            assert error["code"] in ("bad-query",)
            assert error["param"] == param

    def test_not_found_and_method_not_allowed(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                missing = await get_json(port, "/v1/nothing/here")
                post = await http_get(port, "/v1/healthz", method="POST")
                job = await get_json(port, "/v1/jobs/unknown-job")
                digest = await get_json(port, "/v1/result/zz")
                absent = await get_json(port, "/v1/result/" + "a" * 64)
                return missing, post, job, digest, absent

        missing, post, job, digest, absent = asyncio.run(main())
        assert missing[0] == 404
        assert self._envelope(missing[2])["code"] == "not-found"
        assert post[0] == 405
        assert job[0] == 404
        assert digest[0] == 400
        assert self._envelope(digest[2])["code"] == "bad-digest"
        assert absent[0] == 404

    def test_malformed_wire_requests_get_400(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                garbage = await raw_request(port, b"GARBAGE\r\n\r\n")
                version = await raw_request(
                    port, b"GET / HTTP/2.0\r\nHost: x\r\n\r\n")
                body = await raw_request(
                    port, b"GET / HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: 5\r\n\r\nhello")
                header = await raw_request(
                    port, b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n")
                return garbage, version, body, header

        for raw in asyncio.run(main()):
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert b'"bad-request"' in raw


class TestProtocolMechanics:
    def test_head_matches_get_without_the_body(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                get = await http_get(port, Q)
                head = await http_get(port, Q, method="HEAD")
                return get, head

        (gstatus, gheaders, gbody), (hstatus, hheaders, hbody) = \
            asyncio.run(main())
        assert (gstatus, hstatus) == (200, 200)
        assert hbody == b""
        assert hheaders["etag"] == gheaders["etag"]
        assert hheaders["content-length"] == str(len(gbody))

    def test_keep_alive_serves_sequential_requests(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                try:
                    responses = []
                    for connection in ("keep-alive", "close"):
                        writer.write(
                            f"GET {Q} HTTP/1.1\r\nHost: t\r\n"
                            f"Connection: {connection}\r\n\r\n".encode())
                        await writer.drain()
                        head = await reader.readuntil(b"\r\n\r\n")
                        length = int(next(
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")))
                        body = await reader.readexactly(length)
                        responses.append((head, body))
                    assert await reader.read() == b""  # server closed
                    return responses
                finally:
                    writer.close()

        first, second = asyncio.run(main())
        assert b"Connection: keep-alive" in first[0]
        assert b"Connection: close" in second[0]
        assert first[1] == second[1]

    def test_index_and_health(self, warm_base):
        async def main():
            async with serving(warm_base, worker=False) as (_, port):
                return (await get_json(port, "/"),
                        await get_json(port, "/v1/healthz"))

        index, health = asyncio.run(main())
        assert index[0] == 200
        assert "fig17" in index[2]["figures"]
        assert health[0] == 200
        assert health[2]["ok"] is True
        assert health[2]["requests"]["requests"] >= 1

    def test_access_log_records_requests(self, warm_base, tmp_path):
        log = tmp_path / "access.log"

        async def main():
            async with serving(warm_base, worker=False,
                               access_log=log) as (_, port):
                await http_get(port, Q)
                await get_json(port, "/v1/nothing")

        asyncio.run(main())
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert f'"GET {Q.split("?")[0]}" 200' in lines[0]
        assert '404' in lines[1]


class TestMisses:
    def test_cold_query_gets_202_and_a_durable_job(self, tmp_path):
        async def main():
            async with serving(tmp_path, worker=False) as (service, port):
                first = await get_json(
                    port, "/v1/figure/fig17?workload=KM&scale=1&sms=1")
                again = await get_json(
                    port, "/v1/figure/fig17?workload=KM&scale=1&sms=1")
                job = await get_json(port,
                                     f"/v1/jobs/{first[2]['job']}")
                return first, again, job, service

        first, again, job, service = asyncio.run(main())
        status, headers, doc = first
        assert status == 202
        assert doc["status"] == "pending"
        assert len(doc["missing"]) == 2  # Base + RLPV for KM
        assert doc["poll"] == f"/v1/jobs/{doc['job']}"
        assert headers["retry-after"] == "1"
        assert headers["location"] == doc["poll"]
        # Identical re-query converges on the same durable job.
        assert again[0] == 202 and again[2]["job"] == doc["job"]
        assert service.jobs.counts["submitted"] == 1

        # The job is a real campaign directory, run without checkpoints,
        # whose jobs are the missing digests themselves.
        manifest = json.loads(
            (tmp_path / "campaign" / doc["job"] / "campaign.json")
            .read_text())
        assert manifest["matrix"] is None
        assert manifest["checkpoint_every"] is None
        assert sorted(entry["digest"] for entry in manifest["jobs"]) \
            == doc["missing"]
        for entry in manifest["jobs"]:
            spec = RunSpec.from_dict(entry["spec"])
            assert spec.to_dict() == entry["spec"]  # digest-preserving
            assert spec.digest() == entry["digest"]

        assert job[0] == 200
        assert job[2]["state"] == "queued"  # no worker: nothing drains it
        assert job[2]["counts"] == {"total": 2, "done": 0, "running": 0,
                                    "pending": 2, "quarantined": 0}

    def test_poison_spec_surfaces_as_a_failed_job(self, tmp_path,
                                                  monkeypatch):
        """A spec whose simulation always raises burns its attempts, gets
        quarantined by the campaign machinery, and the job endpoint says
        ``failed`` — the query never silently loops back to pending."""
        def poison(spec):
            raise RuntimeError("injected simulation failure")

        monkeypatch.setattr(runner, "_TEST_HOOK", poison)

        async def main():
            async with serving(tmp_path, worker=True) as (_, port):
                status, _, doc = await get_json(
                    port, "/v1/figure/fig2?workload=GA&scale=1&sms=1")
                assert status == 202
                final = await wait_for_job(port, doc["job"])
                again = await get_json(
                    port, "/v1/figure/fig2?workload=GA&scale=1&sms=1")
                return doc, final, again

        doc, final, again = asyncio.run(main())
        assert final["state"] == "failed"
        assert final["counts"]["quarantined"] == 1
        # Re-querying converges on the same (failed) durable job instead
        # of enqueueing fresh work forever.
        assert again[0] == 202 and again[2]["job"] == doc["job"]
