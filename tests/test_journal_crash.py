"""Journal durability under crashes (``repro.campaign.journal``).

The satellite contract: with ``REPRO_JOURNAL_FSYNC=1`` every append is
fsynced, and — fsync or not — a writer killed mid-append leaves at most
one torn *final* line, which the reader drops while recovering every
earlier record intact (a contiguous prefix, zero ``corrupt`` lines).

The SIGKILL case uses a real subprocess killed at a random point in a
tight append loop; because kill timing cannot be made deterministic, the
exact tear is also reproduced deterministically by truncating a journal
at every byte boundary of its final record.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.campaign.journal as journal
from repro.campaign.journal import (FSYNC_ENV, append_record, read_journal)
from repro.ckpt import canonical_sha256

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Append records as fast as possible until killed; each carries its
#: sequence number so the parent can verify prefix-ness.
WRITER = """
import itertools, sys
from pathlib import Path
sys.path.insert(0, {src!r})
from repro.campaign.journal import append_record
path = Path({path!r})
print("ready", flush=True)
for seq in itertools.count():
    append_record(path, "claim", {{"job": f"job{{seq}}", "seq": seq}})
"""


class TestFsyncEnvGate:
    def test_fsync_called_per_append_when_enabled(self, tmp_path,
                                                  monkeypatch):
        synced = []
        monkeypatch.setattr(journal.os, "fsync",
                            lambda fd: synced.append(fd))
        monkeypatch.setenv(FSYNC_ENV, "1")
        path = tmp_path / "journal.jsonl"
        append_record(path, "claim", {"job": "a"})
        append_record(path, "complete", {"job": "a"})
        assert len(synced) == 2
        out = read_journal(path)
        assert len(out.records) == 2 and out.corrupt == 0

    def test_fsync_skipped_by_default(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(journal.os, "fsync",
                            lambda fd: synced.append(fd))
        monkeypatch.delenv(FSYNC_ENV, raising=False)
        append_record(tmp_path / "journal.jsonl", "claim", {"job": "a"})
        assert synced == []


class TestSigkillMidAppend:
    def test_prefix_recovered_after_sigkill(self, tmp_path):
        """SIGKILL a subprocess spinning on fsynced appends; whatever it
        managed to write must read back as a clean prefix — no corrupt
        mid-file records, at worst one torn tail."""
        path = tmp_path / "journal.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC, **{FSYNC_ENV: "1"})
        proc = subprocess.Popen(
            [sys.executable, "-c", WRITER.format(src=SRC, path=str(path))],
            env=env, stdout=subprocess.PIPE)
        try:
            assert proc.stdout.readline().strip() == b"ready"
            # Let it append for a bit, then kill it mid-flight.
            deadline = time.monotonic() + 5.0
            while (not path.exists() or path.stat().st_size < 4096):
                assert time.monotonic() < deadline, "writer never wrote"
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

        out = read_journal(path)
        assert len(out.records) > 0
        assert out.corrupt == 0  # never a damaged record before the tail
        seqs = [record["data"]["seq"] for record in out.records]
        assert seqs == list(range(len(seqs)))  # a contiguous prefix

    def test_every_possible_tear_point_recovers_the_prefix(self, tmp_path):
        """Deterministic sweep of the crash the SIGKILL test samples:
        truncate the journal at every byte inside its final record and
        assert the reader always recovers records 0..n-1."""
        path = tmp_path / "journal.jsonl"
        for seq in range(3):
            append_record(path, "claim", {"job": f"job{seq}", "seq": seq})
        raw = path.read_bytes()
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line_start + 1, len(raw)):
            torn = tmp_path / f"torn-{cut}.jsonl"
            torn.write_bytes(raw[:cut])
            out = read_journal(torn)
            if cut == len(raw) - 1:
                # Only the final newline is missing: the record itself is
                # whole, checksums, and reads back — nothing was lost.
                assert [r["data"]["seq"] for r in out.records] == [0, 1, 2]
                assert (out.corrupt, out.torn_tail) == (0, False)
            else:
                assert [r["data"]["seq"] for r in out.records] == [0, 1]
                assert (out.corrupt, out.torn_tail) == (0, True)

    def test_fsynced_records_survive_alongside_a_torn_tail(self, tmp_path):
        """The combined story: fsynced appends, then a torn final line —
        the durable prefix reads back whole and the tear is benign."""
        path = tmp_path / "journal.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(FSYNC_ENV, "1")
            for seq in range(4):
                append_record(path, "complete",
                              {"job": f"job{seq}", "seq": seq})
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # tear mid-final-record
        out = read_journal(path)
        assert [r["data"]["seq"] for r in out.records] == [0, 1, 2]
        assert (out.corrupt, out.torn_tail) == (0, True)
        # And the recovered lines still verify their checksums.
        for line in path.read_bytes().splitlines()[:-1]:
            record = json.loads(line)
            body = {k: v for k, v in record.items() if k != "sum"}
            assert record["sum"] == canonical_sha256(body)
