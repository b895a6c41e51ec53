"""The campaign journal: an append-only, checksummed event log.

A campaign's durable history lives in one ``journal.jsonl`` file.  Each
line is a self-contained JSON record::

    {"v": 1, "type": "complete", "time": 1722.5, "data": {...}, "sum": "..."}

``sum`` is a SHA-256 over the canonical record body (``sort_keys=True``,
``sum`` absent) — the same recipe as the result cache
(:func:`repro.ckpt.canonical_sha256`) — so a truncated or bit-rotted line
can never masquerade as an event.  Appends go through a single ``os.write``
on an ``O_APPEND`` file descriptor: concurrent workers appending to the
same journal never interleave bytes within a record, and a worker
SIGKILLed mid-append can leave at most one torn *final* line, which the
reader detects (checksum / parse failure) and drops without losing any
earlier history.

The journal is never rewritten or compacted in place.  Readers fold the
record stream into per-job :class:`JobLog` state, and a long-lived reader
(:class:`JournalTail`) folds it once and then tails it: each poll reads
only the bytes appended since the last one.  The torn-tail rule makes
that exact.  Only newline-terminated lines are consumed; a final line that
fails verification (or lacks its newline) stays unconsumed and is re-read
next time, and once it is no longer last it is counted as ``corrupt``.
So an incremental read always equals a one-shot read.  Records the reader
cannot verify are counted so ``repro campaign status`` can report journal
health alongside job progress.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.ckpt import canonical_sha256

#: Bump when the record envelope layout changes incompatibly.
RECORD_VERSION = 1

#: Failure messages are truncated to keep every record well under the
#: size where a single O_APPEND write could be split by the kernel.
MAX_ERROR_CHARS = 500

#: Set to ``"1"`` to fsync the journal after every append.  Default off:
#: the torn-tail reader already recovers the longest durable prefix after
#: a crash, so fsync buys only power-loss durability of the final record
#: at a per-append cost.  Deployments that want it (serving real traffic
#: from one box) flip the env var rather than forking the code path.
FSYNC_ENV = "REPRO_JOURNAL_FSYNC"


class JournalError(RuntimeError):
    """The journal file itself is unusable (not per-record corruption)."""


def append_record(path: Path, type: str, data: Dict,
                  clock: Callable[[], float] = time.time) -> Dict:
    """Append one checksummed record; returns the record written.

    The append is a single ``write(2)`` on an ``O_APPEND`` descriptor, so
    records from concurrent workers land whole and in *some* total order.
    A journal whose last byte is not a newline (a writer killed
    mid-append) gets one first, in the same write, so the new record
    never continues the torn line.
    """
    record = {
        "v": RECORD_VERSION,
        "type": type,
        "time": round(clock(), 3),
        "data": data,
    }
    record["sum"] = canonical_sha256(record)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line  # racing healers leave an empty line
        os.write(fd, line)
        if os.environ.get(FSYNC_ENV) == "1":
            os.fsync(fd)
    finally:
        os.close(fd)
    return record


@dataclass
class JournalReadResult:
    """Verified records plus the damage tally from one read pass."""

    records: List[Dict] = field(default_factory=list)
    #: Unverifiable non-final lines (bit rot, tampering): history was lost.
    corrupt: int = 0
    #: Whether the final line failed verification — the signature of a
    #: writer killed mid-append; benign, the event simply never happened.
    torn_tail: bool = False
    #: Byte offset just past the last consumed line: where the next
    #: incremental read starts.
    offset: int = 0
    #: Whether the last record is a final line that verifies but lacks its
    #: newline: it is returned but not consumed, so the next read from
    #: :attr:`offset` sees it again.
    pending: bool = False


def read_journal(path: Path, offset: int = 0) -> JournalReadResult:
    """Read every verifiable record from byte *offset* on; skip (and
    count) damaged lines.  See the module docstring for what is consumed.
    """
    out = JournalReadResult(offset=offset)
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read()
    except FileNotFoundError:
        return out
    except OSError as err:
        raise JournalError(f"unreadable journal {path}: {err}") from None
    lines = raw.split(b"\n")
    fragment = lines.pop()  # b"" when the read ends on a newline
    for index, line in enumerate(lines):
        if not line:  # a healed torn tail; not a record
            out.offset += 1
            continue
        record = _verify_line(line)
        if record is not None:
            out.records.append(record)
        elif fragment or index < len(lines) - 1:
            out.corrupt += 1
        else:
            out.torn_tail = True  # the final line: re-read next time
            break
        out.offset += len(line) + 1
    if fragment:
        record = _verify_line(fragment)
        if record is None:
            out.torn_tail = True
        else:
            out.records.append(record)
            out.pending = True
    return out


def _verify_line(line: bytes) -> Optional[Dict]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or record.get("v") != RECORD_VERSION:
        return None
    if record.get("sum") != canonical_sha256(record, omit="sum"):
        return None
    return record


# ------------------------------------------------------------------ the fold

@dataclass
class JobLog:
    """Everything the journal says about one job."""

    digest: str
    completes: List[Dict] = field(default_factory=list)
    failures: List[Dict] = field(default_factory=list)
    reclaims: List[Dict] = field(default_factory=list)
    claims: List[Dict] = field(default_factory=list)
    abandons: List[Dict] = field(default_factory=list)
    quarantined: bool = False

    @property
    def attempts_consumed(self) -> int:
        """Attempts this job has burned: raised errors plus worker deaths
        (each reclaim proves a worker died or stalled out holding it)."""
        return len(self.failures) + len(self.reclaims)


#: Record type -> the :class:`JobLog` list it is folded into.
_FOLDED = {"complete": "completes", "failed": "failures",
           "reclaim": "reclaims", "claim": "claims", "abandoned": "abandons"}


def fold_journal(records: Sequence[Dict],
                 into: Optional[Dict[str, JobLog]] = None
                 ) -> Dict[str, JobLog]:
    """Fold the record stream into per-job logs (duplicates tolerated).

    With *into*, the records extend those logs in place (an incremental
    fold); the dict is also returned.
    """
    logs: Dict[str, JobLog] = {} if into is None else into
    for record in records:
        data = record.get("data", {})
        digest = data.get("job")
        if not digest:
            continue
        log = logs.setdefault(digest, JobLog(digest))
        kind = record.get("type")
        if kind in _FOLDED:
            getattr(log, _FOLDED[kind]).append(data)
        elif kind == "quarantine":
            log.quarantined = True
    return logs


class JournalTail:
    """A journal folded once, then tailed.

    Holds the byte offset of the last consumed line and the folded
    :class:`JobLog` state; :meth:`poll` reads only what was appended
    since.  After every poll, :attr:`records`, :attr:`corrupt`,
    :attr:`torn_tail` and :attr:`logs` equal a one-shot
    :func:`read_journal` + :func:`fold_journal` of the whole file.  Not
    thread-safe: give each thread its own tail.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.corrupt = 0
        self.torn_tail = False
        self._records: List[Dict] = []
        self._logs: Dict[str, JobLog] = {}
        #: A final record read but not consumed (it lacks its newline).
        self._pending: Optional[Dict] = None

    def poll(self) -> "JournalTail":
        """Consume everything appended since the last poll."""
        chunk = read_journal(self.path, self.offset)
        self._pending = chunk.records.pop() if chunk.pending else None
        self.offset = chunk.offset
        self.corrupt += chunk.corrupt
        self.torn_tail = chunk.torn_tail
        self._records.extend(chunk.records)
        fold_journal(chunk.records, into=self._logs)
        return self

    @property
    def records(self) -> List[Dict]:
        if self._pending is None:
            return self._records
        return self._records + [self._pending]

    @property
    def logs(self) -> Dict[str, JobLog]:
        if self._pending is None:
            return self._logs
        # Fold the unconsumed record into copies: the next poll may find
        # it grown into a damaged line.
        logs = dict(self._logs)
        digest = self._pending.get("data", {}).get("job")
        if digest in logs:
            logs[digest] = copy.deepcopy(logs[digest])
        return fold_journal([self._pending], into=logs)
