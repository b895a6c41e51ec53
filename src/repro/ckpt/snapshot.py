"""The on-disk checkpoint container.

A checkpoint file is one header line followed by the body::

    {"cycle": 2000, "format": 2, "schema": 2, "sha256": "..."}\n
    {"meta": {...}, "state": {...}}

The header carries the container ``format``, the simulator ``state_dict``
``schema``, the snapshot ``cycle`` and the SHA-256 of the body bytes.  The
writer serializes the body once and hashes exactly the bytes it writes;
the reader hashes the bytes it read and only then parses them, once.  So a
truncated or bit-rotted file is detected before any state is restored, and
a file from another format (format 1 was a single JSON object) fails
:func:`read_checkpoint` instead of being misread.

The body's global memory is a delta against the launch image
(:class:`repro.sim.memory.space.LaunchBase`): only the 4 KB pages that
differ, tagged with the digest of the image they were taken against.

Writes go to a unique per-process ``*.tmp`` name in the target directory
and are published with ``os.replace``, so concurrent writers and
SIGKILLed workers can never leave a torn checkpoint under the final name
(orphaned temps are swept by ``repro cache verify --prune``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Union

#: Bump when the file container layout changes incompatibly.
#: 2: a header line (format, schema, cycle, body sha256) before the body,
#: and the global memory stored as pages that differ from the launch image.
CKPT_FORMAT = 2
#: Bump when any component's ``state_dict`` schema changes incompatibly.
#: 2: the SM's functional-unit timing moved into a ``pipeline`` sub-document
#: keyed by stage name (repro.pipeline), replacing the top-level
#: ``sp_free``/``sfu_free``/``mem_free`` keys.
CKPT_SCHEMA = 2

#: Test seam: called as ``hook(cycle, path)`` after every checkpoint write.
#: The chaos tests install a hook that SIGKILLs the worker at a chosen
#: checkpoint, proving the harness resumes from the file just written.
_TEST_HOOK: Optional[Callable[[int, Path], None]] = None

_TMP_COUNTER = itertools.count()


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or incompatible."""


def canonical_sha256(body: Dict, omit: Optional[str] = None) -> str:
    """SHA-256 of ``json.dumps(body, sort_keys=True)``, without key *omit*.

    The one checksum recipe for plain-data documents: journal records
    (``omit="sum"``), result-cache payloads (``omit="checksum"``) and
    content addresses all hash through here.
    """
    if omit is not None:
        body = {key: value for key, value in body.items() if key != omit}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def atomic_write_text(path: Path, text: Union[str, bytes]) -> None:
    """Write *text* (str or bytes) to *path* via a unique same-directory
    temp + rename.

    The temp name embeds the pid and a process-local counter, so two
    workers publishing the same path never truncate each other's temp
    file mid-replace; ``os.replace`` makes the final publish atomic.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    try:
        tmp.write_bytes(text if isinstance(text, bytes) else text.encode())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_checkpoint(path, state: Dict, meta: Dict) -> Path:
    """Atomically write a checkpoint file; returns the final path."""
    path = Path(path)
    body = json.dumps({"meta": meta, "state": state}).encode()
    header = {"format": CKPT_FORMAT, "schema": CKPT_SCHEMA,
              "cycle": int(state.get("cycle", -1)),
              "sha256": hashlib.sha256(body).hexdigest()}
    atomic_write_text(path, json.dumps(header).encode() + b"\n" + body)
    hook = _TEST_HOOK
    if hook is not None:
        hook(header["cycle"], path)
    return path


def read_checkpoint(path) -> Dict:
    """Load and verify a checkpoint file; raises :class:`CheckpointError`.

    Returns ``{"format", "schema", "meta", "state"}``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except OSError as err:
        raise CheckpointError(f"unreadable checkpoint {path}: {err}") from None
    head, newline, body = raw.partition(b"\n")
    try:
        header = json.loads(head) if newline else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"unreadable checkpoint {path}: no header line")
    if header.get("format") != CKPT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has container format "
            f"{header.get('format')!r}; this build reads {CKPT_FORMAT}")
    if header.get("schema") != CKPT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has state schema {header.get('schema')!r}; "
            f"this build reads {CKPT_SCHEMA}")
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise CheckpointError(f"checksum mismatch in checkpoint {path}")
    return {"format": CKPT_FORMAT, "schema": CKPT_SCHEMA, **json.loads(body)}


def inspect_checkpoint(path) -> Dict:
    """Summary of a checkpoint (validates it as a side effect).

    Returns plain data fit for ``repro ckpt inspect``: versions, checksum
    status, the file's size, the snapshot cycle, the number of stored
    global-memory pages, the stored meta, and per-SM occupancy.
    """
    # Deferred import: repro.ckpt must stay importable without triggering
    # the simulator package (serde pulls in the exec engine).
    from repro.sim.serde import event_kind_summary

    payload = read_checkpoint(path)
    state = payload["state"]
    sms = []
    for sm in state.get("sms", []):
        sms.append({
            "resident_blocks": len(sm.get("blocks", {})),
            "live_warps": sum(1 for w in sm.get("warps", []) if w is not None),
            "queued_events": len(sm.get("events", [])),
            "event_kinds": event_kind_summary(sm.get("events", [])),
        })
    return {
        "path": str(path),
        "format": payload["format"],
        "schema": payload["schema"],
        "checksum": "ok",
        "bytes": Path(path).stat().st_size,
        "cycle": state.get("cycle"),
        "global_pages": len(state.get("memory", {}).get("image", {})
                            .get("global", {}).get("pages", {})),
        "next_block_index": state.get("next_block_index"),
        "meta": payload.get("meta", {}),
        "sms": sms,
    }
