"""Deterministic checkpoint/restore of simulator state (DESIGN.md §12).

``repro.ckpt`` turns the simulator's live object graph into a plain-data,
schema-versioned, checksummed snapshot that a fresh process can restore
bit-identically.  Every stateful component exposes an explicit
``state_dict()`` / ``load_state()`` pair — there is no pickling of live
objects, so snapshots survive refactors that preserve the schema and are
human-inspectable JSON.

Layout:

* :mod:`repro.ckpt.codec` — numpy array <-> JSON-safe dict encoding.
* :mod:`repro.ckpt.snapshot` — the on-disk container: a header line
  (format/schema versioning, SHA-256 of the body bytes) before the body,
  atomic unique-temp-name writes, read/verify/inspect helpers, and the
  one canonical-JSON checksum recipe the journal and result cache share.
"""

from repro.ckpt.codec import decode_array, encode_array
from repro.ckpt.snapshot import (
    CKPT_FORMAT,
    CKPT_SCHEMA,
    CheckpointError,
    atomic_write_text,
    canonical_sha256,
    inspect_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "CKPT_FORMAT",
    "CKPT_SCHEMA",
    "CheckpointError",
    "atomic_write_text",
    "canonical_sha256",
    "decode_array",
    "encode_array",
    "inspect_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]
