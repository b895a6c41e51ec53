"""ETags derived from RunSpec digests — stable across server restarts.

A served document is a pure function of (figure schema, figure name, the
content addresses of the runs it was computed from).  Hashing exactly
those inputs gives a *strong* validator that costs nothing to recompute
on a cache hit, never needs to be stored, and is identical on every
server instance sharing the cache — so ``If-None-Match`` revalidation
keeps working across restarts and across replicas.

Raw result endpoints use the RunSpec digest itself (quoted) as the ETag;
figure/suite endpoints hash the sorted role→digest mapping together with
the figure name and :data:`~repro.serve.figures.SERVE_SCHEMA`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ckpt import canonical_sha256
from repro.serve.figures import SERVE_SCHEMA


def quote(tag: str) -> str:
    """An opaque validator in HTTP quoted form."""
    return f'"{tag}"'


def result_etag(digest: str) -> str:
    """ETag of a raw result payload: its content address, quoted."""
    return quote(digest)


def document_etag(figure: str, digests: Dict[str, Dict[str, str]]) -> str:
    """ETag of a figure/suite document computed from *digests*
    (``{abbr: {role: RunSpec digest}}``)."""
    payload = {"schema": SERVE_SCHEMA, "figure": figure, "runs": digests}
    return quote("doc-" + canonical_sha256(payload)[:40])


def stale_etag(etag: str) -> str:
    """The validator of the *stale-marked* rendering of a document.

    A stale degraded response (circuit breaker open, DESIGN.md §17) has a
    different body than the fresh one — it carries ``"stale": true`` — so
    it must carry a different strong validator, or a client that cached
    the stale body would 304-revalidate against the fresh document
    forever.  Deriving it from the fresh ETag keeps it stable across
    servers and restarts for the same underlying runs.
    """
    return quote("stale-" + etag.strip('"'))


def parse_if_none_match(header: str) -> List[str]:
    """The validators of an ``If-None-Match`` header (``*`` included).

    Weak prefixes (``W/``) are stripped: for 304 revalidation weak
    comparison is allowed, and our validators are all strong anyway.
    """
    tags = []
    for part in header.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("W/"):
            part = part[2:]
        tags.append(part)
    return tags


def matches(etag: str, if_none_match: str) -> bool:
    """Would a conditional GET with *if_none_match* revalidate *etag*?"""
    tags = parse_if_none_match(if_none_match)
    return "*" in tags or etag in tags
