"""Results-as-a-service: an async HTTP query API over the result store.

``repro serve`` exposes the content-addressed result cache over HTTP
(DESIGN.md §15): figure-level queries are answered straight from the
checksummed disk cache with digest-derived ETags, and misses become
durable background jobs on the PR-7 campaign runner behind two stacked
dedup layers (idempotent in-process submission + cross-worker leases).
"""

from repro.serve.app import (DEFAULT_PORT, ResultService, build_router,
                             serve_forever)
from repro.serve.etag import (document_etag, matches, parse_if_none_match,
                              result_etag, stale_etag)
from repro.serve.figures import (FIGURES, SERVE_SCHEMA, FigureDef, LoadedRun,
                                 canonical_json, figure_document,
                                 load_cached, load_via_harness)
from repro.serve.http import (AccessLog, Request, Response, Router,
                              error_response)
from repro.serve.jobs import Job, JobManager, JobQueueFull
from repro.serve.query import (QueryError, QuerySpec, flat_specs,
                               known_workloads, parse_query, required_specs,
                               role_spec)
from repro.serve.resilience import (AdmissionGate, CircuitBreaker,
                                    ResilienceConfig, StaleDocCache,
                                    clamp_deadline)

__all__ = [
    "AccessLog", "AdmissionGate", "CircuitBreaker",
    "DEFAULT_PORT", "FIGURES", "FigureDef", "Job",
    "JobManager", "JobQueueFull", "LoadedRun", "QueryError", "QuerySpec",
    "Request", "ResilienceConfig", "Response", "ResultService", "Router",
    "SERVE_SCHEMA", "StaleDocCache", "build_router", "canonical_json",
    "clamp_deadline", "document_etag", "error_response", "figure_document",
    "flat_specs", "known_workloads", "load_cached", "load_via_harness",
    "matches", "parse_if_none_match", "parse_query", "required_specs",
    "result_etag", "role_spec", "serve_forever", "stale_etag",
]
