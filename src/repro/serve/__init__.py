"""``repro.serve``: admission control as a service on the delta core.

The daemon (:class:`AdmissionServer`) owns a live epoch-versioned model
on the serial engine, accepts admit/depart/demand-change requests
over the newline-delimited JSON ``repro.serve/1`` protocol, and
group-commits them: the moment the optimizer is free it takes everything
queued as one batch of few :class:`~repro.core.delta.ProblemDelta`
applications.  It answers from the latest *converged, validated* epoch
while a background task re-optimises.

See docs/serving.md for the protocol spec and deployment guidance, and
``examples/serve_demo.py`` for an end-to-end walkthrough.
"""

from repro.serve.batching import BatchQueue, merge_scalar_run, plan_batch
from repro.serve.protocol import (
    EVENT_OPS,
    MAX_LINE_BYTES,
    READ_OPS,
    SERVE_SCHEMA,
    Request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
    event_to_request,
    parse_request,
    request_to_event,
)
from repro.serve.server import AdmissionServer, ServeConfig, ServerThread
from repro.serve.session import (
    SERVE_CHECKS,
    EpochSnapshot,
    EventOutcome,
    ServeSession,
)

_CLIENT_EXPORTS = ("ServeClient", "ReplayReport", "replay_trace")


def __getattr__(name):
    # the client is imported lazily so `python -m repro.serve.client` does
    # not re-execute a module the package import already loaded (runpy's
    # "found in sys.modules" warning)
    if name in _CLIENT_EXPORTS:
        from repro.serve import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SERVE_SCHEMA",
    "SERVE_CHECKS",
    "EVENT_OPS",
    "READ_OPS",
    "MAX_LINE_BYTES",
    "Request",
    "parse_request",
    "encode_request",
    "encode_response",
    "decode_response",
    "error_response",
    "request_to_event",
    "event_to_request",
    "plan_batch",
    "merge_scalar_run",
    "BatchQueue",
    "EventOutcome",
    "EpochSnapshot",
    "ServeSession",
    "ServeConfig",
    "AdmissionServer",
    "ServerThread",
    "ServeClient",
    "ReplayReport",
    "replay_trace",
]
