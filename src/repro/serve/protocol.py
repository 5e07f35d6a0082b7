"""The ``repro.serve/1`` wire protocol: newline-delimited JSON over TCP.

One request per line, one response per line, in request order.  Requests
carry a client-chosen ``id`` that the response echoes, so clients may
*pipeline* -- write many requests before reading any response -- which is
how a single connection sustains hundreds of events per second: the events
that queue while one batch optimises share the next (see docs/serving.md).

Request shape::

    {"op": "demand", "id": 7, "commodity": "c1", "rate": 3.5}\n

Response shape::

    {"schema": "repro.serve/1", "id": 7, "ok": true, "op": "demand",
     "decision": "admit", "epoch": 12, "current_epoch": 12, ...}\n

Ops
---
``hello``      server + model summary (includes the full model spec, so a
               load driver can generate replayable traces against it)
``stats``      epoch, utility, admitted rates, serve counters (read-only,
               answered immediately from the latest published epoch)
``admit``      a new stream session arrives (``commodity``: the spec dict
               of :func:`repro.io.commodity_to_dict`)
``depart``     session leaves (``commodity``: name)
``demand``     session changes its offered rate (``commodity``, ``rate``)
``capacity``   node compute budget changes (``node``, ``capacity``)
``link_down``  physical link fails (``link``: [tail, head])
``node_down``  processing node fails (``node``)
``shutdown``   drain: finish every in-flight request, then close

Error responses set ``ok: false`` and carry ``error.type`` /
``error.code`` / ``error.message``; the codes follow HTTP idiom --
``bad_request`` (400), ``overloaded`` (429, request-queue backpressure),
``unavailable`` (503, background optimizer down).  A *rejected* admission
is **not** an error: the response has ``ok: true`` and
``decision: "reject"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.exceptions import ServeRequestError
from repro.io import commodity_from_dict, commodity_to_dict
from repro.online.events import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NetworkEvent,
    NodeFailure,
)

__all__ = [
    "SERVE_SCHEMA",
    "MAX_LINE_BYTES",
    "EVENT_OPS",
    "READ_OPS",
    "Request",
    "parse_request",
    "encode_request",
    "encode_response",
    "decode_response",
    "error_response",
    "request_to_event",
    "event_to_request",
]

SERVE_SCHEMA = "repro.serve/1"

# one request must fit one line; a commodity spec for a few thousand nodes
# is ~100 KB of JSON, so 4 MB is generous without letting a broken client
# buffer the server into the ground
MAX_LINE_BYTES = 4 * 1024 * 1024

# ops that mutate the model (batched through the window) vs read-only ops
# (answered immediately from the latest published epoch)
EVENT_OPS = ("admit", "depart", "demand", "capacity", "link_down", "node_down")
READ_OPS = ("hello", "stats")
CONTROL_OPS = ("shutdown",)

ERROR_CODES = {"bad_request": 400, "overloaded": 429, "unavailable": 503}


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    op: str
    id: Any = None
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_event(self) -> bool:
        return self.op in EVENT_OPS


def parse_request(line: bytes) -> Request:
    """Parse one request line; raises :class:`ServeRequestError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeRequestError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeRequestError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServeRequestError("request must be a JSON object")
    op = doc.get("op")
    if op not in EVENT_OPS + READ_OPS + CONTROL_OPS:
        raise ServeRequestError(
            f"unknown op {op!r}; expected one of "
            f"{sorted(EVENT_OPS + READ_OPS + CONTROL_OPS)}"
        )
    payload = {k: v for k, v in doc.items() if k not in ("op", "id")}
    return Request(op=op, id=doc.get("id"), payload=payload)


def encode_request(op: str, id: Any = None, **payload: Any) -> bytes:
    """One request line (client side)."""
    doc: Dict[str, Any] = {"op": op}
    if id is not None:
        doc["id"] = id
    doc.update(payload)
    return json.dumps(doc).encode() + b"\n"


def encode_response(
    request_id: Any, op: str, ok: bool = True, **fields: Any
) -> bytes:
    """One response line (server side)."""
    doc: Dict[str, Any] = {"schema": SERVE_SCHEMA, "id": request_id, "op": op,
                           "ok": ok}
    doc.update(fields)
    return json.dumps(doc).encode() + b"\n"


def decode_response(line: bytes) -> Dict[str, Any]:
    """Parse one response line; raises :class:`ServeRequestError` on junk."""
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeRequestError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SERVE_SCHEMA:
        raise ServeRequestError(
            f"response is not a {SERVE_SCHEMA} document: {line[:200]!r}"
        )
    return doc


def error_response(
    request_id: Any, op: str, error_type: str, message: str
) -> bytes:
    """An ``ok: false`` response line with an HTTP-idiom error code."""
    return encode_response(
        request_id,
        op,
        ok=False,
        error={
            "type": error_type,
            "code": ERROR_CODES.get(error_type, 500),
            "message": message,
        },
    )


def _require(payload: Dict[str, Any], key: str, kind: Any) -> Any:
    value = payload.get(key)
    if (
        not isinstance(value, kind)
        or isinstance(value, bool)
        or (kind is str and not value)
    ):
        wanted = getattr(kind, "__name__", None) or "number"
        raise ServeRequestError(f"field {key!r} must be a non-empty {wanted}")
    return value


def request_to_event(request: Request, at_iteration: int = 0) -> NetworkEvent:
    """Compile an event-op request into the matching online event.

    ``at_iteration`` is the model's notion of logical time; the daemon
    passes its current epoch so traces stay replayable offline.
    """
    op, payload = request.op, request.payload
    try:
        if op == "admit":
            spec = payload.get("commodity")
            if not isinstance(spec, dict):
                raise ServeRequestError(
                    "admit needs a 'commodity' spec object "
                    "(repro.io.commodity_to_dict format)"
                )
            return CommodityArrival(
                at_iteration=at_iteration, commodity=commodity_from_dict(spec)
            )
        if op == "depart":
            return CommodityDeparture(
                at_iteration=at_iteration,
                commodity=_require(payload, "commodity", str),
            )
        if op == "demand":
            return DemandChange(
                at_iteration=at_iteration,
                commodity=_require(payload, "commodity", str),
                new_rate=float(_require(payload, "rate", (int, float))),
            )
        if op == "capacity":
            return CapacityChange(
                at_iteration=at_iteration,
                node=_require(payload, "node", str),
                new_capacity=float(_require(payload, "capacity", (int, float))),
            )
        if op == "link_down":
            link = payload.get("link")
            if (
                not isinstance(link, (list, tuple))
                or len(link) != 2
                or not all(isinstance(x, str) and x for x in link)
            ):
                raise ServeRequestError(
                    "link_down needs 'link': [tail, head]"
                )
            return LinkFailure(
                at_iteration=at_iteration, link=(link[0], link[1])
            )
        if op == "node_down":
            return NodeFailure(
                at_iteration=at_iteration, node=_require(payload, "node", str)
            )
    except ServeRequestError:
        raise
    except Exception as exc:  # bad spec contents (utility, edges, rates...)
        raise ServeRequestError(f"invalid {op} request: {exc}") from exc
    raise ServeRequestError(f"op {request.op!r} is not an event op")


def event_to_request(
    event: NetworkEvent, id: Any = None
) -> "tuple[str, Dict[str, Any]]":
    """The ``(op, payload)`` pair that replays ``event`` over the wire.

    The inverse of :func:`request_to_event` (modulo ``at_iteration``, which
    the server re-stamps); used by the load driver to replay churn traces.
    """
    if isinstance(event, CommodityArrival):
        assert event.commodity is not None
        return "admit", {"commodity": commodity_to_dict(event.commodity)}
    if isinstance(event, CommodityDeparture):
        return "depart", {"commodity": event.commodity}
    if isinstance(event, DemandChange):
        return "demand", {"commodity": event.commodity, "rate": event.new_rate}
    if isinstance(event, CapacityChange):
        return "capacity", {"node": event.node, "capacity": event.new_capacity}
    if isinstance(event, LinkFailure):
        return "link_down", {"link": list(event.link)}
    if isinstance(event, NodeFailure):
        return "node_down", {"node": event.node}
    raise ServeRequestError(f"unknown event type {type(event).__name__}")
