"""Per-request tracing: span timings and structured JSON access logs.

A :class:`RequestTrace` rides one HTTP request through the serving
tier and collects *spans* — named ``(start, end)`` intervals on the
``time.perf_counter`` clock:

- ``parse`` — request body decoded and validated,
- ``queue_wait`` — sitting in the micro-batch queue waiting for a
  batch slot (marked by the batcher, which knows the enqueue time),
- ``engine_batch`` — the engine batch this request rode in being
  scored (shared by every coalesced request of the batch),
- ``walk`` — the innermost metric-kernel portion of that batch (the
  nearest-inlier walk when serving: its kernel call and its exact
  re-measurement of the candidates),
- ``respond`` — encoding and flushing the response bytes.

The spans share one clock and one origin (trace creation), so their
rendered offsets are mutually ordered: ``parse`` starts before
``queue_wait`` starts before ``engine_batch``, and ``respond`` comes
last — an invariant the tests pin.

Access logs are one JSON object per line on the ``repro.serve.access``
logger (request id, method/path/status, rows, batch generation, model
version, span offsets/durations in ms).  The logger ships with a
``NullHandler`` so a library user pays nothing; ``repro serve
--log-level info`` (or :func:`configure_logging`) attaches a stderr
handler.  Emission is guarded by ``isEnabledFor``, so an unconfigured
process never even builds the record dict.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager

__all__ = [
    "ACCESS_LOGGER",
    "RequestTrace",
    "SPAN_ORDER",
    "access_logger",
    "configure_logging",
    "next_request_id",
]

#: Canonical span order for one ``/score`` request (rendering order;
#: a trace may carry a subset, e.g. error responses skip the batch spans).
SPAN_ORDER = ("parse", "queue_wait", "engine_batch", "walk", "respond")

#: Name of the access-log logger.
ACCESS_LOGGER = "repro.serve.access"

_REQUEST_SEQ = itertools.count(1)
#: Per-process token so request ids from different server processes
#: (or restarts) never collide in aggregated logs.
_PROCESS_TOKEN = f"{os.getpid():x}-{os.urandom(3).hex()}"


def next_request_id() -> str:
    """A process-unique request id, cheap enough for every request."""
    return f"{_PROCESS_TOKEN}-{next(_REQUEST_SEQ)}"


class RequestTrace:
    """Span clock for one request (see module docstring).

    All marks are ``time.perf_counter`` values; :meth:`record` converts
    them to millisecond offsets from trace creation.
    """

    __slots__ = ("request_id", "t0", "spans", "meta")

    def __init__(self, request_id: str | None = None):
        self.request_id = request_id if request_id is not None else next_request_id()
        self.t0 = time.perf_counter()
        self.spans: list[tuple[str, float, float]] = []
        self.meta: dict = {}

    def mark(self, name: str, start: float, end: float) -> None:
        """Record one span from explicit perf_counter marks."""
        self.spans.append((name, start, end))

    @contextmanager
    def span(self, name: str):
        """Time a ``with`` block as one span."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.mark(name, start, time.perf_counter())

    def annotate(self, **fields) -> None:
        """Attach extra fields to the eventual access record."""
        self.meta.update(fields)

    def record(self, **fields) -> dict:
        """The JSON-able access record: meta + fields + ordered spans."""
        spans = {}
        for name, start, end in sorted(self.spans, key=lambda s: s[1]):
            spans[name] = {
                "start_ms": round((start - self.t0) * 1e3, 3),
                "dur_ms": round((end - start) * 1e3, 3),
            }
        out = {"request_id": self.request_id}
        out.update(self.meta)
        out.update(fields)
        out["spans"] = spans
        return out


class JsonLineFormatter(logging.Formatter):
    """Render dict log payloads as one JSON object per line.

    Non-dict messages come out as ``{"msg": "..."}`` so every line of
    the stream stays machine-parseable.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = record.msg
        if not isinstance(payload, dict):
            payload = {"msg": record.getMessage()}
        body = dict(payload)
        body.setdefault("level", record.levelname.lower())
        body.setdefault("logger", record.name)
        body.setdefault("ts", round(record.created, 3))
        return json.dumps(body, separators=(",", ":"), default=str)


def access_logger() -> logging.Logger:
    """The shared access-log logger (NullHandler until configured)."""
    logger = logging.getLogger(ACCESS_LOGGER)
    if not logger.handlers:
        logger.addHandler(logging.NullHandler())
    return logger


def configure_logging(level: str = "info", stream=None) -> logging.Logger:
    """Attach a JSON-lines stderr handler to the serving loggers.

    Called by ``repro serve --log-level``; idempotent (re-configuring
    replaces the handler rather than stacking duplicates).  Returns the
    ``repro.serve`` parent logger.
    """
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    parent = logging.getLogger("repro.serve")
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter())
    for existing in list(parent.handlers):
        if getattr(existing, "_repro_obs_handler", False):
            parent.removeHandler(existing)
    handler._repro_obs_handler = True
    parent.addHandler(handler)
    parent.setLevel(numeric)
    # the access logger propagates to repro.serve; make sure its
    # NullHandler exists but does not block propagation (it never does)
    access_logger()
    return parent
