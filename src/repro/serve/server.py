"""The asyncio HTTP scoring tier: ``POST /score`` over a fitted model.

Stdlib only — ``asyncio`` streams plus hand-parsed HTTP/1.1 (the
request grammar a scoring endpoint needs is tiny: request line,
headers, ``Content-Length`` body, keep-alive).  Three endpoints:

- ``POST /score`` — body ``{"row": [...]}`` or ``{"rows": [[...], ...]}``;
  answers ``{"scores": [...], "model": {...}, "batched_rows": b}`` where
  ``batched_rows`` is the size of the engine batch this request rode in
  (the micro-batching win, made observable).
- ``GET /healthz`` — liveness plus the batching counters, model
  version/generation, and uptime.  When telemetry is on the counters
  are *reads of the metrics registry*, so ``/healthz`` and
  ``/metrics`` can never drift apart.
- ``GET /model`` — what is being served: spec, registry version,
  fingerprint, swap count.
- ``GET /metrics`` — the Prometheus text exposition
  (:mod:`repro.obs`): batcher, watcher, walk-engine, and
  distance-counter families plus HTTP request counters/latency
  histograms.  ``metrics=False`` disables the whole telemetry tier
  (the route 404s and the hot paths skip every hook).

Telemetry rides each ``/score`` request as a
:class:`~repro.obs.tracing.RequestTrace`: parse → queue wait → engine
batch → walk (the batch's nearest-inlier walk: the compiled kernel call
and the exact re-measurement of its candidates) → respond, emitted as
one JSON access-log line per request when
``repro serve --log-level info`` configures the serving loggers.
Scores are bit-identical with telemetry on or off — the only hook on
the numeric path is a counting proxy that delegates to the same
kernels.

Requests pass through :class:`~repro.serve.batching.MicroBatcher`, so
concurrent single-row clients are scored as one engine batch.  Each
batch is scored on an executor thread, off the event loop, so the loop
keeps accepting and coalescing requests while a batch is being scored;
the compiled nearest walk releases the GIL for its one call per batch.

The serving boundary is hardened: malformed JSON, wrong-width rows,
non-finite values, and oversized batches come back as structured 4xx
JSON errors (``{"error": {"code": ..., "message": ...}}``), never as
connection-killing 500s.  Width checking reuses the same
:func:`repro.utils.validation.as_batch_rows` guard every other serving
path goes through.

Hot swap: :meth:`ScoringServer.swap_model` atomically replaces the
served :class:`ServedModel` *between* engine batches — each batch
dispatch snapshots the holder once, so in-flight batches drain against
the model they started with while new batches score on the new version
(see :mod:`repro.serve.watcher` for the registry-polling side).
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
import weakref
from dataclasses import dataclass
from http import HTTPStatus

import numpy as np

from repro.api.base import FittedModel
from repro.metric.base import MetricSpace
from repro.metric.instrumentation import CountingMetricSpace, DistanceCounter
from repro.obs import MetricsRegistry, RequestTrace, bind_process_sinks
from repro.obs.tracing import access_logger
from repro.serve.batching import BatcherClosed, BatcherOverloaded, MicroBatcher
from repro.utils.validation import as_batch_rows

#: Routes exposed as their own label value on the HTTP request
#: families; anything else collapses to "other" (bounded cardinality).
_KNOWN_ROUTES = ("/score", "/healthz", "/metrics", "/model")

#: Largest request line / header line the parser accepts.
_MAX_HEADER_LINE = 8192
#: Largest request body (bytes) the parser accepts before 413.
_MAX_BODY_BYTES = 32 * 1024 * 1024


class HttpError(Exception):
    """A structured client-facing error (becomes a 4xx JSON response).

    ``retry_after`` (seconds) adds a ``Retry-After`` header — the 429
    overload path uses it to tell clients when the backlog should have
    drained.
    """

    def __init__(
        self,
        status: HTTPStatus,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """One line off the wire (``b""`` at EOF), or ``None`` when it is
    longer than ``_MAX_HEADER_LINE``.

    Past the stream's own buffer limit (64 KiB) ``readline`` raises
    ``ValueError`` instead of returning the line; that is a long line too.
    """
    try:
        line = await reader.readline()
    except ValueError:
        return None
    return None if len(line) > _MAX_HEADER_LINE else line


@dataclass(frozen=True)
class ServedModel:
    """One immutable generation of the served model.

    Swaps replace the whole object, so a batch that snapshotted one
    generation keeps a consistent (model, metadata) pair for its
    entire dispatch.
    """

    model: FittedModel
    spec: str | None = None
    version: int | None = None
    fingerprint: str | None = None
    generation: int = 0

    @property
    def dimensionality(self) -> int:
        return int(np.asarray(self.model.training_data).shape[1])

    def describe(self) -> dict:
        return {
            "spec": self.spec if self.spec is not None else self.model.spec,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "n_fitted": self.model.n_fitted,
            "dimensionality": self.dimensionality,
        }


class ScoringServer:
    """Serve one fitted model over HTTP with adaptive micro-batching.

    Parameters
    ----------
    model:
        The fitted model to serve (vector data: the HTTP boundary is
        JSON rows).  Must retain its training data — the width guard
        needs it.
    spec, version, fingerprint:
        Registry metadata surfaced by ``GET /model`` and used by the
        hot-swap watcher.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    window_s, max_batch:
        Micro-batching knobs (see :class:`MicroBatcher`).
    max_rows:
        Largest row count one request may carry (413 above it).
    max_pending:
        Cap on requests waiting in the micro-batch queue; past it new
        ``/score`` requests are shed with a structured 429 carrying a
        ``Retry-After`` drain estimate (``None`` = unbounded, the old
        behavior).  Everything accepted before the cap still scores
        and answers — overload sheds, it never corrupts or stalls.
    backlog:
        Listen-socket accept backlog handed to ``asyncio.start_server``
        — the second, kernel-level bound on how much unserved work can
        pile up behind the HTTP boundary.
    metrics:
        ``True`` (default) builds this server's
        :class:`~repro.obs.MetricsRegistry`, serves it as
        ``GET /metrics``, and traces every ``/score`` request.
        ``False`` turns the telemetry tier off entirely — no registry,
        no traces, no per-batch observation (the overhead baseline the
        obs bench measures against).
    """

    def __init__(
        self,
        model: FittedModel,
        *,
        spec: str | None = None,
        version: int | None = None,
        fingerprint: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        window_s: float = 0.002,
        max_batch: int = 256,
        max_rows: int = 4096,
        max_pending: int | None = None,
        backlog: int = 128,
        metrics: bool = True,
    ):
        if model.training_data is None or np.asarray(model.training_data).ndim != 2:
            raise TypeError(
                "ScoringServer needs a vector model that retains its training "
                "data (the serving boundary validates request width against it)"
            )
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        self.host = host
        self._requested_port = int(port)
        self.max_rows = int(max_rows)
        self.backlog = int(backlog)
        self._served = ServedModel(
            model,
            spec=spec,
            version=version,
            fingerprint=fingerprint,
            generation=0,
        )
        self.swaps = 0
        self.batcher = MicroBatcher(
            self._score_block, window_s=window_s, max_batch=max_batch,
            max_pending=max_pending,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopping = False
        self.requests_served = 0
        self._started_perf = time.perf_counter()
        self._access_log = access_logger()
        #: one DistanceCounter across every served generation, so the
        #: distance families stay monotonic through hot swaps
        self._distance_counter = DistanceCounter()
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics else None
        )
        if self.metrics is not None:
            self._bind_metrics()
            self._instrument_generation(self._served)

    # -- telemetry -----------------------------------------------------------

    def _bind_metrics(self) -> None:
        """Register every family this server exposes on ``/metrics``.

        Existing signal sources surface as callback families (the
        registry reads the counters the components already maintain);
        only genuinely new measurements — HTTP counters/latency and batch
        histograms — are registry instruments.
        """
        reg = self.metrics
        bind_process_sinks(reg)  # walk + engine process sinks
        self.batcher.bind_metrics(reg)
        self._m_http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests answered, by route and status code",
            labelnames=("route", "code"),
        )
        self._m_http_seconds = reg.histogram(
            "repro_http_request_seconds",
            "End-to-end request seconds, by route",
            labelnames=("route",),
        )
        reg.register_callback(
            "repro_http_inflight", "gauge",
            "Requests currently being handled",
            lambda: self._inflight,
        )
        reg.register_callback(
            "repro_server_uptime_seconds", "gauge",
            "Seconds since this server was constructed",
            lambda: time.perf_counter() - self._started_perf,
        )
        reg.register_callback(
            "repro_model_generation", "gauge",
            "Generation of the served model (increments on hot swap)",
            lambda: self._served.generation,
        )
        reg.register_callback(
            "repro_model_version", "gauge",
            "Registry version being served (-1 = unversioned)",
            lambda: -1 if self._served.version is None else self._served.version,
        )
        reg.register_callback(
            "repro_model_swaps_total", "counter",
            "Hot model swaps performed by this server",
            lambda: self.swaps,
        )
        counter = self._distance_counter
        reg.register_callback(
            "repro_distance_evaluations_total", "counter",
            "Distance evaluations in the serving score path, by call shape",
            lambda: {("scalar",): counter.scalar_calls, ("bulk",): counter.bulk_pairs},
            labelnames=("kind",),
        )
        reg.register_callback(
            "repro_distance_bulk_calls_total", "counter",
            "Bulk distance-kernel dispatches in the serving score path",
            lambda: counter.bulk_calls,
        )
        reg.register_callback(
            "repro_distance_seconds_total", "counter",
            "Seconds inside the serving distance kernels",
            lambda: counter.seconds,
        )
        #: (route, code) -> (counter child, histogram child): skips the
        #: family labels() lookup on the per-request path.  Bounded by
        #: _KNOWN_ROUTES x status codes actually answered.
        self._http_children: dict[tuple[str, int], tuple] = {}

    def _instrument_generation(self, served: ServedModel) -> None:
        """Route one generation's distance traffic through the counter.

        The served core's :class:`MetricSpace` is replaced with a
        *timed* :class:`CountingMetricSpace` proxy sharing the
        server-wide :class:`DistanceCounter`.  The proxy delegates to
        the same kernels, so scores stay bit-identical; models without
        a metric space (the array baselines) are left untouched.
        """
        core = getattr(served.model, "model", None)
        space = getattr(core, "space", None)
        if isinstance(space, CountingMetricSpace):
            # a previous server (or run) already wrapped this model —
            # rewrap the same inner space so THIS server's counter sees
            # the traffic instead of the stale one
            space = space._inner
        if isinstance(space, MetricSpace):
            core.space = CountingMetricSpace(
                space, counter=self._distance_counter, timed=True
            )

    # -- model generations ---------------------------------------------------

    @property
    def served(self) -> ServedModel:
        """The current generation (snapshot this once per use)."""
        return self._served

    def swap_model(
        self,
        model: FittedModel,
        *,
        spec: str | None = None,
        version: int | None = None,
        fingerprint: str | None = None,
    ) -> ServedModel:
        """Atomically serve ``model`` from the next engine batch on.

        In-flight batches hold their own :class:`ServedModel` snapshot
        and drain against the old generation; nothing is interrupted.
        """
        old = self._served
        self._served = ServedModel(
            model,
            spec=spec if spec is not None else old.spec,
            version=version,
            fingerprint=fingerprint if fingerprint is not None else old.fingerprint,
            generation=old.generation + 1,
        )
        self.swaps += 1
        if self.metrics is not None:
            self._instrument_generation(self._served)
        return self._served

    # -- scoring -------------------------------------------------------------

    async def _score_block(self, rows: np.ndarray):
        """Score one formed batch on an executor thread.

        The generation snapshot happens here — once per engine batch —
        which is exactly the "swap between batches" contract.  With
        telemetry on the return is ``(scores, extras)``: batch facts
        the micro-batcher stamps onto every coalesced request's trace
        (inner kernel seconds, the generation/version snapshot).
        ``walk_s`` is the timed proxy's seconds delta:
        the compiled walk credits its kernel call there
        (:meth:`~repro.metric.base.MetricSpace.credit_evaluations`) and
        the proxy times the exact re-measurement, so the ``walk`` span
        covers the whole nearest-inlier walk.  The delta is race-free
        because the batcher dispatches batches strictly sequentially.
        """
        served = self._served
        before = self._distance_counter.seconds
        scores = await asyncio.get_running_loop().run_in_executor(
            None, lambda: np.asarray(served.model.score_batch(rows))
        )
        if self.metrics is None:
            return scores
        return scores, {
            "generation": served.generation,
            "model_version": served.version,
            "walk_s": self._distance_counter.seconds - before,
        }

    def _parse_rows(self, body: bytes) -> np.ndarray:
        """Request body -> validated ``(b, d)`` rows, or a structured 4xx."""
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "bad_json", f"request body is not JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict) or ("row" in payload) == ("rows" in payload):
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                "bad_request",
                'body must be a JSON object with exactly one of "row" '
                '(one vector) or "rows" (a list of vectors)',
            )
        raw = [payload["row"]] if "row" in payload else payload["rows"]
        try:
            rows = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                "bad_batch",
                f"rows are not numeric vectors of one width: {exc}",
            ) from exc
        if rows.size == 0:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "bad_batch", "rows must not be empty"
            )
        if rows.ndim > 2:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                "bad_batch",
                f"rows must be vectors, got a {rows.ndim}-dimensional block",
            )
        if rows.ndim == 2 and rows.shape[0] > self.max_rows:
            raise HttpError(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                "too_many_rows",
                f"request carries {rows.shape[0]} rows; this server accepts "
                f"at most {self.max_rows} per request",
            )
        try:
            rows = as_batch_rows(rows, self._served.dimensionality)
        except ValueError as exc:
            raise HttpError(HTTPStatus.BAD_REQUEST, "bad_batch", str(exc)) from exc
        if not np.isfinite(rows).all():
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                "non_finite",
                "rows contain NaN or infinite values",
            )
        return rows

    async def _handle_score(
        self, body: bytes, trace: RequestTrace | None = None
    ) -> dict:
        if trace is not None:
            with trace.span("parse"):
                rows = self._parse_rows(body)
            trace.annotate(rows=int(rows.shape[0]))
        else:
            rows = self._parse_rows(body)
        try:
            scores, batched_rows = await self.batcher.submit(rows, trace)
        except BatcherOverloaded as exc:
            raise HttpError(
                HTTPStatus.TOO_MANY_REQUESTS,
                "overloaded",
                str(exc),
                retry_after=exc.retry_after,
            ) from exc
        except BatcherClosed as exc:
            raise HttpError(
                HTTPStatus.SERVICE_UNAVAILABLE, "draining", str(exc)
            ) from exc
        # the generation as of response time: the batch dispatch takes its
        # own snapshot, so under a mid-request swap this block names the
        # newest generation the scores could have come from
        served = self._served
        if trace is not None:
            trace.annotate(batched_rows=batched_rows)
        return {
            "scores": np.asarray(scores, dtype=np.float64).tolist(),
            "model": served.describe(),
            "batched_rows": batched_rows,
        }

    # -- http plumbing -------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request off the wire: ``(method, path, headers, body)``.

        Returns ``None`` on clean EOF (client closed a keep-alive
        connection between requests).
        """
        try:
            line = await _read_line(reader)
        except ConnectionError:
            return None
        if line is None:
            raise HttpError(
                HTTPStatus.REQUEST_URI_TOO_LONG, "bad_request", "request line too long"
            )
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "bad_request", "malformed request line"
            )
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if not line:  # too long, or EOF inside the headers
                raise HttpError(
                    HTTPStatus.BAD_REQUEST, "bad_request", "malformed headers"
                )
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(
                    HTTPStatus.BAD_REQUEST, "bad_request", "malformed header line"
                )
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            n = int(length)
        except ValueError:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "bad_request", "bad Content-Length"
            ) from None
        if n < 0 or n > _MAX_BODY_BYTES:
            raise HttpError(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                "body_too_large",
                f"request body of {n} bytes exceeds {_MAX_BODY_BYTES}",
            )
        body = await reader.readexactly(n) if n else b""
        return method, target, headers, body

    @staticmethod
    def _encode_response(
        status: HTTPStatus,
        payload,
        *,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> bytes:
        if isinstance(payload, str):
            # raw text body (the /metrics exposition)
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        extra = ""
        if extra_headers:
            extra = "".join(f"{k}: {v}\r\n" for k, v in extra_headers.items())
        head = (
            f"HTTP/1.1 {status.value} {status.phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    def _healthz_payload(self) -> dict:
        """The liveness body.

        With telemetry on, the served-traffic counters are *reads of
        the metrics registry* (summed over label children) — the same
        numbers ``/metrics`` exposes, by construction.  With telemetry
        off they read the component attributes directly; either way the
        bookkeeping lives in one place.
        """
        if self.metrics is not None:
            reg = self.metrics
            counters = {
                "requests_served": int(
                    reg.read("repro_http_requests_total", match={"code": "200"})
                ),
                "batches_dispatched": int(reg.read("repro_batcher_batches_total")),
                "rows_scored": int(reg.read("repro_batcher_rows_scored_total")),
                "requests_shed": int(reg.read("repro_batcher_requests_shed_total")),
                "swaps": int(reg.read("repro_model_swaps_total")),
            }
        else:
            counters = {
                "requests_served": self.requests_served,
                "batches_dispatched": self.batcher.batches_dispatched,
                "rows_scored": self.batcher.rows_scored,
                "requests_shed": self.batcher.requests_shed,
                "swaps": self.swaps,
            }
        served = self._served
        return {
            "status": "draining" if self._stopping else "ok",
            **counters,
            "mean_batch_rows": round(self.batcher.mean_batch_rows, 3),
            "largest_batch": self.batcher.largest_batch,
            "pending": self.batcher.pending,
            "max_pending": self.batcher.max_pending,
            "ewma_batch_s": round(self.batcher.ewma_batch_s, 6),
            "window_s": self.batcher.window_s,
            "max_batch": self.batcher.max_batch,
            "model_version": served.version,
            "generation": served.generation,
            "uptime_s": round(time.perf_counter() - self._started_perf, 3),
        }

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        trace: RequestTrace | None = None,
    ) -> tuple:
        path = target.split("?", 1)[0]
        if path == "/score":
            if method != "POST":
                raise HttpError(
                    HTTPStatus.METHOD_NOT_ALLOWED,
                    "method_not_allowed",
                    "use POST /score",
                )
            return HTTPStatus.OK, await self._handle_score(body, trace)
        if path == "/healthz":
            if method != "GET":
                raise HttpError(
                    HTTPStatus.METHOD_NOT_ALLOWED,
                    "method_not_allowed",
                    "use GET /healthz",
                )
            return HTTPStatus.OK, self._healthz_payload()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(
                    HTTPStatus.METHOD_NOT_ALLOWED,
                    "method_not_allowed",
                    "use GET /metrics",
                )
            if self.metrics is None:
                raise HttpError(
                    HTTPStatus.NOT_FOUND,
                    "metrics_disabled",
                    "telemetry is disabled on this server (metrics=False)",
                )
            return HTTPStatus.OK, self.metrics.render()
        if path == "/model":
            if method != "GET":
                raise HttpError(
                    HTTPStatus.METHOD_NOT_ALLOWED,
                    "method_not_allowed",
                    "use GET /model",
                )
            return HTTPStatus.OK, self._served.describe()
        raise HttpError(
            HTTPStatus.NOT_FOUND,
            "not_found",
            f"no route {path!r}; try POST /score, GET /healthz, "
            "GET /metrics, GET /model",
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._stopping:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    writer.write(self._error_response(exc, keep_alive=False))
                    await writer.drain()
                    return
                except asyncio.IncompleteReadError:
                    return
                if request is None:
                    return
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                path = target.split("?", 1)[0]
                # Traces feed the access log and nothing else (the
                # latency/batch histograms time themselves), so an
                # unconfigured logger skips the whole span machinery.
                logging_on = self._access_log.isEnabledFor(logging.INFO)
                trace = RequestTrace() if path == "/score" and logging_on else None
                started = time.perf_counter()
                self._inflight += 1
                self._idle.clear()
                try:
                    status, payload = await self._route(method, target, body, trace)
                    response = self._encode_response(
                        status, payload, keep_alive=keep_alive
                    )
                    self.requests_served += 1
                    code = status.value
                except HttpError as exc:
                    response = self._error_response(exc, keep_alive=keep_alive)
                    code = exc.status.value
                    if trace is not None:
                        trace.annotate(error=exc.code)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if trace is not None:
                    with trace.span("respond"):
                        writer.write(response)
                        await writer.drain()
                else:
                    writer.write(response)
                    await writer.drain()
                if self.metrics is not None:
                    route = path if path in _KNOWN_ROUTES else "other"
                    fast = self._http_children.get((route, code))
                    if fast is None:
                        fast = (
                            self._m_http_requests.labels(route, str(code)),
                            self._m_http_seconds.labels(route),
                        )
                        self._http_children[(route, code)] = fast
                    fast[0].inc()
                    fast[1].observe(time.perf_counter() - started)
                if trace is not None:
                    self._access_log.info(
                        trace.record(method=method, path=path, status=code)
                    )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / server shutting down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _error_response(self, exc: HttpError, *, keep_alive: bool) -> bytes:
        headers = None
        if exc.retry_after is not None:
            # Retry-After is integer seconds; round up so a sub-second
            # drain estimate never tells clients to retry immediately.
            headers = {"Retry-After": str(max(1, int(-(-exc.retry_after // 1))))}
        return self._encode_response(
            exc.status,
            {"error": {"code": exc.code, "message": exc.message}},
            keep_alive=keep_alive,
            extra_headers=headers,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ScoringServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            backlog=self.backlog,
        )
        return self

    async def serve_forever(self) -> None:  # pragma: no cover - CLI loop
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown: answer everything in flight, then close.

        New connections are refused immediately; requests already being
        processed (including ones waiting in the micro-batch queue) are
        scored and answered before their connections close.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:  # pragma: no cover - pathological batch
            pass
        await self.batcher.drain()
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoringServer({self._served.describe()!r}, "
            f"window_s={self.batcher.window_s})"
        )
