"""Adaptive micro-batching: coalesce concurrent requests into engine batches.

The whole perf trajectory of this repo (PRs 1/4/6) says the same thing:
the engine is fast *per batch*, not per call.  A scoring server that
forwards each single-row request straight to
:meth:`~repro.api.base.FittedModel.score_batch` pays the full per-call
overhead — batch validation, engine setup, kernel dispatch — once per
row.  :class:`MicroBatcher` moves that overhead to once per *window*:
concurrent requests land in an asyncio queue, a collector task drains
them into one ``(b, d)`` block, scores the block with a single
``score_batch`` call, and fans the score slices back out through
per-request futures.

The batching is *adaptive* in the sense that batch size self-tunes to
the arrival rate between two hard bounds:

- ``window_s`` caps the extra latency any request can pay: the first
  request of a batch waits at most one window for company.  Idle
  traffic therefore serves at (score time + window); saturated traffic
  forms full batches without ever sleeping, because the queue is never
  empty when the collector looks.
- ``max_batch`` caps the rows per engine call, so one burst cannot
  build an unboundedly large (and unboundedly late) batch.

``window_s=0`` disables coalescing entirely — every request is its own
engine batch — which is exactly the per-request baseline the serving
bench contrasts against.

Backpressure is *bounded*, not implicit: ``max_pending`` caps how many
requests may sit in the queue waiting for a batch slot.  Past the cap,
:meth:`MicroBatcher.submit` sheds the request immediately with
:class:`BatcherOverloaded` — carrying a drain-time estimate from an
EWMA of recent batch service times — instead of letting the queue (and
every queued request's latency) grow without limit.  The server maps
that to a structured 429 with a ``Retry-After`` header, so overload
degrades into fast, honest rejections while everything already
accepted still scores and answers.

Correctness rests on a property this repo pins in its differential
tests: scoring is row-independent and the bulk kernels are bitwise
shape-independent (the einsum cross-term of PR 1), so the rows of
``score_batch(concat(r1, r2))`` equal ``score_batch(r1)`` +
``score_batch(r2)`` bit for bit.  ``tests/test_serve.py`` re-pins it
end to end through the HTTP boundary.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Awaitable, Callable

import numpy as np

from repro.obs.tracing import RequestTrace

#: Structured batcher events (the shed WARN) propagate to the
#: ``repro.serve`` parent that ``configure_logging`` attaches to.
_LOG = logging.getLogger("repro.serve.batcher")

#: Queue sentinel: placed after the last accepted request by
#: :meth:`MicroBatcher.drain`, so FIFO order guarantees every real
#: request is dispatched before the collector exits.
_STOP = object()


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` once draining has begun."""


class BatcherOverloaded(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue is at
    ``max_pending``: the request is shed, nothing was enqueued.

    ``retry_after`` estimates (in seconds, >= 1) how long the current
    backlog needs to drain, derived from the EWMA batch service time —
    what the server forwards as the ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


class MicroBatcher:
    """Coalesce concurrent score requests into one engine batch.

    Parameters
    ----------
    score_rows:
        Async callable mapping one ``(b, d)`` float64 block to ``b``
        scores.  Called once per formed batch; the callable decides
        *where* scoring runs (``ScoringServer`` uses an executor thread).
    window_s:
        Maximum seconds the first request of a batch waits for more
        rows.  ``0`` serves strictly per-request.
    max_batch:
        Maximum rows per engine call.
    max_pending:
        Maximum requests allowed to wait in the queue; ``None``
        (default) leaves the queue unbounded.  At the cap,
        :meth:`submit` raises :class:`BatcherOverloaded` without
        enqueuing — bounded backpressure instead of unbounded latency.
    """

    #: EWMA smoothing for the batch service time (0 < alpha <= 1).
    _EWMA_ALPHA = 0.3

    def __init__(
        self,
        score_rows: Callable[[np.ndarray], Awaitable[np.ndarray]],
        *,
        window_s: float = 0.002,
        max_batch: int = 256,
        max_pending: int | None = None,
    ):
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._score_rows = score_rows
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._collector: asyncio.Task | None = None
        self._closed = False
        # served-traffic counters, surfaced by GET /healthz and (via
        # callback families) GET /metrics — one bookkeeping, two views
        self.rows_scored = 0
        self.batches_dispatched = 0
        self.largest_batch = 0
        self.requests_shed = 0
        self.ewma_batch_s = 0.0  # smoothed per-batch service time
        # observation histograms, attached by bind_metrics (None = off)
        self._obs_batch_rows = None
        self._obs_queue_wait = None
        self._obs_service = None

    # -- telemetry -----------------------------------------------------------

    #: Batch-size histogram bounds (rows per engine call; +Inf implicit).
    _ROWS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

    def bind_metrics(self, registry) -> None:
        """Expose this batcher on a :class:`~repro.obs.MetricsRegistry`.

        The served-traffic counters surface as *callback* families (the
        registry reads the same attributes ``/healthz`` reports, so the
        two views cannot drift), and three real histograms start
        observing: rows per engine batch, per-request queue wait, and
        per-batch service time.
        """
        registry.register_callback(
            "repro_batcher_batches_total", "counter",
            "Engine batches dispatched by the micro-batcher",
            lambda: self.batches_dispatched,
        )
        registry.register_callback(
            "repro_batcher_rows_scored_total", "counter",
            "Rows scored through the micro-batcher",
            lambda: self.rows_scored,
        )
        registry.register_callback(
            "repro_batcher_requests_shed_total", "counter",
            "Requests shed at the max_pending backpressure cap",
            lambda: self.requests_shed,
        )
        registry.register_callback(
            "repro_batcher_queue_depth", "gauge",
            "Requests waiting in the micro-batch queue",
            lambda: self.pending,
        )
        registry.register_callback(
            "repro_batcher_ewma_batch_seconds", "gauge",
            "EWMA of engine batch service time (drives Retry-After)",
            lambda: self.ewma_batch_s,
        )
        self._obs_batch_rows = registry.histogram(
            "repro_batch_rows", "Rows per dispatched engine batch",
            buckets=self._ROWS_BUCKETS,
        )
        self._obs_queue_wait = registry.histogram(
            "repro_batch_queue_wait_seconds",
            "Seconds a request waited in the queue for its batch slot",
        )
        self._obs_service = registry.histogram(
            "repro_batch_service_seconds",
            "Seconds per engine batch call (queue excluded)",
        )

    # -- request side --------------------------------------------------------

    async def submit(
        self, rows: np.ndarray, trace: RequestTrace | None = None
    ) -> tuple[np.ndarray, int]:
        """Score ``rows`` (shape ``(b, d)``), coalesced with concurrent calls.

        Returns ``(scores, batched_rows)``: the ``b`` scores for exactly
        these rows — bit-identical to a direct ``score_batch(rows)`` —
        and the total size of the engine batch they rode in (the
        coalescing win, made observable per request).  A ``trace``
        (optional) receives the ``queue_wait`` / ``engine_batch`` /
        ``walk`` spans of the batch these rows rode in.
        """
        if self._closed:
            raise BatcherClosed("server is draining; no new requests accepted")
        if self.max_pending is not None and self._queue.qsize() >= self.max_pending:
            self.requests_shed += 1
            retry_after = self.retry_after_estimate()
            if _LOG.isEnabledFor(logging.WARNING):
                _LOG.warning({
                    "event": "request_shed",
                    "rows": int(rows.shape[0]),
                    "pending": self._queue.qsize(),
                    "max_pending": self.max_pending,
                    "retry_after_s": round(retry_after, 3),
                    "ewma_batch_s": round(self.ewma_batch_s, 6),
                    "requests_shed": self.requests_shed,
                })
            raise BatcherOverloaded(
                f"micro-batch queue is full ({self.max_pending} requests "
                "pending); retry after the backlog drains",
                retry_after,
            )
        self._ensure_collector()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((rows, future, time.perf_counter(), trace))
        return await future

    def retry_after_estimate(self) -> float:
        """Seconds (>= 1) the current backlog should take to drain.

        Pending requests form at least ``ceil(pending / max_batch)``
        engine batches; each costs about one EWMA service time plus one
        coalescing window.  Before any batch has been timed the EWMA is
        0 and the floor of one second applies.
        """
        batches = -(-max(1, self._queue.qsize()) // self.max_batch)
        return max(1.0, batches * (self.ewma_batch_s + self.window_s))

    @property
    def pending(self) -> int:
        """Requests queued but not yet dispatched to the engine."""
        return self._queue.qsize()

    @property
    def mean_batch_rows(self) -> float:
        """Mean rows per engine call so far (1.0 = no coalescing won)."""
        if self.batches_dispatched == 0:
            return 0.0
        return self.rows_scored / self.batches_dispatched

    # -- collector side ------------------------------------------------------

    def _ensure_collector(self) -> None:
        if self._collector is None or self._collector.done():
            self._collector = asyncio.get_running_loop().create_task(
                self._collect(), name="repro-serve-microbatch"
            )

    async def _collect(self) -> None:
        """The batch-forming loop: wait, gather a window, dispatch."""
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            if head is _STOP:
                return
            batch = [head]
            total = head[0].shape[0]
            stop_after = False
            if self.window_s > 0.0:
                deadline = loop.time() + self.window_s
                while total < self.max_batch:
                    if not self._queue.empty():
                        item = self._queue.get_nowait()  # backlog: no sleep
                    else:
                        timeout = deadline - loop.time()
                        if timeout <= 0.0:
                            break
                        try:
                            item = await asyncio.wait_for(self._queue.get(), timeout)
                        except asyncio.TimeoutError:
                            break
                    if item is _STOP:
                        stop_after = True
                        break
                    batch.append(item)
                    total += item[0].shape[0]
            await self._dispatch(batch, total)
            if stop_after:
                return

    async def _dispatch(self, batch: list, total: int) -> None:
        """One engine call for the gathered requests, scores fanned out.

        Concatenation order is queue order; each future receives its
        own contiguous score slice, so interleaving requests never
        mixes rows up.  The score callable may return a bare score
        array or ``(scores, extras)`` where ``extras`` carries batch
        telemetry (inner kernel seconds, the generation snapshot) — the
        tuple form is how the server annotates traces without the
        batcher knowing anything about models.
        """
        requests = [item for item in batch if not item[1].cancelled()]
        if not requests:
            return
        if len(requests) == 1:
            block = requests[0][0]
        else:
            block = np.concatenate([rows for rows, _, _, _ in requests], axis=0)
        started = time.perf_counter()
        try:
            result = await self._score_rows(block)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for _, future, _, _ in requests:
                if not future.done():
                    future.set_exception(exc)
            return
        ended = time.perf_counter()
        extras = None
        scores = result
        if isinstance(result, tuple):
            scores, extras = result
        elapsed = ended - started
        if self.ewma_batch_s == 0.0:
            self.ewma_batch_s = elapsed
        else:
            self.ewma_batch_s += self._EWMA_ALPHA * (elapsed - self.ewma_batch_s)
        self.batches_dispatched += 1
        self.rows_scored += int(block.shape[0])
        self.largest_batch = max(self.largest_batch, int(block.shape[0]))
        if self._obs_batch_rows is not None:
            self._obs_batch_rows.observe(block.shape[0])
            self._obs_service.observe(elapsed)
        offset = 0
        for rows, future, enqueued, trace in requests:
            b = rows.shape[0]
            if self._obs_queue_wait is not None:
                self._obs_queue_wait.observe(started - enqueued)
            if trace is not None:
                trace.mark("queue_wait", enqueued, started)
                trace.mark("engine_batch", started, ended)
                if extras:
                    walk_s = extras.get("walk_s")
                    if walk_s is not None:
                        trace.mark("walk", started, started + walk_s)
                    trace.annotate(**{
                        k: v for k, v in extras.items() if k != "walk_s"
                    })
            if not future.done():
                future.set_result((scores[offset : offset + b], int(block.shape[0])))
            offset += b

    # -- shutdown ------------------------------------------------------------

    async def drain(self) -> None:
        """Stop accepting requests, then score everything already queued.

        Every submitted request resolves (FIFO: the stop sentinel sits
        behind all accepted work), which is what lets the server answer
        in-flight HTTP requests before closing their connections.
        """
        if self._closed:
            if self._collector is not None:
                await self._collector
            return
        self._closed = True
        if self._collector is None or self._collector.done():
            return  # nothing ever submitted (or collector already exited)
        self._queue.put_nowait(_STOP)
        await self._collector

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(window_s={self.window_s}, max_batch={self.max_batch}, "
            f"batches={self.batches_dispatched}, mean_rows={self.mean_batch_rows:.1f})"
        )
