"""``repro.serve`` — the asyncio HTTP scoring tier.

The serving half of the fit-once-serve-many story: a long-lived
stdlib-only HTTP server over any published
:class:`~repro.api.base.FittedModel`, built from three pieces that
compose but also stand alone:

- :class:`~repro.serve.batching.MicroBatcher` — adaptive
  micro-batching: concurrent single-row requests coalesce into one
  engine batch under a max-latency window, scores fanned back out
  bit-identical to direct ``score_batch``.
- :class:`~repro.serve.server.ScoringServer` — ``POST /score`` /
  ``GET /healthz`` / ``GET /metrics`` / ``GET /model`` with structured
  4xx errors at the serving boundary.  Each engine batch is scored on
  an executor thread, where the compiled nearest walk releases the GIL.
- :class:`~repro.serve.watcher.RegistryWatcher` — polls
  ``ModelRegistry.latest_version`` and hot-swaps the served model
  between engine batches, draining requests in flight.

Every tier is instrumented through :mod:`repro.obs`: the server owns a
:class:`~repro.obs.MetricsRegistry` served as ``GET /metrics``
(Prometheus text format), each ``/score`` request carries a
:class:`~repro.obs.RequestTrace` whose spans land in JSON access logs,
and ``ScoringServer(metrics=False)`` turns the whole telemetry tier
off.

Surfaced on the command line as ``repro serve --spec ... --registry
... --port P`` (``--log-level info`` for access logs,
``--no-metrics`` to disable telemetry) and ``repro stats --url ...``
to scrape a running server; driven programmatically (and by the load
bench) through :class:`~repro.serve.client.ScoreClient`.
"""

from repro.serve.batching import BatcherClosed, BatcherOverloaded, MicroBatcher
from repro.serve.client import ScoreClient
from repro.serve.server import HttpError, ScoringServer, ServedModel
from repro.serve.watcher import RegistryWatcher

__all__ = [
    "BatcherClosed",
    "BatcherOverloaded",
    "HttpError",
    "MicroBatcher",
    "RegistryWatcher",
    "ScoreClient",
    "ScoringServer",
    "ServedModel",
]
