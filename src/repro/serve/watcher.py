"""Hot model swap: poll the registry, swap the server between batches.

The deployment loop the registry (PR 3) was built for: fitters
``publish`` new versions of a ``(spec, fingerprint)`` key while a
long-lived :class:`~repro.serve.server.ScoringServer` keeps answering.
:class:`RegistryWatcher` closes that loop — it polls
:meth:`~repro.api.model_registry.ModelRegistry.latest_version` (a
single-key directory scan, not a registry-wide listing) and, when a
newer completed version appears, mmap-loads it and calls
:meth:`~repro.serve.server.ScoringServer.swap_model`.  The swap is
atomic between engine batches; requests in flight drain against the
version they started on.

Polling beats inotify-style watching here on purpose: the registry's
completeness marker is ``meta.json`` written last (atomically), so a
poll can never observe a half-published artifact, and a plain
directory scan works on any filesystem the registry lives on (NFS
included).
"""

from __future__ import annotations

import asyncio

from repro.api.model_registry import ModelRegistry

from repro.serve.server import ScoringServer


class RegistryWatcher:
    """Keep one server on the newest published version of one key.

    Parameters
    ----------
    server:
        The running :class:`ScoringServer` to swap.
    registry:
        The :class:`ModelRegistry` the model was resolved from.
    spec, fingerprint:
        The registry key to watch (both pinned: polling must stay a
        one-directory scan, and a watcher that guessed fingerprints
        could swap in a model fitted on different data).
    poll_s:
        Seconds between freshness probes.
    mmap:
        Load new versions memory-mapped (the default — the whole point
        of uncompressed artifacts).
    """

    def __init__(
        self,
        server: ScoringServer,
        registry: ModelRegistry,
        spec: str,
        fingerprint: str,
        *,
        poll_s: float = 2.0,
        mmap: bool = True,
    ):
        if poll_s <= 0:
            raise ValueError(f"poll_s must be > 0, got {poll_s}")
        self.server = server
        self.registry = registry
        self.spec = spec
        self.fingerprint = fingerprint
        self.poll_s = float(poll_s)
        self.mmap = mmap
        self._task: asyncio.Task | None = None
        #: versions this watcher swapped in (observability / tests)
        self.swapped_versions: list[int] = []
        #: freshness probes completed (observability)
        self.polls = 0

    def bind_metrics(self, registry) -> None:
        """Expose this watcher on a :class:`~repro.obs.MetricsRegistry`.

        Callback families over the counters the watcher already keeps:
        probes completed, swaps performed, and the active generation /
        version gauges live on the server's own families.
        """
        registry.register_callback(
            "repro_watcher_polls_total", "counter",
            "Registry freshness probes completed by the hot-swap watcher",
            lambda: self.polls,
        )
        registry.register_callback(
            "repro_watcher_swaps_total", "counter",
            "Hot swaps performed by the registry watcher",
            lambda: len(self.swapped_versions),
        )

    async def check_once(self) -> bool:
        """One freshness probe; swaps and returns True when newer."""
        self.polls += 1
        latest = self.registry.latest_version(
            self.spec, fingerprint=self.fingerprint
        )
        current = self.server.served.version
        if latest is None or (current is not None and latest <= current):
            return False
        record = self.registry.record(
            self.spec, fingerprint=self.fingerprint, version=latest
        )
        from repro.api.estimators import load_model

        model = load_model(record.path, mmap=self.mmap)
        self.server.swap_model(
            model,
            spec=record.spec,
            version=record.version,
            fingerprint=record.fingerprint,
        )
        self.swapped_versions.append(latest)
        return True

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.poll_s)
            try:
                await self.check_once()
            except (OSError, ValueError, LookupError):  # pragma: no cover
                # a transient registry hiccup (slow publish, fs blip) must
                # not kill the watcher; the next poll retries
                continue

    def start(self) -> "RegistryWatcher":
        """Start polling in the running event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-watcher"
            )
        return self

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegistryWatcher({self.spec!r}, fingerprint={self.fingerprint!r}, "
            f"poll_s={self.poll_s})"
        )
