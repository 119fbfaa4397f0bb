"""Process-wide telemetry sinks the hot layers check with one load.

The walk kernels (:func:`repro.index.base.count_walk`) and the batch
engine (:class:`repro.engine.executor.BatchQueryEngine`) are the
innermost loops of this repo; they cannot afford per-call registry
traffic, and when nobody is observing they must pay *nothing* beyond
one module-attribute read and a ``None`` check.  So instrumentation is
pull-based and two-stage:

1. The hot path checks :data:`WALK` / :data:`ENGINE`.  ``None`` (the
   default) means telemetry is off — the walk runs exactly the code it
   ran before this module existed.
2. When a sink is installed (:func:`enable_process_telemetry`), a walk
   accumulates its existing ``stats`` dict *locally* as it always has
   and merges the whole dict into the sink once per walk, under the
   sink's lock — so concurrent sharded walks (the GIL-free compiled
   kernel on the threads backend) never race on counter updates and
   never serialize against each other mid-walk.

Sinks are process-global on purpose: "process-wide telemetry" means a
fit, a benchmark, and a server in the same process all add to the same
totals, and every :class:`~repro.obs.registry.MetricsRegistry` that
binds them (:func:`bind_process_sinks`) reads the same truth.
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = [
    "TelemetrySink",
    "bind_process_sinks",
    "disable_process_telemetry",
    "enable_process_telemetry",
    "process_sinks_snapshot",
    "telemetry_enabled",
]


class TelemetrySink:
    """A locked bag of named monotonic counters (floats)."""

    __slots__ = ("_lock", "_counters")

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}

    def merge(self, stats: Mapping[str, float], **extra: float) -> None:
        """Add one walk's (or call's) local tallies to the totals."""
        with self._lock:
            for key, value in stats.items():
                self._counters[key] = self._counters.get(key, 0.0) + float(value)
            for key, value in extra.items():
                self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def bump(self, **amounts: float) -> None:
        """Shorthand merge for call-site literals."""
        self.merge({}, **amounts)

    def get(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TelemetrySink({self.as_dict()!r})"


#: The walk sink, checked by :func:`repro.index.base.count_walk`.
#: ``None`` = telemetry off (the hot-path guard).
WALK: TelemetrySink | None = None

#: The engine sink, checked by
#: :class:`repro.engine.executor.BatchQueryEngine`.
ENGINE: TelemetrySink | None = None

_ENABLE_LOCK = threading.Lock()


def enable_process_telemetry() -> tuple[TelemetrySink, TelemetrySink]:
    """Install (or return the existing) walk + engine sinks.

    Idempotent: the sinks are process-wide accumulators, so a second
    enabler (another server in the same process, a test) shares the
    first one's totals rather than resetting them.
    """
    global WALK, ENGINE
    with _ENABLE_LOCK:
        if WALK is None:
            WALK = TelemetrySink()
        if ENGINE is None:
            ENGINE = TelemetrySink()
        return WALK, ENGINE


def disable_process_telemetry() -> None:
    """Remove the sinks: hot paths go back to the single ``None`` check.

    Counters are discarded with the sinks — re-enabling starts from
    zero, which keeps "monotonic while enabled" an honest contract.
    """
    global WALK, ENGINE
    with _ENABLE_LOCK:
        WALK = None
        ENGINE = None


def telemetry_enabled() -> bool:
    return WALK is not None


def process_sinks_snapshot() -> dict[str, dict[str, float]]:
    """Current walk/engine totals as a plain dict (empty when off)."""
    out: dict[str, dict[str, float]] = {}
    if WALK is not None:
        out["walk"] = WALK.as_dict()
    if ENGINE is not None:
        out["engine"] = ENGINE.as_dict()
    return out


#: Walk-sink keys -> exposed family names.  The keys are exactly the
#: counters :func:`~repro.index.base.level_count_walk` and the compiled
#: walks already accumulate (plus the walk-level ``walks``/``seconds``
#: added at merge time) — the registry exposes them, it does not
#: re-derive them.
_WALK_FAMILIES = (
    ("walks", "repro_walk_calls_total",
     "Multi-radius frontier walks dispatched"),
    ("seconds", "repro_walk_seconds_total",
     "Wall-clock seconds spent inside frontier walks"),
    ("steps", "repro_walk_depth_steps_total",
     "Level-synchronous depth steps advanced, or compiled kernel calls"),
    ("entries", "repro_walk_frontier_entries_total",
     "(query, node) frontier entries processed, or compiled node visits"),
    ("searchsorted_calls", "repro_walk_searchsorted_calls_total",
     "Radius-window searchsorted/boundary-compare dispatches"),
    ("distance_calls", "repro_walk_distance_dispatches_total",
     "Grouped distance-kernel dispatches inside walks"),
    ("scatter_calls", "repro_walk_scatter_calls_total",
     "Count-matrix diff scatters"),
    ("leaf_entries_total", "repro_walk_rect_cells_total",
     "Leaf cells decided per pair: float32 rect-kernel cells, or members "
     "the compiled count walk scanned"),
    ("leaf_entries_filtered", "repro_walk_rect_cells_filtered_total",
     "Leaf cells settled without the exact numpy re-measurement"),
)

_ENGINE_FAMILIES = (
    ("count_calls", "repro_engine_count_calls_total",
     "Multi-radius count requests answered by the batch engine"),
    ("count_queries", "repro_engine_count_queries_total",
     "Query points across all engine count requests"),
    ("count_entries", "repro_engine_count_entries_total",
     "(query, radius) count-matrix entries produced by the engine"),
)


def bind_process_sinks(registry) -> None:
    """Expose the process sinks as callback families on ``registry``.

    Enables the sinks if they are not already on (binding a registry
    *is* observing).  Safe to call for several registries — they all
    read the same process-wide totals.
    """
    walk, engine = enable_process_telemetry()
    for key, name, help_text in _WALK_FAMILIES:
        registry.register_callback(
            name, "counter", help_text,
            (lambda k=key: WALK.get(k) if WALK is not None else 0.0),
        )
    for key, name, help_text in _ENGINE_FAMILIES:
        registry.register_callback(
            name, "counter", help_text,
            (lambda k=key: ENGINE.get(k) if ENGINE is not None else 0.0),
        )
