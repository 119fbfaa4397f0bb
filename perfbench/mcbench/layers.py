"""Per-layer spans and counters of a traced fit, measured from outside.

:func:`traced_fit_layers` swaps timing wrappers in for the functions
each layer exports, at the place their callers look them up (a module
attribute of the caller, or a class attribute), turns on the walk and
engine telemetry sinks of ``repro.obs.hooks``, and puts everything back
on exit.  Spans are kept in memory in a :class:`LayerLog`.

A traced fit also runs on a :class:`TimedCountingSpace`, a
``CountingMetricSpace`` that times every evaluation it forwards.  When
sharded walks share the proxy from two threads, its tallies are
approximate.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

from repro.metric.instrumentation import CountingMetricSpace

#: Alg. 1 phase functions as ``repro.core.mccatch`` binds them -> span
#: (its ``build_index`` is spanned as ``core.build`` below).
_CORE_PHASES = {
    "define_radii": "core.radii",
    "build_oracle_plot": "core.oracle",
    "compute_cutoff": "core.cutoff",
    "outlier_mask": "core.cutoff",
    "spot_microclusters": "core.gel",
    "score_microclusters": "core.score",
}
#: Callers of ``build_index`` (every one is an index build).
_BUILD_CALLERS = ("repro.core.mccatch", "repro.core.gel", "repro.core.scoring")


class LayerLog:
    """Span seconds and counters, summed over the traced calls."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def span(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.bump(name + ".calls", 1)

    def bump(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(amount)


class TimedCountingSpace(CountingMetricSpace):
    """A counting proxy that also adds each forwarded call's time to
    ``counter.seconds``."""

    def subset(self, indices):
        return TimedCountingSpace(self._inner.subset(indices), counter=self.counter)


def _timed_method(name):
    forward = getattr(CountingMetricSpace, name)

    @functools.wraps(forward)
    def method(self, *args):
        t0 = time.perf_counter()
        out = forward(self, *args)
        self.counter.seconds += time.perf_counter() - t0
        return out

    return method


for _name in ("distance", "distances", "distances_to", "distances_to_many",
              "paired_distances", "distances_among", "distance_matrix"):
    setattr(TimedCountingSpace, _name, _timed_method(_name))


def _spanned(log: LayerLog, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        log.span(name, time.perf_counter() - t0)
        return out

    return wrapper


@contextmanager
def traced_fit_layers(log: LayerLog):
    """Install the layer wrappers and telemetry sinks for the ``with`` body."""
    import importlib

    from repro.engine.executor import BatchQueryEngine
    from repro.index.base import UNKNOWN_COUNT
    from repro.index.ckdtree import CKDTreeIndex
    from repro.obs import hooks

    walk, engine_sink = hooks.enable_process_telemetry()
    walk_before = walk.as_dict()
    engine_before = engine_sink.as_dict()
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        core = importlib.import_module("repro.core.mccatch")
        for attr, name in _CORE_PHASES.items():
            patch(core, attr, _spanned(log, name, getattr(core, attr)))
        for module_name in _BUILD_CALLERS:
            module = importlib.import_module(module_name)
            build = _spanned(log, "index.build", module.build_index)
            if module is core:
                build = _spanned(log, "core.build", build)
            patch(module, "build_index", build)

        count_within = CKDTreeIndex.count_within

        def ckdtree_count(index, query_ids, radius):
            t0 = time.perf_counter()
            out = count_within(index, query_ids, radius)
            log.span("index.ckdtree_count", time.perf_counter() - t0)
            log.bump("index.ckdtree_queries", np.size(query_ids))
            return out

        patch(CKDTreeIndex, "count_within", ckdtree_count)

        def cells_computed() -> float:
            ckdtree = log.counts.get("index.ckdtree_queries", 0.0)
            return engine_sink.get("count_entries") + ckdtree

        self_join = BatchQueryEngine.self_join_counts

        def self_join_counts(engine, radii, **kwargs):
            computed = cells_computed()
            walk_s = walk.get("seconds")
            t0 = time.perf_counter()
            counts = self_join(engine, radii, **kwargs)
            elapsed = time.perf_counter() - t0
            log.span("engine.self_join", elapsed)
            joined = counts[:, :-1] if kwargs.get("small_radii_only", True) else counts
            log.bump("engine.cells_known", np.count_nonzero(joined != UNKNOWN_COUNT))
            log.bump("engine.cells_computed", cells_computed() - computed)
            workers = 1
            if engine.mode == "parallel":
                workers = engine.workers or len(os.sched_getaffinity(0))
            log.bump("engine.shard_capacity_s", workers * elapsed)
            log.bump("engine.self_join_walk_s", walk.get("seconds") - walk_s)
            return counts

        patch(BatchQueryEngine, "self_join_counts", self_join_counts)
        patch(BatchQueryEngine, "first_nonempty_radius", _spanned(
            log, "engine.first_nonempty", BatchQueryEngine.first_nonempty_radius))
        patch(BatchQueryEngine, "pairs", _spanned(log, "engine.pairs", BatchQueryEngine.pairs))
        yield log
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for key, value in walk.as_dict().items():
            log.bump("walk." + key, value - walk_before.get(key, 0.0))
        for key, value in engine_sink.as_dict().items():
            log.bump("engine_sink." + key, value - engine_before.get(key, 0.0))
        hooks.disable_process_telemetry()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fit_layer_metrics(log: LayerLog, fits: int, n_points: float, outliers: float,
                      evals: float, distance_s: float) -> dict[str, float]:
    """Per-fit means of one workload's traced fits, by per-layer metric name.

    ``n_points`` is the mean input size, for the evaluations-per-pair
    ratio; ``evals`` and ``distance_s`` are the totals of the traced fits.
    """
    per = 1.0 / fits
    s = log.seconds
    c = log.counts
    return {
        "core.build_s": s.get("core.build", 0.0) * per,
        "core.radii_s": s.get("core.radii", 0.0) * per,
        "core.oracle_s": s.get("core.oracle", 0.0) * per,
        "core.cutoff_s": s.get("core.cutoff", 0.0) * per,
        "core.gel_s": s.get("core.gel", 0.0) * per,
        "core.score_s": s.get("core.score", 0.0) * per,
        "core.outliers": outliers,
        "engine.self_join_s": s.get("engine.self_join", 0.0) * per,
        "engine.first_nonempty_s": s.get("engine.first_nonempty", 0.0) * per,
        "engine.pairs_s": s.get("engine.pairs", 0.0) * per,
        "engine.count_calls": c.get("engine_sink.count_calls", 0.0) * per,
        "engine.count_entries": c.get("engine_sink.count_entries", 0.0) * per,
        "engine.known_cell_ratio": _ratio(
            c.get("engine.cells_known", 0.0), c.get("engine.cells_computed", 0.0)),
        "engine.shard_busy_ratio": _ratio(
            c.get("engine.self_join_walk_s", 0.0), c.get("engine.shard_capacity_s", 0.0)),
        "index.build_s": s.get("index.build", 0.0) * per,
        "index.builds": c.get("index.build.calls", 0.0) * per,
        "index.ckdtree_count_s": s.get("index.ckdtree_count", 0.0) * per,
        "index.ckdtree_count_calls": c.get("index.ckdtree_count.calls", 0.0) * per,
        "index.walk_s": c.get("walk.seconds", 0.0) * per,
        "index.walks": c.get("walk.walks", 0.0) * per,
        "index.walk_steps": c.get("walk.steps", 0.0) * per,
        "index.walk_entries": c.get("walk.entries", 0.0) * per,
        "index.walk_distance_dispatches": c.get("walk.distance_calls", 0.0) * per,
        "index.rect_cells": c.get("walk.leaf_entries_total", 0.0) * per,
        "index.rect_settled_ratio": _ratio(
            c.get("walk.leaf_entries_filtered", 0.0), c.get("walk.leaf_entries_total", 0.0)),
        "metric.distance_evals": evals * per,
        "metric.evals_per_pair": _ratio(evals * per, n_points * (n_points - 1) / 2.0),
        "metric.distance_s": distance_s * per,
    }
