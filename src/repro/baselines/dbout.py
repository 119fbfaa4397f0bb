"""DB-Out: distance-based outliers DB(p, D) (Knorr & Ng [15]).

A point is a DB(p, D)-outlier if at most a ``1 - p`` fraction of the
dataset lies within distance ``D`` of it.  For ranking (the paper
evaluates per-point scores), we return the negated neighbor count at
radius ``D``: the fewer neighbors, the more anomalous — the natural
continuous relaxation of the binary definition.  Table II tunes
``D ∈ {l*0.05, l*0.1, l*0.25, l*0.5}`` with ``l`` the dataset diameter.

The whole-dataset range sweep runs through the batch query engine
(:meth:`repro.engine.BatchQueryEngine.count_all_within`) over the
``"auto"`` index: one compiled count walk over a VP-tree.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseDetector
from repro.engine import BatchQueryEngine
from repro.index.factory import build_index
from repro.metric.base import MetricSpace


def resolve_radius(X: np.ndarray, radius_fraction: float) -> float:
    """The absolute query radius: ``radius_fraction`` of the bounding
    diagonal, floored away from zero.

    Factored out so the inductive serving model (:mod:`repro.api`) can
    freeze the radius at fit time and reuse it for held-out batches.
    """
    diameter = float(np.linalg.norm(X.max(axis=0) - X.min(axis=0)))
    return max(radius_fraction * diameter, np.finfo(np.float64).tiny)


class DBOut(BaseDetector):
    """Negated count of neighbors within ``radius_fraction * diameter``."""

    name = "DB-Out"

    def __init__(self, radius_fraction: float = 0.1):
        if not 0 < radius_fraction <= 1:
            raise ValueError(f"radius_fraction must be in (0, 1], got {radius_fraction}")
        self.radius_fraction = radius_fraction

    def _score(self, X: np.ndarray) -> np.ndarray:
        radius = resolve_radius(X, self.radius_fraction)
        engine = BatchQueryEngine(build_index(MetricSpace(X), kind="auto"))
        return -engine.count_all_within(radius).astype(np.float64)
