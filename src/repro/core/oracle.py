"""Algorithm 2: BUILDOPLOT — build the 'Oracle' plot.

Counts neighbors per point per radius via the batch query engine (with
the Sec. IV-G speed-up principles), then extracts each point's 1NN
Distance (x axis) and Group 1NN Distance (y axis) from its plateaus.
"""

from __future__ import annotations

import numpy as np

from repro.core.plateaus import analyze_counts
from repro.core.result import OraclePlot
from repro.engine import BatchQueryEngine
from repro.index.base import MetricIndex


def build_oracle_plot(
    index: MetricIndex,
    radii: np.ndarray,
    *,
    max_slope: float,
    max_cardinality: int,
    sparse_focused: bool = True,
    engine_mode: str = "batched",
    workers: int | None = None,
) -> OraclePlot:
    """Alg. 2: count neighbors, find plateaus, mount the 'Oracle' plot.

    Parameters
    ----------
    index:
        Index over the full dataset (the tree ``T`` of Alg. 1).
    radii:
        The radius ladder ``R``.
    max_slope, max_cardinality:
        Hyperparameters ``b`` and ``c``; the plot records both, so its
        plateaus can be re-derived from its counts.
    sparse_focused:
        Apply the sparse-focused principle (skip counts already known
        to exceed ``c``).  Disable only for ablation; results are
        identical where it matters.
    engine_mode:
        Execution plan (see :class:`BatchQueryEngine`): ``"batched"``
        (default), ``"per_point"``, or ``"parallel"`` — results are
        bit-for-bit identical, only wall-clock differs.
    workers:
        Worker-pool size for ``engine_mode="parallel"`` (default: the
        usable core count); ignored by the serial modes.
    """
    engine = BatchQueryEngine(index, mode=engine_mode, workers=workers)
    counts = engine.self_join_counts(
        radii,
        max_cardinality=max_cardinality,
        sparse_focused=sparse_focused,
    )
    x, y, first_end, middle_end = analyze_counts(
        counts, radii, max_slope=max_slope, max_cardinality=max_cardinality
    )
    return OraclePlot(
        x=x,
        y=y,
        first_end_index=first_end,
        middle_end_index=middle_end,
        radii=np.asarray(radii),
        counts=counts,
        max_slope=float(max_slope),
        max_cardinality=int(max_cardinality),
    )
