"""Algorithm 4: SCOREMCS — compression-based anomaly scores (Def. 7).

A microcluster is scored by the bits-per-member cost of describing it
in terms of its nearest inlier: cardinality + inlier id + bridge +
member-to-member hops.  The construction makes the Isolation and
Cardinality axioms of Sec. III hold by design: a longer bridge raises
the cost, and a larger cardinality dilutes the fixed costs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mdl import universal_code_length, universal_code_lengths
from repro.core.result import Microcluster, OraclePlot
from repro.engine import BatchQueryEngine
from repro.index.base import MetricIndex
from repro.index.factory import build_index
from repro.metric.base import MetricSpace


def build_inlier_index(space: MetricSpace, outliers: np.ndarray) -> MetricIndex | None:
    """The VP-tree over every element outside ``outliers``, or ``None``
    when nothing is left.

    Alg. 4's join index, whatever index the fit used: range counts are
    exact for every kind, so ``g`` does not depend on it.  The fitted
    model keeps this tree to serve ``g`` for held-out rows
    (:class:`~repro.core.mccatch.McCatchModel`).
    """
    inlier_mask = np.ones(len(space), dtype=bool)
    inlier_mask[outliers] = False
    inlier_ids = np.nonzero(inlier_mask)[0]
    if inlier_ids.size == 0:
        return None
    return build_index(space, inlier_ids, kind="vptree")


def nearest_inlier_distances(
    space: MetricSpace,
    outliers: np.ndarray,
    oracle: OraclePlot,
    *,
    inlier_index: MetricIndex | None = None,
    engine_mode: str = "batched",
    workers: int | None = None,
) -> np.ndarray:
    """Per-point distance g_i to the nearest inlier (Alg. 4 lines 1-15).

    For each outlier: the largest radius at which it still has zero
    inlier neighbors (0 if it has an inlier within the smallest radius;
    the top radius if it has none at all — e.g. when every point is an
    outlier).  For each inlier: its own 1NN Distance x_i.

    The rung-by-rung ladder scan of Alg. 4 runs through the batch
    engine over ``inlier_index`` (built by :func:`build_inlier_index`
    when not given): one multi-radius query per outlier in batched
    mode, the literal shrinking-set loop in per-point mode — identical
    ``g`` either way.
    """
    radii = oracle.radii
    g = np.array(oracle.x, dtype=np.float64)  # inliers: g_i = x_i
    if outliers.size == 0:
        return g
    if inlier_index is None:
        inlier_index = build_inlier_index(space, outliers)
    if inlier_index is None:
        g[outliers] = radii[-1]
        return g

    engine = BatchQueryEngine(inlier_index, mode=engine_mode, workers=workers)
    first = engine.first_nonempty_radius(outliers, radii)
    g[outliers] = radii[-1]  # default: no inlier neighbor within l
    # First radius with an inlier neighbor: g is one rung below.
    below = first > 0
    g[outliers[below]] = radii[first[below] - 1]
    g[outliers[first == 0]] = 0.0
    return g


def _ceil_ratio(value: float, r1: float) -> int:
    """⌈value / r1⌉ with near-integer snapping.

    Distances produced by the algorithm (plateau lengths, bridge rungs)
    are exact multiples of r1 by construction; float division turns
    those exact integers into integer ± ulp, and a raw ceil would flip
    by one depending on rounding direction.  Snapping within a relative
    1e-9 keeps scores deterministic under rigid motions of the data.
    """
    ratio = value / r1
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return int(nearest)
    return math.ceil(ratio)


def microcluster_score(
    cardinality: int,
    n: int,
    bridge_length: float,
    mean_1nn: float,
    r1: float,
    transformation_cost: float,
) -> float:
    """Def. 7: the bits-per-member description cost of one microcluster."""
    if cardinality < 1:
        raise ValueError("microcluster cardinality must be >= 1")
    if r1 <= 0:
        raise ValueError("r1 must be positive")
    item1 = universal_code_length(cardinality)  # ① cardinality
    item2 = universal_code_length(n)  # ② nearest-inlier id (worst case)
    item3 = transformation_cost * universal_code_length(_ceil_ratio(bridge_length, r1))  # ③
    item4 = transformation_cost * universal_code_length(1 + _ceil_ratio(mean_1nn, r1))  # ④
    return (item1 + item2 + item3 + (cardinality - 1) * item4) / cardinality


def point_score(g_i: float, r1: float) -> float:
    """Alg. 4 line 22: per-point score w_i = ⟨1 + ⌈g_i / r_1⌉⟩."""
    return universal_code_length(1 + _ceil_ratio(g_i, r1))


def point_scores(g: np.ndarray, r1: float) -> np.ndarray:
    """:func:`point_score` over an array, bit for bit.

    ⌈g / r1⌉ runs as array operations with the snap of
    :func:`_ceil_ratio` (``np.rint`` rounds half to even, like
    ``round``), and ⟨·⟩ is evaluated once per distinct integer.
    """
    ratio = np.asarray(g, dtype=np.float64) / r1
    nearest = np.rint(ratio)
    snap = np.abs(ratio - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest))
    return universal_code_lengths(1.0 + np.where(snap, nearest, np.ceil(ratio)))


def score_microclusters(
    space: MetricSpace,
    clusters: list[np.ndarray],
    oracle: OraclePlot,
    *,
    transformation_cost: float,
    engine_mode: str = "batched",
    workers: int | None = None,
) -> tuple[list[Microcluster], np.ndarray, MetricIndex | None]:
    """Alg. 4: scores per microcluster (ranked) and per point.

    Returns
    -------
    microclusters:
        :class:`Microcluster` records sorted most-strange-first
        (descending score; ties broken towards smaller cardinality,
        then longer bridge, for determinism).
    point_scores:
        Array W of per-point scores, higher = more anomalous.
    inlier_index:
        The inlier VP-tree the scan ran over (:func:`build_inlier_index`),
        or ``None`` when there were no outliers or no inliers.
    """
    n = len(space)
    radii = oracle.radii
    r1 = float(radii[0])
    outliers = (
        np.sort(np.concatenate(clusters))
        if clusters
        else np.array([], dtype=np.intp)
    )
    inlier_index = build_inlier_index(space, outliers) if outliers.size else None
    g = nearest_inlier_distances(
        space, outliers, oracle,
        inlier_index=inlier_index, engine_mode=engine_mode, workers=workers,
    )

    microclusters: list[Microcluster] = []
    for members in clusters:
        bridge = float(g[members].min())
        mean_1nn = float(oracle.x[members].mean())
        score = microcluster_score(
            members.size, n, bridge, mean_1nn, r1, transformation_cost
        )
        microclusters.append(
            Microcluster(
                indices=members,
                score=score,
                bridge_length=bridge,
                mean_1nn_distance=mean_1nn,
            )
        )
    microclusters.sort(
        key=lambda m: (-m.score, m.cardinality, -m.bridge_length, int(m.indices[0]))
    )

    return microclusters, point_scores(g, r1), inlier_index
