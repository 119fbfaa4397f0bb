"""Algorithm 3 (second half): gel the outliers into microclusters.

Outliers with a large Group 1NN Distance belong to nonsingleton
microclusters; they are grouped by connected components of the
neighborhood graph at the smallest radius that exceeds every member's
1NN Distance (so a point and its nearest neighbor always land in the
same component).  Remaining outliers become singleton microclusters.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import CutoffInfo, OraclePlot
from repro.engine import BatchQueryEngine
from repro.index.factory import build_index
from repro.metric.base import MetricSpace


def connected_components(node_ids: np.ndarray, edges: list[tuple[int, int]]) -> list[np.ndarray]:
    """Connected components via union-find; returns arrays of node ids."""
    id_to_pos = {int(v): k for k, v in enumerate(node_ids)}
    parent = np.arange(node_ids.size, dtype=np.intp)

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]  # path halving
            u = int(parent[u])
        return u

    for i, j in edges:
        ri, rj = find(id_to_pos[i]), find(id_to_pos[j])
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for pos, node in enumerate(node_ids):
        groups.setdefault(find(pos), []).append(int(node))
    return [np.array(sorted(members), dtype=np.intp) for members in groups.values()]


def spot_microclusters(
    space: MetricSpace,
    oracle: OraclePlot,
    cutoff: CutoffInfo,
    outliers: np.ndarray,
    *,
    index_kind: str = "auto",
    engine_mode: str = "batched",
    workers: int | None = None,
) -> list[np.ndarray]:
    """Alg. 3 lines 7-19: split A into nonsingleton and singleton mcs.

    Parameters
    ----------
    space:
        The full metric space (needed to build the tree over M).
    oracle, cutoff:
        Outputs of Alg. 2 and Defs. 4-6.
    outliers:
        The set A as dataset positions (already computed by
        :func:`repro.core.cutoff.outlier_mask`).
    engine_mode, workers:
        Execution plan (and parallel-mode pool size) for the pair join
        (see :class:`repro.engine.BatchQueryEngine`).

    Returns
    -------
    list of index arrays, one per microcluster (unranked; scoring
    orders them later).
    """
    if outliers.size == 0:
        return []
    radii = oracle.radii
    a = radii.size
    y_large = oracle.middle_end_index[outliers] >= cutoff.index
    grouped = outliers[y_large]  # the set M (candidates for nonsingleton mcs)
    singles = outliers[~y_large]

    clusters: list[np.ndarray] = []
    if grouped.size == 1:
        # A lone point with large Group 1NN Distance cannot gel with
        # anything; it degenerates to a singleton microcluster.
        clusters.append(grouped.copy())
    elif grouped.size > 1:
        # Threshold: the smallest radius larger than the largest 1NN
        # Distance within M (Alg. 3 lines 10-12); if no member has an
        # uncovered first plateau, every 1NN distance is below r_1.
        ends = oracle.first_end_index[grouped]
        max_end = int(ends.max())  # -1 when no first plateau anywhere in M
        e_next = min(max_end + 1, a - 1)
        threshold = float(radii[e_next])
        tree = build_index(space, grouped, kind=index_kind)
        edges = BatchQueryEngine(tree, mode=engine_mode, workers=workers).pairs(threshold)
        clusters.extend(connected_components(grouped, edges))

    for i in singles:
        clusters.append(np.array([i], dtype=np.intp))
    return clusters
