"""M-tree: a balanced-routing metric access method (Ciaccia et al. [36]).

The paper's Alg. 1 builds "a tree T for P, like a Slim-tree, M-tree, or
R-tree".  This module implements the M-tree's node layout: routing
nodes carry a pivot, a covering radius, and the distance to their
parent pivot, which lets range queries prune with two
triangle-inequality tests before computing any distance.  Subtree sizes
are kept so a query ball that swallows a routing ball is counted in
O(1) — the count-only principle again.

The tree is bulk-loaded straight into
:class:`~repro.index.base.FlatTree` arrays by
:func:`~repro.index.bulk.bulk_build_mtree` (k-way farthest-point
promotion, level-synchronous), and queries run the shared flat walk.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import FlatQueryMixin, MetricIndex
from repro.index.bulk import bulk_build_mtree
from repro.metric.base import MetricSpace


class MTree(FlatQueryMixin, MetricIndex):
    """Bulk-loaded M-tree with parent-distance pruning.

    Parameters
    ----------
    capacity:
        Maximum entries per node (>= 4): the routing fanout and the leaf
        bucket cap of the bulk-load (a bucket of exact duplicates may
        exceed it, since no split can separate them).
    """

    def __init__(self, space: MetricSpace, ids=None, *, capacity: int = 16):
        if capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        super().__init__(space, ids)
        self.capacity = capacity
        stats: dict = {"distance_calls": 0}
        self.flat = bulk_build_mtree(
            space, self.ids, fanout=capacity, leaf_cap=capacity, stats=stats,
        )
        self._distance_calls = stats["distance_calls"]

    # -- distances --------------------------------------------------------

    def _d(self, i: int, j: int) -> float:
        self._distance_calls += 1
        return self.space.distance(i, j)

    def _d_block_sym(self, pivot_ids) -> np.ndarray:
        """Symmetric pairwise block over one pivot set, counted honestly.

        Vector spaces take the full-square bulk call (the kernel is
        one broadcast either way); object spaces — whose "bulk" is an
        honest per-pair metric loop — evaluate each unordered pair
        once and mirror.
        """
        ids = np.asarray(pivot_ids, dtype=np.intp)
        m = ids.size
        if self.space.is_vector:
            self._distance_calls += m * m
            return self.space.distances_among(ids, ids)
        self._distance_calls += m * (m - 1) // 2
        dm = np.zeros((m, m), dtype=np.float64)
        for a in range(m - 1):
            row = self.space.distances(int(ids[a]), ids[a + 1 :])
            dm[a, a + 1 :] = row
            dm[a + 1 :, a] = row
        return dm

    # -- queries (count_within / count_within_many from FlatQueryMixin) ---

    def diameter_estimate(self) -> float:
        """Alg. 1 line 2: max distance between direct successors of the root.

        Child balls centred at pivot ``p_i`` with radius ``r_i`` bound
        the member span, so the estimate is
        ``max_{i<j} d(p_i, p_j) + r_i + r_j`` (exact when leaves hang
        directly off the root).  A leaf root — all members in one
        bucket — takes the exact pairwise maximum instead.
        """
        flat = self.flat
        lo, hi = int(flat.child_lo[0]), int(flat.child_hi[0])
        if lo == hi:  # leaf root: every member in one bucket
            if flat.elems.size == 1:
                return 0.0
            return float(np.max(np.triu(self._d_block_sym(flat.elems), k=1)))
        pivots = flat.center[lo:hi]
        radii = np.asarray(flat.radius[lo:hi], dtype=np.float64)
        if pivots.size == 1:
            return 2.0 * float(radii[0])
        spans = self._d_block_sym(pivots) + radii[:, None] + radii[None, :]
        return float(np.max(np.triu(spans, k=1)))

    @property
    def distance_calls(self) -> int:
        """Metric evaluations spent by construction and introspection."""
        return self._distance_calls

    def height(self) -> int:
        """Tree height in levels (root = 1)."""
        return self.flat.max_depth()
