"""scipy cKDTree adapter: the fast path for Euclidean vector data.

McCatch's contract is "any off-the-shelf spatial join algorithm that
can leverage a tree" (Sec. IV-C).  For vector data under the Euclidean
metric, scipy's compiled cKDTree is that off-the-shelf component; this
adapter exposes it through the same :class:`MetricIndex` protocol as
the pure-Python trees so the core never knows the difference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.index.base import MetricIndex
from repro.metric.base import MetricSpace


def is_euclidean_vectors(space: MetricSpace) -> bool:
    """Whether ``space`` holds vectors under the L2 metric, the only
    spaces scipy's (Euclidean) cKDTree answers exactly."""
    return space.is_vector and getattr(space.metric, "p", None) == 2.0


class CKDTreeIndex(MetricIndex):
    """Range counting backed by :class:`scipy.spatial.cKDTree`."""

    def __init__(self, space: MetricSpace, ids=None):
        if not is_euclidean_vectors(space):
            raise TypeError(
                "CKDTreeIndex requires vector data under the Euclidean metric; "
                "use 'vptree' or 'brute' for other metrics"
            )
        super().__init__(space, ids)
        self._points = space.data[self.ids]
        self._tree = cKDTree(self._points)

    def count_within(self, query_ids: Sequence[int] | np.ndarray, radius: float) -> np.ndarray:
        query_ids = np.asarray(query_ids, dtype=np.intp)
        if radius < 0:  # scipy would search within |radius|
            return np.zeros(query_ids.size, dtype=np.intp)
        counts = self._tree.query_ball_point(
            self.space.data[query_ids], r=float(radius), return_length=True
        )
        return np.asarray(counts, dtype=np.intp)

    def knn_all(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each indexed point's ``k`` nearest neighbors (self excluded).

        Returns ``(distances, ids)``, both ``(n, k)``, rows in
        ``self.ids`` order.  The optional fast-path hook
        :func:`repro.engine.knn_distances` dispatches on.  Self
        exclusion strips the first result column — with exact duplicate
        points the kept zero-distance column may be either twin
        (historical scipy-path semantics).
        """
        if not 1 <= k < len(self):
            raise ValueError(f"k must be in [1, {len(self) - 1}], got {k}")
        dists, pos = self._tree.query(self._points, k=k + 1)
        return dists[:, 1:], self.ids[pos[:, 1:]]

    def pairs_within(self, radius: float) -> list[tuple[int, int]]:
        if radius < 0:
            return []
        raw = self._tree.query_pairs(r=float(radius), output_type="ndarray")
        out: list[tuple[int, int]] = []
        for a, b in raw:
            i, j = int(self.ids[a]), int(self.ids[b])
            out.append((i, j) if i < j else (j, i))
        return out

    def diameter_estimate(self) -> float:
        lo = self._points.min(axis=0)
        hi = self._points.max(axis=0)
        return float(np.linalg.norm(hi - lo))
