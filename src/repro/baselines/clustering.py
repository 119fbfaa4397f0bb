"""Clustering methods that expose outliers as a byproduct (Table I).

- **DBSCAN** (Ester et al. [29]): density-based clustering; noise
  points are the outliers.  Scored by distance to the nearest core
  point so the ranking convention matches the rest of the library.
- **OPTICS** (Ankerst et al. [31]): density-ordering of the data; a
  point's reachability distance is a natural outlier score.
- **KMeans--** (Chawla & Gionis [30]): k-means that trims the ``o``
  farthest points each iteration, jointly clustering and detecting
  outliers; scored by distance to the final centroids.

All three "fail to group [microcluster] points into an entity with a
score" (Sec. II-B): they label points, which is exactly the behaviour
reproduced here — scores are per point, clusters carry no score.
scipy is imported inside the scorers, keeping it off ``repro serve``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseDetector
from repro.utils.rng import check_random_state


class DBSCAN(BaseDetector):
    """Density-based clustering; noise distance as the outlier score.

    Parameters
    ----------
    eps:
        Neighborhood radius; ``None`` uses the classic heuristic of the
        95th percentile of kNN distances at ``k = min_pts``.
    min_pts:
        Core-point threshold (neighbors within eps, self included).
    """

    name = "DBSCAN"

    def __init__(self, eps: float | None = None, min_pts: int = 5):
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = eps
        self.min_pts = min_pts
        self.labels_: np.ndarray | None = None

    def fit_labels(self, X) -> np.ndarray:
        """Cluster labels (-1 = noise), computed as a side effect of scoring."""
        self.fit_scores(np.asarray(X, dtype=np.float64))
        assert self.labels_ is not None
        return self.labels_

    def _score(self, X: np.ndarray) -> np.ndarray:
        from scipy.spatial import cKDTree

        n = X.shape[0]
        tree = cKDTree(X)
        if self.eps is None:
            k = min(self.min_pts + 1, n)
            dists, _ = tree.query(X, k=k)
            eps = float(np.percentile(dists[:, -1], 95))
        else:
            eps = self.eps
        eps = max(eps, np.finfo(np.float64).tiny)

        neighbors = tree.query_ball_point(X, r=eps)
        counts = np.array([len(nb) for nb in neighbors])
        core = counts >= self.min_pts

        labels = np.full(n, -1, dtype=np.intp)
        cluster = 0
        for seed in range(n):
            if labels[seed] != -1 or not core[seed]:
                continue
            # Expand the cluster from this unvisited core point.
            labels[seed] = cluster
            frontier = [seed]
            while frontier:
                p = frontier.pop()
                if not core[p]:
                    continue
                for q in neighbors[p]:
                    if labels[q] == -1:
                        labels[q] = cluster
                        frontier.append(q)
            cluster += 1
        self.labels_ = labels

        # Score: 0 for clustered points; noise scored by the distance to
        # the nearest core point (farther from any cluster = weirder).
        scores = np.zeros(n, dtype=np.float64)
        noise = np.nonzero(labels == -1)[0]
        core_idx = np.nonzero(core)[0]
        if noise.size and core_idx.size:
            core_tree = cKDTree(X[core_idx])
            d, _ = core_tree.query(X[noise], k=1)
            scores[noise] = d
        elif noise.size:
            scores[noise] = 1.0  # no clusters at all: everything equally odd
        return scores


class OPTICS(BaseDetector):
    """Ordering points to identify the clustering structure.

    Computes the classic reachability plot with ``min_pts`` and an
    infinite generating distance (bounded by ``max_eps`` for speed);
    the reachability distance of each point is its outlier score —
    valley points are clustered, peaks are outliers.
    """

    name = "OPTICS"

    def __init__(self, min_pts: int = 5, max_eps: float | None = None):
        if min_pts < 2:
            raise ValueError(f"min_pts must be >= 2, got {min_pts}")
        self.min_pts = min_pts
        self.max_eps = max_eps
        self.ordering_: np.ndarray | None = None

    def _score(self, X: np.ndarray) -> np.ndarray:
        from scipy.spatial import cKDTree

        n = X.shape[0]
        k = min(self.min_pts, n - 1)
        tree = cKDTree(X)
        core_d, _ = tree.query(X, k=k + 1)
        core_dist = core_d[:, -1]
        max_eps = self.max_eps
        if max_eps is None:
            # Large enough to connect everything that plausibly connects.
            max_eps = float(np.percentile(core_dist, 99) * 8.0)

        reach = np.full(n, np.inf)
        processed = np.zeros(n, dtype=bool)
        order: list[int] = []
        for start in range(n):
            if processed[start]:
                continue
            processed[start] = True
            order.append(start)
            seeds: dict[int, float] = {}
            self._update(tree, X, start, core_dist, processed, seeds, max_eps)
            while seeds:
                q = min(seeds, key=seeds.get)
                reach[q] = seeds.pop(q)
                processed[q] = True
                order.append(q)
                self._update(tree, X, q, core_dist, processed, seeds, max_eps)
        self.ordering_ = np.array(order, dtype=np.intp)
        # Unreached points (first of each component) take the max finite
        # reachability + their core distance: clearly outlying.
        finite = reach[np.isfinite(reach)]
        ceiling = float(finite.max()) if finite.size else 1.0
        reach = np.where(np.isfinite(reach), reach, ceiling + core_dist)
        return reach

    def _update(self, tree, X, p, core_dist, processed, seeds, max_eps) -> None:
        for q in tree.query_ball_point(X[p], r=max_eps):
            if processed[q]:
                continue
            new_reach = max(core_dist[p], float(np.linalg.norm(X[p] - X[q])))
            if new_reach < seeds.get(q, np.inf):
                seeds[q] = new_reach


class KMeansMinusMinus(BaseDetector):
    """k-means-- : unified clustering and outlier detection [30].

    Each Lloyd iteration assigns points to the nearest centroid, puts
    the ``o`` farthest points aside as outliers, and recomputes
    centroids from the rest.  Scores are the final distances to the
    nearest centroid.
    """

    name = "KMeans--"
    deterministic = False

    def __init__(self, n_clusters: int = 3, n_outliers: float = 0.05,
                 n_iter: int = 30, random_state=None):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.n_outliers = n_outliers
        self.n_iter = n_iter
        self.random_state = random_state

    def _score(self, X: np.ndarray) -> np.ndarray:
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        k = min(self.n_clusters, n)
        o = int(np.ceil(self.n_outliers * n)) if self.n_outliers < 1 else int(self.n_outliers)
        o = min(o, n - k)
        centroids = X[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(self.n_iter):
            d = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
            nearest = d.min(axis=1)
            assign = d.argmin(axis=1)
            keep = np.argsort(nearest)[: n - o] if o > 0 else np.arange(n)
            new_centroids = centroids.copy()
            for c in range(k):
                members = keep[assign[keep] == c]
                if members.size:
                    new_centroids[c] = X[members].mean(axis=0)
            if np.allclose(new_centroids, centroids):
                break
            centroids = new_centroids
        d = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
        return d.min(axis=1)
