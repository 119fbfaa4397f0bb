"""Common interface for the competitor baselines (Table I / Fig. 6).

Every baseline is a point-scoring outlier detector: ``fit_scores(X)``
returns one anomaly score per row, **higher = more anomalous** (scores
are flipped internally where the original method's convention differs).
The accuracy benches evaluate these scores with AUROC / AP / Max-F1,
exactly as the paper evaluates "the anomaly scores they reported per
point" (Sec. V-A).

Baselines require vector data (the paper's Fig. 6 marks them
non-applicable on nondimensional datasets); McCatch itself lives in
:mod:`repro.core` and accepts both.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import as_float_array


def check_finite_scores(name: str, scores: np.ndarray) -> np.ndarray:
    """Reject NaN/inf anomaly scores with a detector-named error.

    The one guard every scoring entry point shares: ``fit_scores`` and
    the serving API's inductive fits (which compute from the kernels
    directly) both route through it, so a non-finite score fails the
    same way everywhere.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        bad = np.nonzero(~finite)[0]
        raise RuntimeError(
            f"{name}: {bad.size} non-finite score(s) (NaN/inf), "
            f"first at row {int(bad[0])} — a score must rank every point"
        )
    return scores


class BaseDetector(ABC):
    """Abstract point-scoring outlier detector."""

    #: short name used in result tables
    name: str = "base"
    #: True if scores vary run-to-run without a fixed seed (Table I row)
    deterministic: bool = True

    def fit_scores(self, X) -> np.ndarray:
        """Anomaly score per row of ``X`` (higher = more anomalous)."""
        X = as_float_array(X)
        scores = self._score(X)
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (X.shape[0],):
            raise RuntimeError(
                f"{self.name}: expected {X.shape[0]} scores, got shape {scores.shape}"
            )
        check_finite_scores(self.name, scores)
        return scores

    @abstractmethod
    def _score(self, X: np.ndarray) -> np.ndarray:
        """Implementation hook; ``X`` is validated (n, d) float64."""

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


def knn_distances(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of each row's ``k`` nearest neighbors (self excluded).

    Runs through the batch query engine
    (:func:`repro.engine.knn_distances`) over scipy's compiled kd-tree,
    asked for by name: the ``"auto"`` VP-tree has no kNN walk, so it
    would take the O(n²) scan of distance blocks.
    """
    from repro.engine import knn_distances as engine_knn
    from repro.index.factory import build_index
    from repro.metric.base import MetricSpace

    n = X.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    index = build_index(MetricSpace(X), kind="ckdtree")
    return engine_knn(index, k)
