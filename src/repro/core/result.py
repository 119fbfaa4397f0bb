"""Result containers returned by :class:`repro.core.mccatch.McCatch`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Microcluster:
    """A detected microcluster ``M_j`` and its anomaly score ``s_j``.

    Attributes
    ----------
    indices:
        Dataset positions of the member elements.
    score:
        Def. 7 score (bits per member); larger = more anomalous.
    bridge_length:
        The "Bridge's Length" — smallest distance from any member to
        its nearest inlier.
    mean_1nn_distance:
        Average 1NN Distance of the members (x̄ in Def. 7, item ④).
    """

    indices: np.ndarray
    score: float
    bridge_length: float
    mean_1nn_distance: float

    @property
    def cardinality(self) -> int:
        """Number of member elements ``|M_j|``."""
        return int(self.indices.size)

    @property
    def is_singleton(self) -> bool:
        """True for 'one-off' outliers (cardinality 1)."""
        return self.cardinality == 1

    def __repr__(self) -> str:
        kind = "singleton" if self.is_singleton else f"{self.cardinality}-elements"
        return f"Microcluster({kind}, score={self.score:.2f}, bridge={self.bridge_length:.4g})"


@dataclass(frozen=True)
class OraclePlot:
    """The 'Oracle' plot: 1NN Distance vs Group 1NN Distance per point.

    Attributes
    ----------
    x:
        Lengths of the first plateaus — the 1NN Distances (0 where the
        radius ladder could not uncover a first plateau).
    y:
        Lengths of the (largest, nonexcused) middle plateaus — the
        Group 1NN Distances (0 where none exists).
    first_end_index:
        Radius index ending each point's first plateau (-1 if none);
        this is the histogram bin of Def. 4.
    middle_end_index:
        Radius index ending each point's middle plateau (-1 if none);
        per footnote 2, the radius this index points at approximates
        the Group 1NN Distance and drives the Y-axis outlier test.
    radii:
        The radius ladder ``R`` of Alg. 1 line 3.
    counts:
        Neighbor counts per point per radius
        (:data:`~repro.index.base.UNKNOWN_COUNT` where the
        sparse-focused principle skipped the join).
    max_slope, max_cardinality:
        The ``b`` and ``c`` the plateaus were found with, so the
        plateaus can be re-derived from ``counts``
        (:func:`repro.core.explain.explain_point`).
    """

    x: np.ndarray
    y: np.ndarray
    first_end_index: np.ndarray
    middle_end_index: np.ndarray
    radii: np.ndarray
    counts: np.ndarray
    max_slope: float
    max_cardinality: int

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class CutoffInfo:
    """The data-driven Cutoff ``d`` (Def. 6) and its provenance.

    ``index`` is the cut position ``e`` into ``radii`` (so ``d ==
    radii[index]``); -1 with ``value == inf`` means no cut existed
    (e.g. every point sits in the modal bin) and nothing is an outlier
    on the X axis.
    """

    value: float
    index: int
    histogram: np.ndarray
    peak_index: int
    split_cost: float


@dataclass
class McCatchResult:
    """Everything McCatch returns (Alg. 1 outputs M, S, W + provenance).

    ``microclusters`` is ranked most-strange-first; ``point_scores`` is
    the per-point ranking ``W`` used for AUROC comparisons against
    point-scoring competitors.
    """

    microclusters: list[Microcluster]
    point_scores: np.ndarray
    oracle: OraclePlot
    cutoff: CutoffInfo
    n: int
    _labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def scores(self) -> np.ndarray:
        """Per-microcluster scores S, aligned with ``microclusters``."""
        return np.array([m.score for m in self.microclusters], dtype=np.float64)

    @property
    def outlier_indices(self) -> np.ndarray:
        """Sorted dataset positions of every outlying element (set A)."""
        if not self.microclusters:
            return np.array([], dtype=np.intp)
        return np.sort(np.concatenate([m.indices for m in self.microclusters]))

    @property
    def labels(self) -> np.ndarray:
        """Per-point labels: -1 for inliers, rank of the microcluster otherwise.

        Rank 0 is the most anomalous microcluster.
        """
        if self._labels is None:
            labels = np.full(self.n, -1, dtype=np.intp)
            for rank, mc in enumerate(self.microclusters):
                labels[mc.indices] = rank
            self._labels = labels
        return self._labels

    @property
    def n_outliers(self) -> int:
        """Total number of outlying elements."""
        return int(sum(m.cardinality for m in self.microclusters))

    def nonsingleton(self) -> list[Microcluster]:
        """Only the microclusters with two or more members."""
        return [m for m in self.microclusters if not m.is_singleton]

    def summary(self, max_rows: int = 10) -> str:
        """Human-readable ranking table (most-strange-first)."""
        lines = [f"McCatchResult: n={self.n}, {len(self.microclusters)} microclusters"]
        for rank, mc in enumerate(self.microclusters[:max_rows]):
            lines.append(
                f"  #{rank}: |M|={mc.cardinality:<4d} score={mc.score:8.2f} "
                f"bridge={mc.bridge_length:.4g}"
            )
        if len(self.microclusters) > max_rows:
            lines.append(f"  ... and {len(self.microclusters) - max_rows} more")
        return "\n".join(lines)
