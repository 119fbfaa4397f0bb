"""Algorithm 1: the MCCATCH driver.

Four steps: (I) define the neighborhood radii from the tree's diameter
estimate; (II) build the 'Oracle' plot (Alg. 2); (III) spot the
microclusters (Alg. 3); (IV) compute the anomaly scores (Alg. 4).

The defaults a=15, b=0.1, c=ceil(0.1 n) are the paper's and were used
for every experiment there — McCatch is 'hands-off' (goal G5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.cutoff import compute_cutoff, outlier_mask
from repro.core.gel import spot_microclusters
from repro.core.oracle import build_oracle_plot
from repro.core.radii import define_radii
from repro.core.result import McCatchResult
from repro.core.scoring import build_inlier_index, point_scores, score_microclusters
from repro.engine import check_engine_mode
from repro.index.base import MetricIndex, nearest_walk
from repro.index.factory import build_index
from repro.index.vptree import VPTree
from repro.metric.base import MetricSpace
from repro.metric.transformation import (
    transformation_cost_for_strings,
    transformation_cost_for_trees,
    transformation_cost_for_vectors,
)
from repro.metric.trees import LabeledTree
from repro.utils.validation import (
    as_batch_rows,
    check_finite,
    check_positive_int,
    check_probability,
)


class McCatch:
    """Microcluster detector for dimensional and nondimensional data.

    Parameters
    ----------
    n_radii:
        Number of Radii ``a`` (default 15, the paper's).
    max_slope:
        Maximum Plateau Slope ``b`` (default 0.1).
    max_cardinality_fraction:
        The Maximum Microcluster Cardinality is
        ``c = ceil(n * max_cardinality_fraction)`` (default 0.1); pass
        ``max_cardinality`` to fix ``c`` absolutely instead.
    max_cardinality:
        Absolute ``c`` overriding the fraction (optional).
    index:
        Index kind for the joins: ``"auto"`` (default; a VP-tree for
        every space, so the default verdict is ``index="vptree"``'s), or
        any of :func:`repro.index.available_index_kinds`.
    engine_mode:
        Execution plan for the neighborhood workloads:
        ``"batched"`` (default; the sparse-focused schedule of
        :class:`repro.engine.BatchQueryEngine`, one or a few rungs per
        walk depending on the input), ``"per_point"`` (the reference
        plan: one rung per walk), or ``"parallel"`` (the schedule
        sharded across a persistent worker pool, one task per shard —
        see :class:`repro.engine.ShardedWalkExecutor`; requires a
        flat-backed ``index``, such as the default, to fan out).
        Results are bit-for-bit identical across all modes; only
        wall-clock differs.
    workers:
        Worker-pool size for ``engine_mode="parallel"`` (default: the
        usable core count).  Setting it with a serial engine mode is
        an error rather than a silent no-op.
    transformation_cost:
        The ``t`` of Def. 7.  ``None`` (default) derives it from the
        data: dimensionality for vectors, the word formula for strings,
        the tree formula for :class:`LabeledTree` data; other object
        types fall back to 1.0 bit with the recommendation to supply a
        domain value.
    sparse_focused:
        Apply the sparse-focused join principle of Sec. IV-G (default
        True; disable only for ablations).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import McCatch
    >>> rng = np.random.default_rng(0)
    >>> X = np.vstack([rng.normal(0, 1, (500, 2)), [[8.0, 8.0], [8.1, 8.0]]])
    >>> result = McCatch().fit(X)
    >>> result.microclusters[0].cardinality
    2
    """

    def __init__(
        self,
        n_radii: int = 15,
        max_slope: float = 0.1,
        max_cardinality_fraction: float = 0.1,
        *,
        max_cardinality: int | None = None,
        index: str = "auto",
        engine_mode: str = "batched",
        workers: int | None = None,
        transformation_cost: float | None = None,
        sparse_focused: bool = True,
    ):
        self.n_radii = check_positive_int(n_radii, name="n_radii", minimum=2)
        if max_slope < 0:
            raise ValueError(f"max_slope must be >= 0, got {max_slope}")
        self.max_slope = float(max_slope)
        self.max_cardinality_fraction = check_probability(
            max_cardinality_fraction, name="max_cardinality_fraction", allow_zero=False
        )
        if max_cardinality is not None:
            max_cardinality = check_positive_int(max_cardinality, name="max_cardinality")
        self.max_cardinality = max_cardinality
        self.index = index
        self.engine_mode = check_engine_mode(engine_mode)
        if workers is not None:
            workers = check_positive_int(workers, name="workers")
            if self.engine_mode != "parallel":
                raise ValueError(
                    "workers= only applies to engine_mode='parallel' "
                    f"(got engine_mode={self.engine_mode!r})"
                )
        self.workers = workers
        self.transformation_cost = transformation_cost
        self.sparse_focused = bool(sparse_focused)

    # -- public API --------------------------------------------------------

    def fit(self, data, metric: Callable | None = None) -> McCatchResult:
        """Run McCatch on ``data`` and return the full result.

        Parameters
        ----------
        data:
            A 2-d float array (vector data; NaN or infinite entries are
            rejected), or any sequence of objects (strings, trees, ...)
            together with ``metric``.
        metric:
            Distance function for nondimensional data; for vector data
            an optional L_p metric override (default Euclidean).
        """
        space = data if isinstance(data, MetricSpace) else MetricSpace(data, metric)
        return self._fit_space(space)[0]

    def fit_model(self, data, metric: Callable | None = None) -> "McCatchModel":
        """Run McCatch and return a reusable fitted model.

        Same computation as :meth:`fit`, but the returned
        :class:`McCatchModel` keeps the fitted space, the inlier VP-tree
        of Alg. 4 and the result together, so it can score held-out
        batches (:meth:`McCatchModel.score_batch`) and be persisted with
        :meth:`McCatchModel.save` / :meth:`McCatchModel.load` — fit
        once, serve many.
        """
        space = data if isinstance(data, MetricSpace) else MetricSpace(data, metric)
        result, tree, inlier_index = self._fit_space(space)
        if inlier_index is None and result.n_outliers == 0 and isinstance(tree, VPTree):
            inlier_index = tree  # every element is an inlier: the fit tree serves
        return McCatchModel(space, inlier_index, result)

    def _fit_space(
        self, space: MetricSpace
    ) -> tuple[McCatchResult, MetricIndex, MetricIndex | None]:
        """Alg. 1 over a prepared space.

        Returns the result, the fit tree, and Alg. 4's inlier VP-tree
        (``None`` when Alg. 4 built none).
        """
        if space.is_vector:
            check_finite(space.data)
        n = len(space)
        c = self._resolve_c(n)
        t = self._resolve_transformation_cost(space)

        # Step I: tree + radii (Alg. 1 lines 1-3).
        tree = build_index(space, kind=self.index)
        if self.engine_mode == "parallel":
            from repro.engine.parallel import supports_sharding

            # A worker pool can only shard FlatTree storage.  Falling
            # back to the serial plan here would make workers= a silent
            # no-op (and auto-swapping the index would break the
            # "modes differ only in wall-clock" contract, since the
            # index choice shapes the radius ladder) — so fail loudly.
            if not supports_sharding(tree):
                raise ValueError(
                    "engine_mode='parallel' needs a flat-backed index to "
                    f"shard across workers, but index={self.index!r} built "
                    f"a {type(tree).__name__}; pick one of vptree / "
                    "balltree / covertree / mtree / slimtree, or 'auto'"
                )
        if tree.diameter_estimate() <= 0.0:
            # Single element, or every element coincides: no radius
            # ladder exists and nothing can be anomalous.  Return the
            # empty verdict instead of failing deep in the substrate —
            # streaming windows and trivial inputs hit this legitimately.
            return _degenerate_result(n, self.n_radii, self.max_slope, c), tree, None
        radii = define_radii(tree, self.n_radii)

        # Step II: 'Oracle' plot (Alg. 2).
        oracle = build_oracle_plot(
            tree,
            radii,
            max_slope=self.max_slope,
            max_cardinality=c,
            sparse_focused=self.sparse_focused,
            engine_mode=self.engine_mode,
            workers=self.workers,
        )

        # Step III: spot microclusters (Alg. 3).
        cutoff = compute_cutoff(oracle.first_end_index, radii)
        mask = outlier_mask(oracle, cutoff)
        outliers = np.nonzero(mask)[0]
        clusters = spot_microclusters(
            space, oracle, cutoff, outliers,
            index_kind=self.index, engine_mode=self.engine_mode, workers=self.workers,
        )

        # Step IV: anomaly scores (Alg. 4).
        microclusters, scores, inlier_index = score_microclusters(
            space, clusters, oracle,
            transformation_cost=t, engine_mode=self.engine_mode, workers=self.workers,
        )
        result = McCatchResult(
            microclusters=microclusters,
            point_scores=scores,
            oracle=oracle,
            cutoff=cutoff,
            n=n,
        )
        return result, tree, inlier_index

    def fit_scores(self, data, metric: Callable | None = None) -> np.ndarray:
        """Per-point anomaly scores W only (baseline-compatible view)."""
        return self.fit(data, metric).point_scores

    # -- helpers ------------------------------------------------------------

    def _resolve_c(self, n: int) -> int:
        if self.max_cardinality is not None:
            return self.max_cardinality
        return max(1, math.ceil(n * self.max_cardinality_fraction))

    def _resolve_transformation_cost(self, space: MetricSpace) -> float:
        if self.transformation_cost is not None:
            if self.transformation_cost <= 0:
                raise ValueError("transformation_cost must be positive")
            return float(self.transformation_cost)
        if space.is_vector:
            return transformation_cost_for_vectors(space.dimensionality)
        sample = space.data[0]
        if isinstance(sample, str):
            return transformation_cost_for_strings(space.data)
        if isinstance(sample, LabeledTree):
            return transformation_cost_for_trees(space.data)
        return 1.0  # unknown object space; caller should supply t (Def. 7)


def _degenerate_result(
    n: int, n_radii: int, max_slope: float, max_cardinality: int
) -> McCatchResult:
    """The empty verdict for zero-diameter data (see McCatch.fit)."""
    from repro.core.result import CutoffInfo, OraclePlot

    zeros = np.zeros(n, dtype=np.float64)
    none = np.full(n, -1, dtype=np.intp)
    oracle = OraclePlot(
        x=zeros.copy(),
        y=zeros.copy(),
        first_end_index=none.copy(),
        middle_end_index=none.copy(),
        radii=np.zeros(n_radii, dtype=np.float64),
        counts=np.full((n, n_radii), n, dtype=np.int64),
        max_slope=max_slope,
        max_cardinality=max_cardinality,
    )
    cutoff = CutoffInfo(
        value=float("inf"),
        index=-1,
        histogram=np.zeros(n_radii, dtype=np.intp),
        peak_index=0,
        split_cost=0.0,
    )
    return McCatchResult(
        microclusters=[], point_scores=zeros.copy(), oracle=oracle, cutoff=cutoff, n=n
    )


@dataclass(frozen=True)
class BatchScores:
    """What :meth:`McCatchModel.score_batch` produced for one batch.

    Attributes
    ----------
    scores:
        Per-element scores ``w = ⟨1 + g/r₁⟩`` (Alg. 4 line 22), where
        ``g`` is the distance to the model's nearest inlier.
    flagged:
        Batch positions with ``g ≥ d`` — the Cutoff's own semantics
        ("the minimum distance required between one microcluster and
        its nearest inlier").
    """

    scores: np.ndarray
    flagged: np.ndarray


class McCatchModel:
    """A fitted McCatch: space + inlier tree + result, ready to serve.

    Returned by :meth:`McCatch.fit_model`.  Keeps the three fitted
    artifacts together so held-out batches can be scored against the
    model (:meth:`score_batch`, the same provisional scorer streaming
    uses between refits), and — because the tree is flat array-backed
    — the whole model persists to a single ``.npz``
    (:meth:`save` / :meth:`load`; vector spaces only, since a custom
    object metric cannot be serialized).

    Parameters
    ----------
    space:
        The fitted :class:`~repro.metric.base.MetricSpace`.
    index:
        A VP-tree over the model's inliers (Alg. 4's inlier index), or
        ``None`` to build one here — the streaming scorer and archives
        of the first model format take that path.
    result:
        The :class:`~repro.core.result.McCatchResult` of the fit.
    spec:
        Optional serving-spec string (see :mod:`repro.api`) recorded by
        the unified API; persisted alongside the model so a registry
        can reconstruct the estimator that produced it.
    """

    def __init__(
        self,
        space: MetricSpace,
        index: MetricIndex | None,
        result: McCatchResult,
        *,
        spec: str | None = None,
    ):
        self.space = space
        self.result = result
        self.spec = spec
        if index is None:
            index = build_inlier_index(space, result.outlier_indices)
        if index is None:  # degenerate: everything was an outlier
            index = build_index(space, kind="vptree")
        self.index = index

    @property
    def n(self) -> int:
        """Number of fitted elements."""
        return self.result.n

    def score_batch(self, batch) -> BatchScores:
        """Score held-out elements against the fitted model.

        ``g`` = distance to the nearest element the model considers an
        inlier; score = ⟨1 + g/r₁⟩ (Alg. 4 line 22); flagged iff
        ``g ≥ d``.  ``g`` comes from an exact nearest-element walk
        over the inlier tree (:func:`repro.index.base.nearest_walk`),
        equal bit for bit to scanning every inlier.  For vector models
        the walk is one call into the compiled kernel per batch, which
        releases the GIL, so threads can score batches side by side;
        object metrics and runs without the kernel take the numpy
        walk.  Each row's score depends on that row alone.  Deterministic:
        the same batch scores identically before and after a
        save/load round trip.  A bare ``str`` or ``bytes`` batch is a
        ``TypeError``: pass a list of elements.
        """
        if isinstance(batch, (str, bytes)):
            raise TypeError(
                "score_batch takes a batch of elements, got a bare "
                f"{type(batch).__name__}; wrap one element in a list"
            )
        if self.space.is_vector:
            rows = check_finite(
                as_batch_rows(batch, self.space.dimensionality), name="batch"
            )
        else:
            rows = list(batch)
        if len(rows) == 0:
            return BatchScores(np.zeros(0), np.zeros(0, dtype=np.intp))
        r1 = float(self.result.oracle.radii[0])
        if r1 <= 0.0:  # degenerate fit: no radius ladder, nothing anomalous
            return BatchScores(np.zeros(len(rows)), np.zeros(0, dtype=np.intp))
        # self.space, not self.index.space: a server swaps in a counting
        # proxy here, and the walk's distances must be counted there.
        g = nearest_walk(self.space, rows, self.index.flat)
        flagged = np.nonzero(g >= self.result.cutoff.value)[0].astype(np.intp)
        return BatchScores(point_scores(g, r1), flagged)

    def save(self, path) -> "Path":
        """Persist the model (inlier tree + data + result) to one ``.npz``."""
        from repro.io.models import save_model

        return save_model(self, path)

    @classmethod
    def load(cls, path, *, mmap: bool = False) -> "McCatchModel":
        """Load a model saved by :meth:`save`.

        ``mmap=True`` memory-maps the tree arrays and data matrix off
        the archive so concurrent scorers share one on-disk model (see
        :func:`repro.io.models.load_model`).
        """
        from repro.io.models import load_model

        return load_model(path, mmap=mmap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"McCatchModel(n={self.n}, inliers={len(self.index)}, "
            f"microclusters={len(self.result.microclusters)})"
        )


def detect_microclusters(data, metric: Callable | None = None, **kwargs) -> McCatchResult:
    """One-shot convenience: ``McCatch(**kwargs).fit(data, metric)``."""
    return McCatch(**kwargs).fit(data, metric)
