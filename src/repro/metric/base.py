"""MetricSpace: a dataset paired with its distance function.

Everything downstream of the public API (indexes, joins, the McCatch
core) works against a :class:`MetricSpace` rather than raw arrays, so
vector and nondimensional data flow through identical code paths — the
only difference is which bulk-distance implementation backs the space.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.metric.vector import VectorMetric, euclidean, vector_metric


def pairwise_distances(data, metric: Callable) -> np.ndarray:
    """Full symmetric distance matrix; convenience for small datasets."""
    space = MetricSpace(data, metric)
    return space.distance_matrix()


class MetricSpace:
    """A dataset of ``n`` elements plus a distance function.

    Parameters
    ----------
    data:
        Either a 2-d float array (vector data) or a sequence of
        arbitrary objects (strings, trees, ...).
    metric:
        For vector data: a :class:`VectorMetric`, a metric name, or
        ``None`` (Euclidean).  For object data: a callable
        ``f(a, b) -> float`` satisfying the metric axioms.

    Notes
    -----
    Indexes only call :meth:`distances` / :meth:`distances_among`; the
    vector fast path uses NumPy broadcasting while the object path loops
    in Python, which is the honest cost of a user-supplied metric.
    """

    #: Lazily cached per-row squared norms for the Euclidean
    #: :meth:`paired_distances` fast path.  A class-level default so
    #: proxy subclasses that bypass ``__init__`` stay consistent.
    _sqnorms: np.ndarray | None = None

    #: Lazily cached contiguous per-coordinate columns for the low-dim
    #: Euclidean :meth:`paired_distances` fast path (same class-level
    #: default rationale as ``_sqnorms``).
    _pcols: list | None = None

    #: Lazily cached float32 coordinate view for the walks' approximate
    #: squared-distance prefilters (``False`` marks "checked, not
    #: applicable" so the gate is evaluated once per space).
    _f32cache: tuple | bool | None = None

    def __init__(self, data, metric=None):
        if isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.number):
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.ndim != 2:
                raise ValueError(f"vector data must be 2-d, got shape {arr.shape}")
            self.data = arr
            self.is_vector = True
            self._vm: VectorMetric | None = (
                euclidean if metric is None else vector_metric(metric)
            )
            self.metric: Callable = self._vm
        else:
            if metric is None:
                raise ValueError("nondimensional data requires an explicit metric callable")
            if not callable(metric):
                raise TypeError("metric must be callable for nondimensional data")
            self.data = list(data)
            self.is_vector = False
            self._vm = None
            self.metric = metric
        if len(self) == 0:
            raise ValueError("MetricSpace requires at least one element")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def dimensionality(self) -> int | None:
        """Embedding dimensionality for vector data, else ``None``."""
        return int(self.data.shape[1]) if self.is_vector else None

    def __getitem__(self, i: int):
        return self.data[i]

    # -- bulk distances -------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """Distance between elements ``i`` and ``j``.

        For vector data this routes through the same bulk implementation
        as :meth:`distances`, so scalar and bulk evaluations are
        bit-identical — indexes compare distances against shared radius
        boundaries, and a last-ulp disagreement between two code paths
        would make trees disagree with the brute-force oracle at exact
        boundary radii.
        """
        if self.is_vector:
            return float(self._vm.bulk(self.data[i][None, :], self.data[j][None, :])[0, 0])
        return float(self.metric(self.data[i], self.data[j]))

    def distances(self, query_index: int, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distances from element ``query_index`` to each element in ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        if self.is_vector:
            return self._vm.bulk(self.data[query_index][None, :], self.data[idx])[0]
        q = self.data[query_index]
        return np.array([self.metric(q, self.data[j]) for j in idx], dtype=np.float64)

    def distances_to(self, obj, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distances from an out-of-dataset object to elements in ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        if self.is_vector:
            q = np.asarray(obj, dtype=np.float64)
            return self._vm.bulk(q[None, :], self.data[idx])[0]
        return np.array([self.metric(obj, self.data[j]) for j in idx], dtype=np.float64)

    def distances_to_many(
        self, objs, indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Distance matrix from out-of-dataset objects to elements.

        The batched form of :meth:`distances_to`: one ``(q, m)`` block
        for ``q`` query objects against ``m`` indexed elements.  Vector
        data answers with a single bulk broadcast; object data loops,
        which is the honest cost of a user-supplied metric.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if self.is_vector:
            Q = np.asarray(objs, dtype=np.float64)
            if Q.ndim == 1:
                Q = Q.reshape(1, -1)
            return self._vm.bulk(Q, self.data[idx])
        out = np.empty((len(objs), idx.size), dtype=np.float64)
        for row, obj in enumerate(objs):
            for col, j in enumerate(idx):
                out[row, col] = self.metric(obj, self.data[j])
        return out

    def paired_distances_to(self, rows, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row-aligned distances from out-of-dataset objects to elements.

        ``out[k] = distance(rows[k], data[indices[k]])`` — the primitive
        the nearest-element walk measures each query against its
        frontier nodes with.  Vector spaces route through
        :meth:`VectorMetric.paired`, whose entries are bitwise equal to
        the :meth:`distances_to_many` block entries (never a BLAS
        matmul); object spaces call the metric once per pair.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if len(rows) != idx.size:
            raise ValueError(
                f"paired_distances_to needs equal lengths, got {len(rows)} and {idx.size}"
            )
        if self.is_vector:
            return self._vm.paired(np.asarray(rows, dtype=np.float64), self.data[idx])
        return np.array(
            [self.metric(obj, self.data[j]) for obj, j in zip(rows, idx)],
            dtype=np.float64,
        )

    def credit_evaluations(self, pairs: int, seconds: float) -> None:
        """Account for ``pairs`` distances evaluated outside this space.

        The compiled nearest walk (:mod:`repro.index.ckernel`) measures
        ``data`` in C, past every method here; it reports its
        evaluations and wall time through this hook.  A plain space
        ignores them; :class:`~repro.metric.instrumentation.CountingMetricSpace`
        counts them.
        """

    def paired_distances(
        self, left: Sequence[int] | np.ndarray, right: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Row-aligned distances between two equal-length id sequences.

        ``out[k] = distance(left[k], right[k])`` — the primitive the
        level-synchronous tree builds use to measure every element of a
        tree level against its segment's vantage in one call.  Vector
        spaces route through :meth:`VectorMetric.paired`, which is
        bitwise consistent with the :meth:`distances` /
        :meth:`distances_among` bulk path; object spaces pay the honest
        per-pair metric cost.
        """
        li = np.asarray(left, dtype=np.intp)
        ri = np.asarray(right, dtype=np.intp)
        if li.size != ri.size:
            raise ValueError(f"paired_distances needs equal lengths, got {li.size} and {ri.size}")
        if self.is_vector:
            if self._vm.p == 2.0:
                sq = self._sqnorms
                if sq is None:
                    # Cache the row squared norms once per space:
                    # einsum's per-row reduction is row-independent, so
                    # gathered norms are bitwise identical to freshly
                    # computed ones, and the walks' huge paired calls
                    # drop from three einsum passes to one.
                    sq = self._sqnorms = np.einsum("ij,ij->i", self.data, self.data)
                if 1 <= self.data.shape[1] <= 2:
                    # Column-take fast path: row gathers from a 2-d
                    # array cost a small memcpy per row, while 1-d
                    # ``take`` streams.  The accumulation
                    # ``x0*y0 + x1*y1`` is the exact operation order of
                    # ``einsum("ij,ij->i", ...)`` for one or two
                    # columns (einsum unrolls differently beyond that,
                    # hence the dim gate), so every float is bitwise
                    # identical to :meth:`VectorMetric.paired`.
                    cols = self._pcols
                    if cols is None:
                        cols = self._pcols = [
                            np.ascontiguousarray(self.data[:, k])
                            for k in range(self.data.shape[1])
                        ]
                    ab = cols[0].take(li) * cols[0].take(ri)
                    for col in cols[1:]:
                        ab += col.take(li) * col.take(ri)
                    out = (sq.take(li) + sq.take(ri)) - 2.0 * ab
                    np.maximum(out, 0.0, out=out)
                    return np.sqrt(out, out=out)
                return self._vm.paired(
                    self.data[li], self.data[ri], sq_a=sq[li], sq_b=sq[ri]
                )
            return self._vm.paired(self.data[li], self.data[ri])
        return np.array(
            [self.metric(self.data[i], self.data[j]) for i, j in zip(li, ri)],
            dtype=np.float64,
        )

    def float32_coords(self) -> tuple | None:
        """Float32 coordinate view backing approximate distance bounds.

        Returns ``(cols, sqnorms, scale2)`` — contiguous float32 copies
        of each coordinate column, float32 row squared norms, and the
        magnitude scale ``4 * max(||x||^2)`` that bounds every operand
        of the expansion ``||q||^2 + ||x||^2 - 2 q.x`` — or ``None``
        when the space is not finite Euclidean vector data.

        The walks use this view to *bracket* squared distances, never
        to decide them: a decision margin proportional to ``scale2``
        absorbs the float32 round-off (a few units in ``1e-7`` of the
        scale, versus the ``1e-4`` margins used), and anything inside
        the margin band is re-evaluated through the exact float64
        :meth:`paired_distances` path, so counts stay bit-identical.
        The dimensionality gate keeps the accumulated rounding of a
        per-column sum comfortably below that margin.
        """
        cache = self._f32cache
        if cache is None:
            cache = False
            if self.is_vector and self._vm is not None and self._vm.p == 2.0:
                dim = self.data.shape[1]
                if 0 < dim <= 64:
                    sq = self._sqnorms
                    if sq is None:
                        sq = self._sqnorms = np.einsum("ij,ij->i", self.data, self.data)
                    scale2 = 4.0 * float(sq.max())
                    if np.isfinite(scale2):
                        cols = [
                            np.ascontiguousarray(self.data[:, k], dtype=np.float32)
                            for k in range(dim)
                        ]
                        cache = (cols, sq.astype(np.float32), scale2)
            self._f32cache = cache
        return cache or None

    def distances_among(
        self, left: Sequence[int] | np.ndarray, right: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Distance matrix between two index sets of this space."""
        li = np.asarray(left, dtype=np.intp)
        ri = np.asarray(right, dtype=np.intp)
        if self.is_vector:
            return self._vm.bulk(self.data[li], self.data[ri])
        out = np.empty((len(li), len(ri)), dtype=np.float64)
        for a, i in enumerate(li):
            pi = self.data[i]
            for b, j in enumerate(ri):
                out[a, b] = self.metric(pi, self.data[j])
        return out

    def distance_matrix(self) -> np.ndarray:
        """Full symmetric pairwise distance matrix (O(n^2) — small data only)."""
        n = len(self)
        idx = np.arange(n)
        if self.is_vector:
            return self._vm.bulk(self.data, self.data)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self.metric(self.data[i], self.data[j])
                out[i, j] = out[j, i] = d
        return out

    def subset(self, indices: Sequence[int] | np.ndarray) -> "MetricSpace":
        """A new MetricSpace over the selected elements (copies references)."""
        idx = np.asarray(indices, dtype=np.intp)
        if self.is_vector:
            return MetricSpace(self.data[idx], self._vm)
        return MetricSpace([self.data[i] for i in idx], self.metric)


class PrecomputedMetric:
    """Adapter exposing a precomputed distance matrix as a metric on indices.

    Useful in tests and for expensive metrics (e.g. tree edit distance)
    where recomputation would dominate: the "dataset" becomes
    ``range(n)`` and lookups are O(1).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("precomputed matrix must be square")
        if (matrix < 0).any():
            raise ValueError("distances must be nonnegative")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("precomputed matrix must be symmetric")
        self.matrix = matrix

    def __call__(self, i, j) -> float:
        return float(self.matrix[int(i), int(j)])

    def space(self) -> MetricSpace:
        """MetricSpace over element indices ``0..n-1`` with this metric."""
        return MetricSpace(list(range(self.matrix.shape[0])), self)
