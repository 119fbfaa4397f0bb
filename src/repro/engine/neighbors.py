"""Batched nearest-neighbor workloads on top of the engine substrate.

Nearest-neighbor workloads beyond range counts, for the query-heavy
baselines and as test references:

- :func:`knn_distances` — each indexed point's k nearest neighbors
  (self excluded), served by scipy's compiled kd-tree when the index
  is an explicit ``"ckdtree"`` (as the baselines ask for) and by
  chunked pairwise-distance blocks otherwise;
- :func:`nearest_distances_to` — nearest-indexed-element distance for
  out-of-dataset query objects by scanning every candidate in blocked
  bulk distances: the brute-force oracle that tests hold the model's
  nearest-inlier walk (:func:`repro.index.base.nearest_walk`) to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.base import MetricIndex
from repro.metric.base import MetricSpace

_CHUNK = 512  # bounds the temporary distance-matrix footprint


def knn_distances(index: MetricIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and ids of each indexed point's ``k`` nearest neighbors.

    Self is excluded; both returned arrays have shape ``(n, k)`` and
    rows follow ``index.ids`` order.  The second array holds element
    *ids* of the indexed space (for a full-dataset index these are the
    dataset row numbers, matching the historical baseline helper).

    An index exposing the optional ``knn_all(k)`` hook (e.g. the
    compiled :class:`~repro.index.ckdtree.CKDTreeIndex` fast path)
    answers directly; every other index falls back to chunked
    brute-force blocks with deterministic (stable-sort) tie breaking.
    """
    n = len(index)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    knn_all = getattr(index, "knn_all", None)
    if knn_all is not None:
        return knn_all(k)
    space = index.space
    ids = index.ids
    dists = np.empty((n, k), dtype=np.float64)
    nbr_ids = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _CHUNK):
        block = ids[start : start + _CHUNK]
        dm = space.distances_among(block, ids)
        rows = np.arange(block.size)
        dm[rows, start + rows] = np.inf  # exclude self by position
        order = np.argsort(dm, axis=1, kind="stable")[:, :k]
        dists[start : start + block.size] = np.take_along_axis(dm, order, axis=1)
        nbr_ids[start : start + block.size] = ids[order]
    return dists, nbr_ids


def nearest_distances_to(
    space: MetricSpace, objs: Sequence, indices: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Distance from each (out-of-dataset) object to its nearest element.

    ``indices`` selects the candidate elements of ``space``; the result
    has one entry per object.  Vector spaces answer each chunk with one
    bulk distance block; object spaces pay the honest per-pair metric
    cost but still avoid per-object dispatch overhead.  Every candidate
    is scanned, so this is the reference the exact tree walk
    (:func:`repro.index.base.nearest_walk`) must equal bit for bit;
    model scoring runs the walk.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("need at least one candidate element")
    n_objs = len(objs)
    out = np.empty(n_objs, dtype=np.float64)
    for start in range(0, n_objs, _CHUNK):
        block = objs[start : start + _CHUNK]
        out[start : start + len(block)] = space.distances_to_many(block, idx).min(axis=1)
    return out


def knn_to(
    space: MetricSpace, objs: Sequence, indices: Sequence[int] | np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest indexed elements for each (out-of-dataset) object.

    The held-out counterpart of :func:`knn_distances`: nothing is
    excluded (a held-out object is not among the candidates), ties
    break deterministically by stable sort on candidate order, and both
    returned ``(q, k)`` arrays follow ``objs`` order — distances and
    element ids.  Serves the inductive baseline models of
    :mod:`repro.api` (kNN-Out / LOF scoring batches against a fit).
    """
    idx = np.asarray(indices, dtype=np.intp)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > idx.size:
        raise ValueError(f"k={k} must be <= {idx.size} candidate elements")
    n_objs = len(objs)
    dists = np.empty((n_objs, k), dtype=np.float64)
    nbr_ids = np.empty((n_objs, k), dtype=np.intp)
    for start in range(0, n_objs, _CHUNK):
        block = objs[start : start + _CHUNK]
        dm = space.distances_to_many(block, idx)
        order = np.argsort(dm, axis=1, kind="stable")[:, :k]
        dists[start : start + len(block)] = np.take_along_axis(dm, order, axis=1)
        nbr_ids[start : start + len(block)] = idx[order]
    return dists, nbr_ids


def count_within_to(
    space: MetricSpace,
    objs: Sequence,
    indices: Sequence[int] | np.ndarray,
    radius: float,
) -> np.ndarray:
    """Indexed elements within ``radius`` of each (out-of-dataset) object.

    Distances are inclusive (``d <= radius``), matching the index
    layer's counting convention; chunked bulk blocks keep the
    temporary distance matrix bounded.  Serves the inductive DB-Out
    model of :mod:`repro.api`.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("need at least one candidate element")
    n_objs = len(objs)
    out = np.empty(n_objs, dtype=np.int64)
    for start in range(0, n_objs, _CHUNK):
        block = objs[start : start + _CHUNK]
        dm = space.distances_to_many(block, idx)
        out[start : start + len(block)] = np.count_nonzero(dm <= radius, axis=1)
    return out
