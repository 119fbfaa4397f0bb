"""The compiled walks: Python drivers around the C kernel.

Both drivers make one GIL-free ctypes call per batch of queries; in
each call every query walks the tree's arrays on its own, depth first,
over ``space.data`` as it is, for every vector L_p space and every flat
family.  Neither kernel reproduces numpy's floats: each decides only
what a proven error margin settles and hands the rest back for an
exact re-measurement through the space's own numpy path, so the
results equal brute force bit for bit.

- :func:`compiled_count_walk` is one ``repro_count`` call per radius.
  Each query swallows, prunes or scans nodes with its kernel distance
  and returns a sure count plus the (query, element) band pairs whose
  kernel distance lies within the margin of the radius; one
  :meth:`~repro.metric.base.MetricSpace.paired_distances` call settles
  the band with ``<= r``.
- :func:`compiled_nearest_candidates` is one ``repro_nearest`` call per
  batch: every row's candidates, which
  :func:`repro.index.base.nearest_walk` re-measures exactly.

The proofs are in the comments above the two C functions.  Object
metrics keep the numpy walks of :mod:`repro.index.base`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.index.base import _WALK_STAT_KEYS, _nearest_slack
from repro.index.ckernel.loader import CKernelError, get_kernel

#: Members a subtree may hold to be scanned member by member instead of
#: descended: a scan costs one branch-free distance per member, a
#: descent one distance, a few unpredictable branches and stack traffic
#: per node visit.  Serial one-rung SELFJOINC of ``make_http_like
#: (10_000)`` on a VP-tree, 2-vCPU VM, seeds 0 / 1, best of 3: 16 took
#: 0.69 / 0.69 s, 32 0.59 / 0.58 s, 64 0.58 / 0.57 s, 128 0.62 / 0.61 s
#: and 256 0.72 / 0.69 s.
VLEAF = 64

#: Band pairs the first ``repro_count`` call of a walk may emit.  A full
#: buffer is settled and the walk resumes at the row that did not fit;
#: a row that alone does not fit grows the buffer to the tree's element
#: count (a row bands each element at most once), so memory stays
#: bounded whatever the margin.  A SELFJOINC rung of ``make_http_like
#: (10_000)`` bands a few dozen pairs.
_BAND_CAP = 1 << 14

#: The kernel's metric codes by L_p order (any other order is 0, the
#: general ``pow`` path).
_LP_KIND = {1.0: 1, 2.0: 2, float("inf"): 3}


def _p(arr):
    """Base address of a (contiguous) array for a ``c_void_p`` argument."""
    return None if arr is None else arr.ctypes.data


def _contig(arr, dtype):
    return np.ascontiguousarray(arr, dtype=dtype)


def _scan_coords(space, tree):
    """The members' coordinates in ``elems`` order, float64, cached on
    the tree: a scan then streams one contiguous slice instead of
    gathering rows by id."""
    coords = tree._scan_cache
    if coords is None:
        coords = tree._scan_cache = _contig(space.data[tree.elems], np.float64)
    return coords


def _settle_band(space, qids, rows, elems, r, counts):
    """Add each band pair whose numpy distance is within ``r`` to its
    query's count; queries stay on the Q side of the metric."""
    hit = rows[space.paired_distances(qids.take(rows), elems) <= r]
    if hit.size:
        counts += np.bincount(hit, minlength=counts.size)


def compiled_count_walk(
    space,
    query_ids: np.ndarray,
    radii: np.ndarray,
    tree,
    *,
    stats: dict | None = None,
) -> np.ndarray:
    """Multi-radius range counts through ``repro_count``.

    Same signature and ``(q, a)`` int64 result as
    :func:`repro.index.base.level_count_walk`, and the same counts
    (brute force's).  One kernel call answers one radius for every
    query, so a multi-radius call loops over ``radii``.  The margin of
    each query is half of :func:`~repro.index.base._nearest_slack`,
    four times the error bound of any one distance (see ``repro_count``
    in ``kernel.c``).

    Vector spaces only: :func:`repro.index.base.count_walk` sends object
    metrics to the level walk.  The kernel's distance evaluations and
    wall time reach ``space`` through
    :meth:`~repro.metric.base.MetricSpace.credit_evaluations`.
    ``stats`` gains ``steps`` (kernel calls), ``entries`` (node
    visits), ``distance_calls`` (kernel calls plus band re-measures),
    ``leaf_entries_total`` (members scanned) and
    ``leaf_entries_filtered`` (scanned members settled in C).  Raises
    :class:`CKernelError` when the kernel is unavailable and
    ``TypeError`` for an object space.
    """
    kernel = get_kernel()
    if kernel is None:
        raise CKernelError(
            "compiled walk requested but the C kernel is unavailable; "
            "count_walk falls back to the numpy level walk"
        )
    if not space.is_vector:
        raise TypeError(
            "the compiled count walk serves vector spaces; count_walk "
            "sends object metrics to the numpy level walk"
        )
    qids = _contig(query_ids, np.intp)
    radii = _contig(radii, np.float64)
    nq, a = qids.size, radii.size
    if nq and (qids.min() < 0 or qids.max() >= len(space)):
        raise IndexError("query ids must be element ids of the space")
    out = np.zeros((a, nq), dtype=np.int64)
    if stats is not None:
        for key in _WALK_STAT_KEYS + ("leaf_entries_total", "leaf_entries_filtered"):
            stats.setdefault(key, 0)
    if nq == 0 or a == 0:
        return out.T.copy()
    data = _contig(space.data, np.float64)
    p = float(space.metric.p)
    margin = 0.5 * _nearest_slack(space, data[qids], tree)[0]
    coords = _scan_coords(space, tree)
    center = _contig(tree.center, np.intp)
    threshold = _contig(tree.threshold, np.float64)
    radius = _contig(tree.radius, np.float64)
    size = _contig(tree.size, np.int64)
    child_lo = _contig(tree.child_lo, np.intp)
    child_hi = _contig(tree.child_hi, np.intp)
    elem_lo = _contig(tree.elem_lo, np.intp)
    elem_hi = _contig(tree.elem_hi, np.intp)
    elems = _contig(tree.elems, np.intp)
    cap = _BAND_CAP
    band_row = np.empty(cap, dtype=np.intp)
    band_elem = np.empty(cap, dtype=np.intp)
    counters = np.zeros(6, dtype=np.int64)
    calls = settles = 0
    seconds = 0.0
    for j in range(a):
        r = float(radii[j])
        counts = out[j]
        row = 0
        while True:
            counters[0] = row
            counters[1] = 0
            started = time.perf_counter()
            status = kernel.count(
                nq, _p(qids), data.shape[1], _p(data), _p(coords),
                _LP_KIND.get(p, 0), p, r, _p(margin),
                tree.n_nodes, _p(center), _p(threshold), _p(radius), _p(size),
                _p(child_lo), _p(child_hi), _p(elem_lo), _p(elem_hi), _p(elems),
                int(tree.vp_split), VLEAF,
                _p(counts), cap, _p(band_row), _p(band_elem), _p(counters),
            )
            seconds += time.perf_counter() - started
            if status != 0:
                raise MemoryError("repro_count could not allocate its node stack")
            calls += 1
            written = int(counters[1])
            if written:
                _settle_band(space, qids, band_row[:written], band_elem[:written], r, counts)
                settles += 1
            stop = int(counters[0])
            if stop == nq:
                break
            if stop == row:
                # The row alone did not fit in the empty buffer: one row
                # bands each element at most once.
                cap = max(2 * cap, elems.size)
                band_row = np.empty(cap, dtype=np.intp)
                band_elem = np.empty(cap, dtype=np.intp)
            row = stop
    space.credit_evaluations(int(counters[2]), seconds)
    if stats is not None:
        stats["steps"] += calls
        stats["entries"] += int(counters[3])
        stats["distance_calls"] += calls + settles
        stats["leaf_entries_total"] += int(counters[4])
        stats["leaf_entries_filtered"] += int(counters[5])
    return out.T.copy()


#: Candidate slots per row in the first ``repro_nearest`` call; a batch
#: whose rows tie more often than that grows the buffer and resumes.
_NEAREST_SLOTS_PER_ROW = 4


def compiled_nearest_candidates(space, rows, tree, slack, *, stats=None):
    """Each row's nearest-element candidates over ``tree``: ``repro_nearest``.

    ``rows`` is a ``(m, dim)`` float64 block of out-of-dataset vectors
    and ``slack`` the per-row absolute slack of
    :func:`repro.index.base._nearest_slack`.  One kernel call walks
    every row over the tree's arrays and ``space.data`` as they are
    (mmap-backed included); nothing is built or cached.  Returns
    ``(elems, row_end, evals)``: the candidate element ids, row-major;
    the running candidate count after each row (every row has at least
    one); and the kernel's distance evaluations.  The exact minimum is
    the per-row minimum of the einsum distances to the candidates (see
    ``repro_nearest`` in ``kernel.c`` for why the set holds it).
    ``stats`` gains ``steps`` (kernel calls), ``entries`` (node visits)
    and ``distance_calls``.  Raises :class:`CKernelError` when the
    kernel is unavailable.
    """
    kernel = get_kernel()
    if kernel is None:
        raise CKernelError(
            "compiled nearest walk requested but the C kernel is "
            "unavailable; nearest_walk falls back to the numpy walk"
        )
    rows = _contig(rows, np.float64)
    m, dim = rows.shape
    data = _contig(space.data, np.float64)
    p = float(space.metric.p)
    slack = _contig(slack, np.float64)
    center = _contig(tree.center, np.intp)
    threshold = _contig(tree.threshold, np.float64)
    radius = _contig(tree.radius, np.float64)
    child_lo = _contig(tree.child_lo, np.intp)
    child_hi = _contig(tree.child_hi, np.intp)
    elem_lo = _contig(tree.elem_lo, np.intp)
    elem_hi = _contig(tree.elem_hi, np.intp)
    elems = _contig(tree.elems, np.intp)
    d_elem = None if tree.d_elem is None else _contig(tree.d_elem, np.float64)
    cap = _NEAREST_SLOTS_PER_ROW * m
    cand = np.empty(cap, dtype=np.intp)
    row_end = np.empty(m, dtype=np.intp)
    counters = np.zeros(4, dtype=np.int64)
    calls = 0
    while True:
        status = kernel.nearest(
            m, dim, _p(rows), _p(data),
            _LP_KIND.get(p, 0), p, _p(slack),
            tree.n_nodes, _p(center), _p(threshold), _p(radius),
            _p(child_lo), _p(child_hi), _p(elem_lo), _p(elem_hi),
            elems.size, _p(elems), _p(d_elem), int(tree.vp_split),
            cap, _p(cand), _p(row_end), _p(counters),
        )
        if status != 0:
            raise MemoryError("repro_nearest could not allocate its walk scratch")
        calls += 1
        if counters[0] == m:
            break
        # The next row's candidates did not fit: grow so that they do
        # (one row has at most n_nodes + elems.size of them).
        written = int(counters[1])
        cap = max(2 * cap, written + tree.n_nodes + elems.size)
        grown = np.empty(cap, dtype=np.intp)
        grown[:written] = cand[:written]
        cand = grown
    if stats is not None:
        stats["steps"] += calls
        stats["entries"] += int(counters[3])
        stats["distance_calls"] += calls
    return cand[: int(counters[1])], row_end, int(counters[2])
