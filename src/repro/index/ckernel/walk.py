"""The compiled walks: Python drivers around the C inner loops.

Two drivers live here.  :func:`compiled_nearest_candidates` (at the
end) is one ``repro_nearest`` call per batch: every row walks the tree
on its own inside C, and the call returns candidates that
:func:`repro.index.base.nearest_walk` re-measures exactly.
:func:`compiled_count_walk` is the count walk; its structure mirrors
:func:`repro.index.base.level_count_walk` exactly —
same work stack, same ``_LEVEL_CHUNK`` slicing, same leaf-scatter
routing — but the two hot loops run in the shared object built by
:mod:`repro.index.ckernel.loader`:

- ``repro_advance`` replaces :func:`~repro.index.base._level_step`'s
  grouped numpy passes with one pass over the frontier chunk (swallow /
  prune / tighten / vantage handling / child expansion), scattering
  whole-node credits directly into the difference array.  For 1-/2-d
  euclidean data the query-to-center distances are fused into the same
  pass, reproducing the column-take expansion of
  :meth:`~repro.metric.base.MetricSpace.paired_distances` bit for bit;
  every other metric keeps its distances in Python (the exact same
  calls the numpy walk makes) and hands them to the kernel.
- ``repro_rect_rung`` replaces :func:`~repro.index.base._rect_single_rung`'s
  float32 rectangle.  Margin-band cells are settled by the exact
  float64 metric — inside the kernel for 1-/2-d euclidean data, back in
  Python (``paired_distances``) for everything else — so counts stay
  bit-identical to the numpy level walk.

Everything the kernel does not accelerate (multi-rung leaf windows,
object-metric leaf scatters, the einsum bulk cross-term) goes through
the unmodified numpy helpers, which keeps the differential surface
small and the bit-identity argument local to the two loops above.
"""

from __future__ import annotations

import ctypes
from functools import partial

import numpy as np

from repro.index.base import (
    _EMPTY_FRONTIER,
    _LEVEL_CHUNK,
    _WALK_STAT_KEYS,
    WalkFrontier,
    _finish_counts,
    _identity_or_ids,
    _IdentityIds,
    _level_leaf_scatter,
    _range_add,
    _rect_leaf_cache,
    _root_frontier,
)
from repro.index.ckernel.loader import CKernelError, get_kernel

#: Entry cap per rect-kernel call in band mode: bounds the emitted
#: (entry, slot) pair buffers at ``_RECT_BAND_CELLS`` cells.
_RECT_BAND_CELLS = 1 << 22


def _p(arr):
    """Base address of a (contiguous) array for a ``c_void_p`` argument."""
    return None if arr is None else arr.ctypes.data


def _contig(arr, dtype):
    return np.ascontiguousarray(arr, dtype=dtype)


class _WalkContext:
    """Per-walk bundle: kernel handle, contiguous tree arrays, fused
    coordinate columns, and the shared difference array."""

    def __init__(self, kernel, space, tree, radii, qids, diff):
        self.kernel = kernel
        self.space = space
        self.tree = tree
        self.radii = radii
        self.qids = qids  # None for identity query ids
        self.diff = diff
        self.a = radii.size
        self.stride = self.a + 1
        self.center = _contig(tree.center, np.intp)
        self.radius = _contig(tree.radius, np.float64)
        self.size = _contig(tree.size, np.int64)
        self.child_lo = _contig(tree.child_lo, np.intp)
        self.child_hi = _contig(tree.child_hi, np.intp)
        self.threshold = _contig(tree.threshold, np.float64)
        self.d_parent = (
            None if tree.d_parent is None else _contig(tree.d_parent, np.float64)
        )
        self.elems = _contig(tree.elems, np.intp)
        self.elem_lo = _contig(tree.elem_lo, np.intp)
        self.vp_split = int(tree.vp_split)
        self.emit_dpar = int(tree.d_parent is not None and not tree.vp_split)
        # 1-/2-d euclidean: the kernel fuses exact float64 distances.
        fast = getattr(space, "paired_fast_columns", None)
        self.fast = fast() if fast is not None else None
        rc = _rect_leaf_cache(space, tree)
        self.route_max = int(rc[0]) if rc is not None else 0


def compiled_count_walk(
    space,
    query_ids: np.ndarray,
    radii: np.ndarray,
    tree,
    *,
    stats: dict | None = None,
) -> np.ndarray:
    """Multi-radius range counting through the compiled kernel.

    Drop-in for :func:`repro.index.base.level_count_walk` — same
    signature, bit-identical counts.  Raises :class:`CKernelError` when
    the kernel is unavailable; callers that want the graceful fallback
    go through :func:`repro.index.base.count_walk`.
    """
    kernel = get_kernel()
    if kernel is None:
        raise CKernelError(
            "compiled walk requested but the C kernel is unavailable; "
            "count_walk falls back to the numpy level walk"
        )
    track = stats is not None
    if track:
        for key in _WALK_STAT_KEYS:
            stats.setdefault(key, 0)
    query_ids = np.asarray(query_ids, dtype=np.intp)
    nq, a = query_ids.size, np.asarray(radii).size
    if a == 0:
        return np.zeros((nq, 0), dtype=np.int64)
    radii = _contig(radii, np.float64)
    ids = _identity_or_ids(query_ids)
    qids = None if isinstance(ids, _IdentityIds) else _contig(ids, np.intp)
    diff = np.zeros(nq * (a + 1), dtype=np.float64)
    ctx = _WalkContext(kernel, space, tree, radii, qids, diff)
    work = [_root_frontier(nq, a)]
    while work:
        fr = work.pop()
        if fr.nodes.size > _LEVEL_CHUNK:
            for start in range(0, fr.nodes.size, _LEVEL_CHUNK):
                sl = slice(start, start + _LEVEL_CHUNK)
                work.append(
                    WalkFrontier(
                        fr.nodes[sl], fr.pos[sl], fr.lo[sl], fr.hi[sl],
                        None if fr.dpar is None else fr.dpar[sl],
                    )
                )
            continue
        fr = _compiled_step(ctx, ids, fr, track, stats)
        if fr.nodes.size:
            work.append(fr)
    return _finish_counts(diff, nq, a)


def _compiled_step(ctx, ids, fr, track, stats):
    """Advance one frontier chunk through ``repro_advance`` and scatter
    its leaf entries; returns the next-depth frontier."""
    nodes, pos, lo, hi, dpar = fr
    n = nodes.size
    if track:
        stats["steps"] += 1
        stats["entries"] += n
    if n == 0:
        return _EMPTY_FRONTIER
    kernel, radii, a = ctx.kernel, ctx.radii, ctx.a
    d_arr = None
    dpar_in = None
    if ctx.fast is not None:
        # Distances fuse into the kernel; the parent-distance filter
        # (if any) runs inline there too.
        dpar_in = dpar
        qcols, qsq = ctx.fast
        qcol0, qcol1 = qcols[0], (qcols[1] if len(qcols) == 2 else None)
        ncols = len(qcols)
        if track:
            stats["distance_calls"] += 1
            if dpar is not None:
                stats["searchsorted_calls"] += 1
    else:
        qcol0 = qcol1 = qsq = None
        ncols = 0
        if dpar is not None:
            # Compact through the C parent-distance filter before
            # paying for any Python-side distances.
            n = int(
                kernel.dpar_filter(
                    n, a, _p(radii), _p(nodes), _p(pos), _p(lo), _p(hi),
                    _p(dpar), _p(ctx.d_parent), _p(ctx.radius),
                )
            )
            if track:
                stats["searchsorted_calls"] += 1
            if n == 0:
                return _EMPTY_FRONTIER
            nodes, pos, lo, hi = nodes[:n], pos[:n], lo[:n], hi[:n]
        # The exact same call the numpy walk makes: queries stay on the
        # Q side of the metric, floats are bit-identical.
        d_arr = ctx.space.paired_distances(ids[pos], ctx.center.take(nodes))
        if track:
            stats["distance_calls"] += 1
    cap = int((ctx.child_hi.take(nodes) - ctx.child_lo.take(nodes)).sum())
    leaf_nodes = np.empty(n, dtype=np.intp)
    leaf_pos = np.empty(n, dtype=np.intp)
    leaf_lo = np.empty(n, dtype=np.intp)
    leaf_hi = np.empty(n, dtype=np.intp)
    leaf_d = np.empty(n, dtype=np.float64)
    out_nodes = np.empty(cap, dtype=np.intp)
    out_pos = np.empty(cap, dtype=np.intp)
    out_lo = np.empty(cap, dtype=np.intp)
    out_hi = np.empty(cap, dtype=np.intp)
    out_dpar = np.empty(cap, dtype=np.float64) if ctx.emit_dpar else None
    counters = np.zeros(2, dtype=np.int64)
    kernel.advance(
        n, a, _p(radii),
        _p(nodes), _p(pos), _p(lo), _p(hi),
        _p(d_arr), _p(dpar_in),
        _p(ctx.qids), _p(qcol0), _p(qcol1), _p(qsq), ncols,
        _p(ctx.center), _p(ctx.radius), _p(ctx.size),
        _p(ctx.child_lo), _p(ctx.child_hi),
        _p(ctx.threshold), _p(ctx.d_parent),
        ctx.vp_split, ctx.route_max, ctx.emit_dpar,
        _p(ctx.diff), ctx.stride,
        _p(leaf_nodes), _p(leaf_pos), _p(leaf_lo), _p(leaf_hi), _p(leaf_d),
        _p(out_nodes), _p(out_pos), _p(out_lo), _p(out_hi), _p(out_dpar),
        _p(counters),
    )
    if track:
        stats["searchsorted_calls"] += 2  # swallow/prune boundary compares
        stats["scatter_calls"] += 1
    n_leaf, n_next = int(counters[0]), int(counters[1])
    if n_leaf:
        _level_leaf_scatter(
            ctx.space, ids, radii, ctx.tree, ctx.diff, ctx.stride,
            leaf_nodes[:n_leaf], leaf_pos[:n_leaf], leaf_lo[:n_leaf],
            leaf_hi[:n_leaf], leaf_d[:n_leaf], track, stats,
            # Bound per step, not stored on ctx: a stored partial would
            # close a reference cycle that keeps ``diff`` alive until
            # the cyclic GC runs.
            rect_fn=partial(_c_rect_single_rung, ctx=ctx),
        )
    if n_next == 0:
        return _EMPTY_FRONTIER
    sl = slice(0, n_next)
    if n_next * 2 < cap:
        # Mostly-pruned level: trim so the work stack never pins a
        # buffer much larger than its live entries.
        return WalkFrontier(
            out_nodes[sl].copy(), out_pos[sl].copy(), out_lo[sl].copy(),
            out_hi[sl].copy(),
            None if out_dpar is None else out_dpar[sl].copy(),
        )
    return WalkFrontier(
        out_nodes[sl], out_pos[sl], out_lo[sl], out_hi[sl],
        None if out_dpar is None else out_dpar[sl],
    )


def _c_rect_single_rung(
    space, query_ids, radii, tree, diff, stride, nodes, pos, lo, b, pad, sq_pad,
    track, stats, *, ctx,
):
    """Compiled single-rung rectangle; drop-in for
    :func:`repro.index.base._rect_single_rung` (same signature, bound to
    the walk context via ``partial``)."""
    cols32, sq32, scale2 = space.float32_coords()
    ncols = len(cols32)
    width = int(pad[0].shape[1])
    eps_abs = (ncols + 10) * 4e-7 * scale2
    kernel = ctx.kernel
    pad_ptrs = (ctypes.c_void_p * ncols)(*[blk.ctypes.data for blk in pad])
    qcol_ptrs = (ctypes.c_void_p * ncols)(*[col.ctypes.data for col in cols32])
    counters = np.zeros(1, dtype=np.int64)
    n = nodes.size
    if track:
        pairs = int(b.sum())
        stats["distance_calls"] += 1
        stats["searchsorted_calls"] += 1
        stats["leaf_entries_total"] = stats.get("leaf_entries_total", 0) + pairs
    if ctx.fast is not None:
        # Band cells settle inside the kernel through the exact float64
        # column expansion; credits scatter straight into diff.
        ecols, esq = ctx.fast
        cnt = np.empty(n, dtype=np.int64)
        kernel.rect_rung(
            n, width, ncols,
            _p(nodes), _p(pos), _p(lo), _p(ctx.qids),
            ctypes.addressof(pad_ptrs), _p(sq_pad),
            ctypes.addressof(qcol_ptrs), _p(sq32),
            _p(radii), eps_abs,
            _p(ecols[0]), _p(ecols[1]) if len(ecols) == 2 else None, _p(esq),
            _p(ctx.elems), _p(ctx.elem_lo),
            _p(diff), stride,
            None, None, _p(cnt), _p(counters),
        )
        band = int(counters[0])
        if track:
            stats["leaf_entries_filtered"] = (
                stats.get("leaf_entries_filtered", 0) + int(b.sum()) - band
            )
            if band:
                stats["distance_calls"] += 1
                stats["searchsorted_calls"] += 1
            stats["scatter_calls"] += 1
        return
    # Generic vector data (3..64 dims): the kernel emits margin-band
    # (entry, slot) pairs; the exact float64 metric settles them here
    # and the rung credit scatters as one weighted range-add — the
    # identical arithmetic _rect_single_rung performs.
    step = max(1, _RECT_BAND_CELLS // width)
    filtered = 0
    for s in range(0, n, step):
        sub = slice(s, min(s + step, n))
        ns = sub.stop - sub.start
        sn, sp, slo = nodes[sub], pos[sub], lo[sub]
        band_e = np.empty(ns * width, dtype=np.intp)
        band_c = np.empty(ns * width, dtype=np.intp)
        cnt = np.empty(ns, dtype=np.int64)
        kernel.rect_rung(
            ns, width, ncols,
            _p(sn), _p(sp), _p(slo), _p(ctx.qids),
            ctypes.addressof(pad_ptrs), _p(sq_pad),
            ctypes.addressof(qcol_ptrs), _p(sq32),
            _p(radii), eps_abs,
            None, None, None,
            _p(ctx.elems), _p(ctx.elem_lo),
            _p(diff), stride,
            _p(band_e), _p(band_c), _p(cnt), _p(counters),
        )
        nb = int(counters[0])
        filtered += int(b[sub].sum()) - nb
        if nb:
            br, bc = band_e[:nb], band_c[:nb]
            epos = ctx.elem_lo.take(sn.take(br)) + bc
            dm = space.paired_distances(
                query_ids[sp.take(br)], ctx.elems.take(epos)
            )
            if track:
                stats["distance_calls"] += 1
                stats["searchsorted_calls"] += 1
            hit = dm <= radii[slo.take(br)]
            if hit.any():
                cnt += np.bincount(br[hit], minlength=ns)
        nz = np.flatnonzero(cnt)
        if nz.size:
            lon = slo.take(nz)
            _range_add(diff, stride, sp.take(nz), lon, lon + 1, weights=cnt.take(nz))
            if track:
                stats["scatter_calls"] += 1
    if track:
        stats["leaf_entries_filtered"] = (
            stats.get("leaf_entries_filtered", 0) + filtered
        )


#: ``repro_nearest``'s metric codes by L_p order (any other order is 0,
#: the general ``pow`` path).
_LP_KIND = {1.0: 1, 2.0: 2, float("inf"): 3}

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
