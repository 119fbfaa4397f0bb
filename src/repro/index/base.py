"""The MetricIndex protocol and the flat array-backed tree substrate.

An index covers a subset of a :class:`~repro.metric.base.MetricSpace`
(identified by element ids) and answers four queries:

- ``count_within(query_ids, radius)`` — per-query neighbor counts, the
  *count-only principle* of Sec. IV-G (no pair materialization);
- ``count_within_many(query_ids, radii)`` — the multi-radius form
  McCatch's radius ladder actually needs: one ``(q, a)`` matrix of
  counts.  The generic default stacks per-radius calls; the metric
  trees override it with a single-descent walk that answers every
  radius at once (see :mod:`repro.engine`);
- ``pairs_within(radius)`` — the self-join of Alg. 3 line 12, needed
  only for the small outlier set;
- ``diameter_estimate()`` — Alg. 1 line 2, the radius-ladder anchor.

Queries are expressed as element ids of the same space, so a join
between outliers and inliers (Alg. 4) is just an index on the inlier
ids queried with the outlier ids.

Every metric tree in this package stores its structure as a
:class:`FlatTree` — a struct-of-arrays container (contiguous ``center``
/ ``threshold`` / ``radius`` / ``size`` / CSR-style children arrays
plus one permutation of element ids) instead of a graph of Python node
objects.  Every family builds it directly with level-synchronous
vectorized construction (the VP- and ball trees in their modules, the
cover, M- and Slim-trees in :mod:`repro.index.bulk`).  One walk answers
multi-radius count queries over the flat arrays, and :func:`count_walk`
picks its implementation from the space and the environment alone: for
vector data the compiled kernel of :mod:`repro.index.ckernel` when it
builds (one GIL-free call per radius, each query walking depth first),
else the level-synchronous :func:`level_count_walk` — the whole
frontier of one depth becomes flat ``(node, query, lo, hi)`` arrays, so
each level costs one grouped distance computation, a few batched
``searchsorted`` calls and bincount scatters, O(depth) NumPy dispatches
in all.  Both produce brute force's counts, bit for bit.  Flat trees
also answer exact nearest-element queries for out-of-dataset rows with
:func:`nearest_walk`, the held-out scorer's ``g``.  Because the layout
is a handful of primitive NumPy arrays, any fitted index can be
persisted to a single ``.npz`` (:mod:`repro.io.indexes`) and served
without rebuilding.
"""

from __future__ import annotations

import math
import threading
import time
from abc import ABC, abstractmethod
from typing import NamedTuple, Sequence

import numpy as np

from repro.metric.base import MetricSpace
from repro.obs import hooks as _obs_hooks

#: Sentinel for neighbor counts a scheduling principle never computed
#: (see the sparse-focused principle in :mod:`repro.engine`).  Lives
#: here — the one module both the engine and the join layer can import
#: without a cycle.
UNKNOWN_COUNT = -1


class MetricIndex(ABC):
    """Base class for range-count indexes over a MetricSpace subset."""

    def __init__(self, space: MetricSpace, ids: Sequence[int] | np.ndarray | None = None):
        self.space = space
        if ids is None:
            ids = np.arange(len(space), dtype=np.intp)
        self.ids = np.asarray(ids, dtype=np.intp)
        if self.ids.size == 0:
            raise ValueError("cannot build an index over zero elements")

    def __len__(self) -> int:
        return int(self.ids.size)

    @abstractmethod
    def count_within(self, query_ids: Sequence[int] | np.ndarray, radius: float) -> np.ndarray:
        """Number of indexed elements within ``radius`` of each query element.

        Distances are inclusive (``d <= radius``).  A query element that
        is itself indexed counts itself, matching the paper's
        "neighbors (+ self)" convention.
        """

    def count_within_many(
        self, query_ids: Sequence[int] | np.ndarray, radii: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Counts for every query at every radius: a ``(q, a)`` int matrix.

        ``radii`` must be sorted ascending (ties allowed).  Entry
        ``[i, e]`` equals ``count_within([query_ids[i]], radii[e])[0]``
        exactly — implementations answer all radii in one structure
        walk, but never change a count.

        The generic default issues one :meth:`count_within` pass per
        radius; the metric trees override it with a single descent that
        prunes with the largest still-active radius and bucket-counts
        all radii at once.
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        out = np.empty((query_ids.size, radii.size), dtype=np.int64)
        for e in range(radii.size):
            out[:, e] = self.count_within(query_ids, float(radii[e]))
        return out

    #: Query-chunk size bounding the temporary distance-block footprint
    #: of the generic bulk implementations (pairs_within here, the
    #: count queries in :class:`~repro.index.bruteforce.BruteForceIndex`).
    _CHUNK = 512

    def pairs_within(self, radius: float) -> list[tuple[int, int]]:
        """All unordered indexed pairs ``(i, j)``, ``i < j``, within ``radius``.

        Default implementation, by metric type: vector spaces use
        chunked bulk blocks — each chunk of elements measured against
        itself and its successors in one BLAS/einsum
        ``distances_among`` call, qualifying pairs selected and
        ordered by array ops, no per-element Python loop.  Object
        spaces keep one bulk row per element against its successors:
        their "bulk" kernel is the honest per-pair metric loop, so the
        triangle-only row form is what minimizes metric evaluations.
        Only used on small sets (the outliers of Alg. 3), so the
        O(n^2) distance cost is fine; subclasses may still override.
        """
        pairs: list[tuple[int, int]] = []
        ids = self.ids
        if not self.space.is_vector:
            for a in range(ids.size - 1):
                i = int(ids[a])
                d = self.space.distances(i, ids[a + 1 :])
                near = ids[a + 1 :][d <= radius]
                if near.size:
                    lo = np.minimum(near, i)
                    hi = np.maximum(near, i)
                    pairs.extend(zip(lo.tolist(), hi.tolist()))
            return pairs
        for start in range(0, ids.size - 1, self._CHUNK):
            block = ids[start : start + self._CHUNK]
            rest = ids[start:]  # block members and their successors
            dm = self.space.distances_among(block, rest)
            rows, cols = np.nonzero(dm <= radius)
            keep = cols > rows  # strict upper triangle (both sides start at `start`)
            if keep.any():
                bi, bj = block[rows[keep]], rest[cols[keep]]
                lo = np.minimum(bi, bj)
                hi = np.maximum(bi, bj)
                pairs.extend(zip(lo.tolist(), hi.tolist()))
        return pairs

    def sharded(self, *, workers: int | None = None):
        """A multi-worker executor over this index (flat-backed only).

        The ``workers=`` path of the index layer: returns a
        :class:`repro.engine.parallel.ShardedWalkExecutor` whose
        ``count_within`` / ``count_within_many`` shard the query set
        across a persistent worker pool with bit-identical counts.
        Raises ``TypeError`` for indexes without :class:`FlatTree`
        storage (brute force, cKDTree).
        """
        from repro.engine.parallel import ShardedWalkExecutor

        return ShardedWalkExecutor(self, workers=workers)

    def diameter_estimate(self) -> float:
        """Estimated diameter of the indexed elements (Alg. 1 line 2).

        Default: the classic two-scan heuristic — from an arbitrary
        element find the farthest element ``p``, then the farthest from
        ``p``.  Exact on many shapes and never more than a factor 2 off
        for metric spaces; subclasses with structure (tree roots,
        bounding boxes) override with the paper's root-children rule.
        """
        ids = self.ids
        if ids.size == 1:
            return 0.0
        d0 = self.space.distances(int(ids[0]), ids)
        far = int(ids[int(np.argmax(d0))])
        d1 = self.space.distances(far, ids)
        return float(d1.max())


def check_radii_ascending(radii: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate the multi-radius query vector: 1-d, nonempty, ascending."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1-d array")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must be sorted ascending")
    return radii


class FlatTree:
    """A metric tree as struct-of-arrays: the storage behind every tree here.

    Node ``i`` is described across parallel arrays; children occupy the
    contiguous node-index range ``[child_lo[i], child_hi[i])`` (equal
    bounds mean a leaf), and the node's members are the slice
    ``elems[elem_lo[i]:elem_hi[i]]`` of one shared permutation of
    element ids — a leaf bucket is a view, never an allocation.

    Attributes
    ----------
    center:
        Element id of the node's center (vantage / pivot / routing
        pivot).  For a leaf it is the first bucket member.
    threshold:
        VP median-split threshold (0 for non-VP trees).
    radius:
        Covering radius: every member lies within ``radius`` of the
        center.
    size:
        Member count (``elem_hi - elem_lo``), kept explicit so the walk
        credits swallowed subtrees without touching ``elems``.
    child_lo, child_hi:
        CSR-style children range (node indices).
    elem_lo, elem_hi, elems:
        Member slices into the shared element-id permutation.
    d_parent:
        Distance from each node's center to its parent's center, or
        ``None``.  When present (M-/Slim-trees) the walk applies the
        M-tree parent-distance filter before computing any distance to
        the node.
    d_elem:
        Distance from each entry of ``elems`` to its leaf node's
        center, or ``None``.  When present the level walk decides most
        leaf pairs without evaluating the metric: the triangle
        inequality brackets ``d(q, member)`` between
        ``|d(q, center) − d_elem|`` and ``d(q, center) + d_elem``, so
        a member provably beyond the last undecided radius is dropped
        and one provably inside the first is credited wholesale —
        only the band in between pays for a distance.  M-/Slim-trees
        record these during construction; the other families get them
        from :func:`attach_leaf_distances` at build time.
    vp_split:
        True for VP-trees: an internal node's center is held by the
        node itself (outside both children), the two children are
        ``child_lo`` (inside) and ``child_lo + 1`` (outside), and the
        walk tightens their radius windows with ``threshold``.
    """

    __slots__ = (
        "center", "threshold", "radius", "size", "child_lo", "child_hi",
        "elem_lo", "elem_hi", "elems", "d_parent", "d_elem", "vp_split",
        "_leaf_cache", "_rect_cache", "_scan_cache",
    )

    def __init__(
        self,
        *,
        center,
        threshold,
        radius,
        size,
        child_lo,
        child_hi,
        elem_lo,
        elem_hi,
        elems,
        d_parent=None,
        d_elem=None,
        vp_split: bool = False,
    ):
        self.center = np.asarray(center, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.radius = np.asarray(radius, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.int64)
        self.child_lo = np.asarray(child_lo, dtype=np.intp)
        self.child_hi = np.asarray(child_hi, dtype=np.intp)
        self.elem_lo = np.asarray(elem_lo, dtype=np.intp)
        self.elem_hi = np.asarray(elem_hi, dtype=np.intp)
        self.elems = np.asarray(elems, dtype=np.intp)
        self.d_parent = None if d_parent is None else np.asarray(d_parent, dtype=np.float64)
        self.d_elem = None if d_elem is None else np.asarray(d_elem, dtype=np.float64)
        self.vp_split = bool(vp_split)
        self._leaf_cache = None  # lazy (float32 d_elem, max) for the leaf filter
        self._rect_cache = None  # lazy padded member blocks for the rect kernel
        self._scan_cache = None  # lazy member coordinates for the compiled count walk
        n_nodes = self.center.size
        for name in ("threshold", "radius", "size", "child_lo", "child_hi", "elem_lo", "elem_hi"):
            if getattr(self, name).shape != (n_nodes,):
                raise ValueError(f"FlatTree array {name!r} must have shape ({n_nodes},)")
        if self.d_parent is not None and self.d_parent.shape != (n_nodes,):
            raise ValueError("FlatTree d_parent must match the node count")
        if self.d_elem is not None and self.d_elem.shape != self.elems.shape:
            raise ValueError("FlatTree d_elem must match the elems shape")
        if n_nodes == 0:
            raise ValueError("FlatTree needs at least one node")

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return int(self.center.size)

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` stores a bucket instead of children."""
        return bool(self.child_lo[node] == self.child_hi[node])

    def bucket(self, node: int) -> np.ndarray:
        """Member-id slice of a leaf (a view into ``elems``)."""
        return self.elems[self.elem_lo[node] : self.elem_hi[node]]

    def leaf_sizes(self) -> list[int]:
        """Sizes of all leaf buckets (balance diagnostics)."""
        leaves = self.child_lo == self.child_hi
        return (self.elem_hi[leaves] - self.elem_lo[leaves]).tolist()

    def max_depth(self) -> int:
        """Height of the tree (leaves are depth 1).

        Walks the CSR children arrays one whole level at a time — each
        level is one fancy-indexed count plus one :func:`concat_ranges`
        expansion, never a per-node Python loop.
        """
        depth = 1
        level = np.array([0], dtype=np.intp)
        while True:
            counts = self.child_hi[level] - self.child_lo[level]
            expand = counts > 0
            if not expand.any():
                return depth
            level = concat_ranges(self.child_lo[level][expand], counts[expand])
            depth += 1

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The storage as plain arrays (the persistence payload)."""
        out = {
            "center": self.center,
            "threshold": self.threshold,
            "radius": self.radius,
            "size": self.size,
            "child_lo": self.child_lo,
            "child_hi": self.child_hi,
            "elem_lo": self.elem_lo,
            "elem_hi": self.elem_hi,
            "elems": self.elems,
            "vp_split": np.bool_(self.vp_split),
        }
        if self.d_parent is not None:
            out["d_parent"] = self.d_parent
        if self.d_elem is not None:
            out["d_elem"] = self.d_elem
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "FlatTree":
        """Rebuild a FlatTree from :meth:`to_arrays` output."""
        return cls(
            center=arrays["center"],
            threshold=arrays["threshold"],
            radius=arrays["radius"],
            size=arrays["size"],
            child_lo=arrays["child_lo"],
            child_hi=arrays["child_hi"],
            elem_lo=arrays["elem_lo"],
            elem_hi=arrays["elem_hi"],
            elems=arrays["elems"],
            d_parent=arrays.get("d_parent"),
            d_elem=arrays.get("d_elem"),
            vp_split=bool(arrays["vp_split"]),
        )


#: Counter keys the level and compiled walks accumulate into a
#: caller-supplied ``stats`` dict (and the telemetry walk sink); the
#: walks that decide leaf members per pair add ``leaf_entries_total``
#: and ``leaf_entries_filtered``.
_WALK_STAT_KEYS = (
    "steps", "entries", "distance_calls", "searchsorted_calls", "scatter_calls",
)


class WalkFrontier(NamedTuple):
    """One depth of a level-synchronous walk, as flat parallel arrays.

    Entry ``k`` says: node ``nodes[k]`` is still reachable by query
    ``pos[k]`` (a row of the query set) with the radius-position window
    ``[lo[k], hi[k])`` undecided.  ``dpar`` carries the distance from
    each entry's query to the node's *parent* center (the M-tree
    parent-distance filter input) — ``None`` whenever the tree stores
    no ``d_parent`` or the entries are roots.
    """

    nodes: np.ndarray
    pos: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    dpar: np.ndarray | None


def _root_frontier(nq: int, a: int) -> WalkFrontier:
    """Every query at the root with the full radius window ``[0, a)``."""
    return WalkFrontier(
        nodes=np.zeros(nq, dtype=np.intp),
        pos=np.arange(nq, dtype=np.intp),
        lo=np.zeros(nq, dtype=np.intp),
        hi=np.full(nq, a, dtype=np.intp),
        dpar=None,
    )


_EMPTY_INTP = np.empty(0, dtype=np.intp)
_EMPTY_FRONTIER = WalkFrontier(_EMPTY_INTP, _EMPTY_INTP, _EMPTY_INTP, _EMPTY_INTP, None)

#: Maximum frontier entries advanced per level step.  Wider frontiers
#: are sliced first: the walk's scatters commute, so any slicing sums
#: to the same counts, and chunking keeps every temporary (and the
#: leaf-scatter pair expansion, up to ``leaf_size`` times wider) at
#: cache-friendly sizes instead of the full width of the densest level.
_LEVEL_CHUNK = 1 << 19


def _range_add(diff, stride, rows, start_cols, end_cols, weights=None):
    """Difference-array range add ``diff[rows, start:end] += w`` for many
    (row, window) pairs at once: ``+w`` at ``start_cols``, ``-w`` at
    ``end_cols``, accumulated with ``bincount`` so duplicate (row, col)
    pairs — many frontier entries per query at one level — sum instead
    of last-write-wins like fancy-index assignment would.  The add and
    subtract halves ride one signed-weight ``bincount``: the output
    array spans every query row, so halving the accumulator allocations
    is a measurable slice of the scatter cost.

    ``diff`` is the flat float64 view of the per-query difference
    matrix; float64 accumulation of integer weights is exact below
    2**53, far beyond any count this repo can produce.
    """
    base = rows * stride
    if weights is None:
        # Unweighted windows count with two plain integer bincounts —
        # cheaper than materializing a float weight vector.
        acc = np.bincount(base + start_cols)
        diff[: acc.size] += acc
        acc = np.bincount(base + end_cols)
        diff[: acc.size] -= acc
        return
    idx = np.concatenate([base + start_cols, base + end_cols])
    w = np.concatenate([weights, -np.asarray(weights, dtype=np.float64)])
    acc = np.bincount(idx, weights=w)
    diff[: acc.size] += acc


class _IdentityIds:
    """Stand-in for ``query_ids == arange(nq)`` — the SELFJOINC shape.

    ``take`` / ``__getitem__`` hand the index array straight back,
    turning the level walk's per-step ``query_ids[pos]`` gathers into
    no-ops.  Callers never mutate gathered query ids, so the aliasing
    is safe.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size

    def take(self, idx):
        return idx

    def __getitem__(self, idx):
        return idx


def _identity_or_ids(query_ids):
    """``query_ids`` itself, or :class:`_IdentityIds` when it is a
    contiguous ``arange`` — one O(nq) check per walk buys away one
    full-frontier gather per level step."""
    q = np.asarray(query_ids)
    n = q.size
    if (
        n
        and q.dtype.kind in "iu"
        and q[0] == 0
        and q[-1] == n - 1
        and np.array_equal(q, np.arange(n, dtype=q.dtype))
    ):
        return _IdentityIds(n)
    return query_ids


def _leaf_filter_cache(tree):
    """Lazy ``(float32 d_elem copy, float(d_elem.max()))`` for the filter.

    The triangle bounds below never decide a count by themselves — an
    over-generous safety margin only forwards extra pairs to the exact
    float64 comparison — so the bound arithmetic can run in float32,
    halving the gather and compare traffic of the hottest loop.  The
    maximum parent distance feeds the margin's absolute scale.
    """
    cache = tree._leaf_cache
    if cache is None:
        d_elem = tree.d_elem
        cache = tree._leaf_cache = (
            d_elem.astype(np.float32),
            float(d_elem.max()) if d_elem.size else 0.0,
        )
    return cache


#: Virtual-leaf size classes: the level walk stops descending into a
#: non-swallowed, non-pruned subtree of at most the largest cap (when
#: its radius window is down to one rung and the rect kernel applies)
#: and decides its members per pair instead.  The deepest levels hold
#: most of a frontier's entries, so trading their bookkeeping for extra
#: float32 pair evaluations is a large net win on the SELFJOINC ladder.
#: Each cap gets its own padded block, so a 20-member subtree pads to
#: 24 slots, not to the largest cap — the kernel's cost is padded cells,
#: and a graded ladder keeps the padding waste around ten percent.
_VIRTUAL_LEAF_CAPS = (24, 32, 48, 64)

#: Upper bound on the padded-block allocation (bytes) before the rect
#: kernel is declined — only degenerate shapes (one huge bucket next to
#: many nodes) get anywhere near it.
_RECT_PAD_BYTES_CAP = 1 << 27


def _build_rect_pad(cols32, sq32, tree, sel, width):
    """NaN-padded per-node member-coordinate blocks for the rect kernel.

    For every selected node, row ``i`` of each block holds a member
    coordinate (or squared norm) in float32, padded to ``width`` with
    NaN — comparisons against NaN are False, so padding can never be
    counted.  Unselected rows stay NaN and are never routed here.
    """
    n_nodes = tree.elem_lo.size
    bs = tree.elem_hi[sel] - tree.elem_lo[sel]
    rows = np.repeat(np.flatnonzero(sel), bs)
    mpos = concat_ranges(tree.elem_lo[sel], bs)
    within = mpos - np.repeat(tree.elem_lo[sel], bs)
    members = tree.elems.take(mpos)
    pad = []
    for col in cols32:
        block = np.full((n_nodes, width), np.nan, dtype=np.float32)
        block[rows, within] = col.take(members)
        pad.append(block)
    sq_block = np.full((n_nodes, width), np.nan, dtype=np.float32)
    sq_block[rows, within] = sq32.take(members)
    return pad, sq_block


def _rect_leaf_cache(space, tree):
    """Lazy padded blocks for :func:`_rect_single_rung`, or ``None``.

    Graded size classes keep padding waste low: class 0 is sized to the
    largest leaf bucket and covers every node that small; each
    ``_VIRTUAL_LEAF_CAPS`` rung past it covers the subtrees in its size
    band (classes whose band is empty are skipped).  The cache tuple is
    ``(route_max, classes)`` with ``classes`` a list of
    ``(cap, pad, sq_pad)`` in ascending cap order; ``route_max`` is the
    largest member count the walk may route to the kernel.
    """
    cache = tree._rect_cache
    if cache is None:
        cache = False
        f32 = getattr(space, "float32_coords", None)
        coords = f32() if f32 is not None else None
        if coords is not None:
            cols32, sq32, _ = coords
            b = tree.elem_hi - tree.elem_lo
            leaves = tree.child_lo == tree.child_hi
            b0 = int(b[leaves].max()) if leaves.any() else 0
            caps = [b0] + [cap for cap in _VIRTUAL_LEAF_CAPS if cap > b0]
            per_node = (len(cols32) + 1) * 4
            if 0 < b0 and tree.elem_lo.size * sum(caps) * per_node <= _RECT_PAD_BYTES_CAP:
                classes = []
                prev = 0
                for cap in caps:
                    sel = (b > prev) & (b <= cap)
                    if prev == 0 or sel.any():
                        pad, sq_pad = _build_rect_pad(cols32, sq32, tree, sel, cap)
                        classes.append((cap, pad, sq_pad))
                    prev = cap
                cache = (caps[-1], classes)
        tree._rect_cache = cache
    return cache or None


#: Reusable per-thread rectangle buffers, keyed by pad width.  A fresh
#: multi-megabyte temporary per kernel call would be returned to the OS
#: on free and page-faulted back in on the next call; reuse keeps the
#: hot rectangles resident.  Thread-local so sharded walk workers never
#: share a buffer.
_RECT_TLS = threading.local()


def _rect_scratch(g, width):
    """Two float32 and two bool ``(g, width)`` views over grown-on-demand
    thread-local buffers."""
    bufs = getattr(_RECT_TLS, "bufs", None)
    if bufs is None:
        bufs = _RECT_TLS.bufs = {}
    cur = bufs.get(width)
    if cur is None or cur[0].shape[0] < g:
        cur = bufs[width] = (
            np.empty((g, width), dtype=np.float32),
            np.empty((g, width), dtype=np.float32),
            np.empty((g, width), dtype=bool),
            np.empty((g, width), dtype=bool),
        )
    return tuple(buf[:g] for buf in cur)


def _rect_single_rung(
    space, query_ids, radii, tree, diff, stride, nodes, pos, lo, b, pad, sq_pad,
    track, stats,
):
    """Single-rung leaf scatter as one rectangular float32 kernel.

    Every (entry, bucket-slot) cell of the ``(entries, width)``
    rectangle gets the squared-distance expansion
    ``||q||^2 + ||m||^2 - 2 q.m`` in float32 from the padded blocks —
    contiguous row gathers and broadcast column arithmetic, no per-pair
    index vectors at all.  A cell decides against ``r^2`` bracketed by
    an absolute margin covering the float32 round-off (``1e-4`` of the
    coordinate magnitude scale plus ``1e-6`` relative, versus actual
    error below ``1e-5`` of scale): provably-inside cells are counted
    by a row sum, provably-outside cells are dropped, and only the
    sliver in between is re-evaluated through the exact float64 metric
    path — so counts stay bit-identical to brute force.  NaN padding
    fails every comparison and can never be counted.
    """
    cols32, sq32, scale2 = space.float32_coords()
    qid = query_ids.take(pos)
    r = radii[lo]  # the one undecided rung, per frontier entry
    # Signed square: a negative rung must count nothing, and r*|r| < 0
    # puts every cell above the sure-in bracket; any cell the margin
    # still lets into the band is settled by the exact signed compare.
    rr = r * np.abs(r)
    # Absolute margin ~8x the worst-case accumulated float32 round-off
    # of the (dim+6)-operation expansion; the relative term keeps the
    # float32 cast of the brackets themselves conservative when the
    # radius dwarfs the data scale.
    eps = (len(cols32) + 10) * 4e-7 * scale2 + 1e-6 * rr
    r2lo = (rr - eps).astype(np.float32)[:, None]
    r2hi = (rr + eps).astype(np.float32)[:, None]
    ab, s2, sure, band = _rect_scratch(nodes.size, pad[0].shape[1])
    np.take(pad[0], nodes, axis=0, out=ab)
    np.multiply(ab, cols32[0].take(qid)[:, None], out=ab)
    for col, block in zip(cols32[1:], pad[1:]):
        np.take(block, nodes, axis=0, out=s2)
        np.multiply(s2, col.take(qid)[:, None], out=s2)
        np.add(ab, s2, out=ab)
    np.take(sq_pad, nodes, axis=0, out=s2)
    np.add(s2, sq32.take(qid)[:, None], out=s2)
    np.multiply(ab, np.float32(2.0), out=ab)
    np.subtract(s2, ab, out=s2)
    np.less_equal(s2, r2lo, out=sure)
    cnt = sure.sum(axis=1)
    np.less_equal(s2, r2hi, out=band)
    np.logical_xor(band, sure, out=band)  # sure-in cells are inside the band superset
    if track:
        pairs = int(b.sum())
        stats["distance_calls"] += 1  # the grouped float32 evaluation
        stats["searchsorted_calls"] += 1  # the rung-boundary compare
        stats["leaf_entries_total"] = stats.get("leaf_entries_total", 0) + pairs
        stats["leaf_entries_filtered"] = (
            stats.get("leaf_entries_filtered", 0) + pairs - int(band.sum())
        )
    rows = band.any(axis=1)  # one cheap reduce; nonzero's two passes with
    if rows.any():  # per-hit index arithmetic then touch only banded rows
        ridx = np.flatnonzero(rows)
        br_s, bc = np.nonzero(band[ridx])
        br = ridx.take(br_s)
        epos = tree.elem_lo.take(nodes.take(br)) + bc
        dm = space.paired_distances(qid.take(br), tree.elems.take(epos))
        if track:
            stats["distance_calls"] += 1
            stats["searchsorted_calls"] += 1
        hit = dm <= r.take(br)
        if hit.any():
            cnt += np.bincount(br[hit], minlength=cnt.size)
    nz = np.flatnonzero(cnt)
    if nz.size:
        lon = lo.take(nz)
        _range_add(diff, stride, pos.take(nz), lon, lon + 1, weights=cnt.take(nz))
        if track:
            stats["scatter_calls"] += 1


def _leaf_single_rung(
    space, query_ids, radii, tree, diff, stride, nodes, pos, lo, d, b, track, stats
):
    """Leaf scatter for entries with exactly one undecided rung.

    At the late (large-radius) blocks of a SELFJOINC nearly every leaf
    entry straddles a single radius — the window is ``[lo, lo+1)`` —
    and a member either contributes ``+1`` at column ``lo`` or nothing.
    The triangle inequality brackets ``d(q, member)`` between
    ``|d − d_elem|`` and ``d + d_elem`` (``d`` the query-to-center
    distance), which splits the pairs three ways without a metric call:

    - *sure out* — lower bound beyond ``radii[lo]``: dropped;
    - *sure in* — upper bound within ``radii[lo]``: aggregated per
      frontier entry and credited as one weighted range-add;
    - *undecided* — the band in between: the only pairs that pay for a
      distance, decided by the exact ``dm <= radii[lo]`` (equivalent to
      a ``searchsorted`` on a one-rung window).

    Bound arithmetic runs in float32 with an absolute safety margin of
    ``1e-5`` of the magnitude scale (largest radius plus twice the
    largest parent distance bounds every operand) — float32 round-off
    is below ``3e-7`` of that scale, so the margin only ever moves
    pairs *into* the undecided band, where the exact comparison settles
    them: counts stay bit-identical to the unfiltered pair scatter.
    """
    g = nodes.size
    r = radii[lo]  # the one undecided rung, per frontier entry
    de32, de_max = _leaf_filter_cache(tree)
    margin = 1e-5 * (float(radii[-1]) + 2.0 * de_max) + 1e-12
    up = (r + margin).astype(np.float32)
    dn = (r - margin).astype(np.float32)
    d32 = d.astype(np.float32)
    mpos = concat_ranges(tree.elem_lo[nodes], b)
    eidx = np.repeat(np.arange(g, dtype=np.intp), b)
    de = de32.take(mpos)
    t = d32.take(eidx)
    s = t - de
    np.abs(s, out=s)
    decided = s > up.take(eidx)  # sure out
    np.add(t, de, out=t)
    sure_in = t <= dn.take(eidx)
    sure_in &= ~decided
    cnt = np.bincount(eidx[sure_in], minlength=g)
    np.logical_or(decided, sure_in, out=decided)
    np.logical_not(decided, out=decided)
    undecided = np.flatnonzero(decided)
    if track:
        stats["searchsorted_calls"] += 1  # the rung-boundary bound compares
        stats["leaf_entries_total"] = stats.get("leaf_entries_total", 0) + eidx.size
        stats["leaf_entries_filtered"] = (
            stats.get("leaf_entries_filtered", 0) + eidx.size - undecided.size
        )
    if undecided.size:
        qe = eidx.take(undecided)
        dm = space.paired_distances(
            query_ids.take(pos.take(qe)), tree.elems.take(mpos.take(undecided))
        )
        if track:
            stats["distance_calls"] += 1
            stats["searchsorted_calls"] += 1
        hit = dm <= r.take(qe)
        if hit.any():
            cnt += np.bincount(qe[hit], minlength=g)
    nz = np.flatnonzero(cnt)
    if nz.size:
        lon = lo.take(nz)
        _range_add(diff, stride, pos.take(nz), lon, lon + 1, weights=cnt.take(nz))
        if track:
            stats["scatter_calls"] += 1


def _leaf_pairs_scatter(
    space, query_ids, radii, tree, diff, stride, nodes, pos, lo, hi, d, b, track, stats
):
    """General leaf scatter: full pair expansion over multi-rung windows.

    When the tree carries per-entry parent distances (``d_elem``) the
    (query, member) pair list is first thinned with the
    triangle-inequality bound ``|d(q, center) − d_elem|``: a member
    whose bound already exceeds the last undecided radius
    (``radii[hi-1]``, plus the absolute float round-off margin of
    :func:`_leaf_single_rung`, here in float64) cannot change any
    count, so neither the metric nor the binary search is evaluated
    for it.  Pair-level state is carried as ``eidx`` — the
    frontier-entry index of every pair — so the per-pair cost before
    the filter is one ``repeat`` plus gathers; the expensive repeats
    of query/window arrays happen only for surviving pairs.
    """
    mpos = concat_ranges(tree.elem_lo[nodes], b)
    eidx = np.repeat(np.arange(nodes.size, dtype=np.intp), b)
    if tree.d_elem is not None:
        de32, de_max = _leaf_filter_cache(tree)
        margin = 1e-5 * (float(radii[-1]) + 2.0 * de_max) + 1e-12
        bound = d.astype(np.float32).take(eidx)
        np.subtract(bound, de32.take(mpos), out=bound)
        np.abs(bound, out=bound)
        # last undecided radius per entry, float32 with the same
        # conservative margin as _leaf_single_rung: the filter only
        # drops pairs provably beyond every undecided rung.
        thr = (radii[hi - 1] + margin).astype(np.float32)
        alive = bound <= thr.take(eidx)
        if track:
            stats["searchsorted_calls"] += 1
            stats["leaf_entries_total"] = (
                stats.get("leaf_entries_total", 0) + eidx.size
            )
            stats["leaf_entries_filtered"] = stats.get(
                "leaf_entries_filtered", 0
            ) + int(eidx.size - int(alive.sum()))
        if not alive.all():
            eidx, mpos = eidx[alive], mpos[alive]
        if eidx.size == 0:
            return
    rep_q = pos[eidx]
    dm = space.paired_distances(query_ids[rep_q], tree.elems[mpos])
    e = np.searchsorted(radii, dm)
    if track:
        stats["distance_calls"] += 1
        stats["searchsorted_calls"] += 1
        stats["scatter_calls"] += 1
    valid = e < hi[eidx]
    eidx, e = eidx[valid], e[valid]
    _range_add(
        diff, stride, rep_q[valid], np.maximum(e, lo[eidx]), hi[eidx]
    )


def _level_leaf_scatter(
    space, query_ids, radii, tree, diff, stride, nodes, pos, lo, hi, d, track, stats
):
    """Scatter every leaf bucket of one level into ``diff`` at once.

    Entries whose radius window has collapsed to a single rung — the
    overwhelming majority on a SELFJOINC ladder — take the bound-split
    fast path (:func:`_leaf_single_rung`); the rest expand to pairs and
    walk the full window (:func:`_leaf_pairs_scatter`).  Both paths
    produce counts bit-identical to scattering every leaf entry on its
    own: integer scatter adds commute, so splitting the entries is
    invisible in the sums.
    """
    b = tree.elem_hi[nodes] - tree.elem_lo[nodes]
    keep = b > 0
    if not keep.all():
        nodes, pos, lo, hi, d, b = (
            nodes[keep], pos[keep], lo[keep], hi[keep], d[keep], b[keep]
        )
        if nodes.size == 0:
            return
    w1 = (hi - lo) == 1
    rc = _rect_leaf_cache(space, tree)
    if rc is not None and w1.any():
        rem = w1
        for cap, pad, sq_pad in rc[1]:
            cls = rem & (b <= cap)
            if cls.any():
                _rect_single_rung(
                    space, query_ids, radii, tree, diff, stride,
                    nodes[cls], pos[cls], lo[cls], b[cls], pad, sq_pad,
                    track, stats,
                )
                rem = rem ^ cls
        if w1.all():
            return
        rest = ~w1
        nodes, pos, lo, hi, d, b = (
            nodes[rest], pos[rest], lo[rest], hi[rest], d[rest], b[rest]
        )
    elif tree.d_elem is not None:
        if w1.all():
            _leaf_single_rung(
                space, query_ids, radii, tree, diff, stride,
                nodes, pos, lo, d, b, track, stats,
            )
            return
        if w1.any():
            _leaf_single_rung(
                space, query_ids, radii, tree, diff, stride,
                nodes[w1], pos[w1], lo[w1], d[w1], b[w1], track, stats,
            )
            wide = ~w1
            nodes, pos, lo, hi, d, b = (
                nodes[wide], pos[wide], lo[wide], hi[wide], d[wide], b[wide]
            )
    _leaf_pairs_scatter(
        space, query_ids, radii, tree, diff, stride,
        nodes, pos, lo, hi, d, b, track, stats,
    )


def _clipped_cols(radii, v, lo, rl, side, track, stats):
    """Window-clipped ladder positions ``max(searchsorted(radii, v), lo)``.

    ``rl`` is ``radii[lo]`` per entry.  A value at or inside its
    entry's low radius clips to ``lo`` — the overwhelming majority once
    a SELFJOINC window has tightened — so only the remainder pays a
    (subset) binary search.  The clip gate mirrors ``searchsorted``
    semantics exactly: strict for ``side="left"``
    (``searchsorted(v) > lo`` iff ``v > radii[lo]``), inclusive for
    ``side="right"`` (``> lo`` iff ``v >= radii[lo]``).  Callers
    guarantee ``v`` does not exceed ``radii[hi-1]`` (their liveness
    gate), so results stay inside the window.  Returns ``lo`` itself
    when nothing clips above it — callers must not mutate the result.
    """
    mid = np.flatnonzero(v > rl if side == "left" else v >= rl)
    if not mid.size:
        return lo
    cols = lo.copy()
    cols[mid] = np.searchsorted(radii, v.take(mid), side=side)
    if track:
        stats["searchsorted_calls"] += 1
    return cols


def _level_step(space, query_ids, radii, tree, diff, frontier, stats=None):
    """Advance a :class:`WalkFrontier` by one depth, scattering into ``diff``.

    The level-synchronous core: the classic per-node swallow / prune /
    window-tightening logic of a metric-tree range count, applied to
    the flat arrays of *every* (node, query) pair at the current
    depth — one grouped
    :meth:`~repro.metric.base.MetricSpace.paired_distances` call
    (queries stay on the Q side of the metric, so every float is
    bit-identical to the per-node bulk evaluation), batched
    ``searchsorted`` over concatenated value arrays (elementwise
    identical to the per-node calls), bincount scatters (integer adds
    commute, so any grouping sums to the same difference array), and a
    CSR :func:`concat_ranges` expansion to the next depth.
    """
    track = stats is not None
    nodes, pos, lo, hi, dpar = frontier
    if track:
        stats["steps"] += 1
        stats["entries"] += nodes.size
    a = radii.size
    stride = a + 1
    if a == 0:
        return _EMPTY_FRONTIER
    if dpar is not None:
        bound = np.abs(dpar - tree.d_parent[nodes]) - tree.radius[nodes]
        lo = np.maximum(lo, np.searchsorted(radii, bound))
        if track:
            stats["searchsorted_calls"] += 1
        live = lo < hi
        if not live.all():
            nodes, pos, lo, hi = nodes[live], pos[live], lo[live], hi[live]
            if nodes.size == 0:
                return _EMPTY_FRONTIER
    d = space.paired_distances(query_ids[pos], tree.center[nodes])
    r_node = tree.radius[nodes]
    if track:
        stats["distance_calls"] += 1
    # Every searchsorted below is replaced by two boundary compares
    # against the entry's own window radii (``rl = radii[lo]``,
    # ``rh = radii[hi-1]``): a value past ``rh`` is a kill, a value at
    # or inside ``rl`` clips to ``lo``, and only values strictly inside
    # the window — rare once SELFJOINC windows tighten to a rung — pay
    # a subset binary search (:func:`_clipped_cols`).  Each compare
    # mirrors ``searchsorted`` semantics exactly (see the helper), so
    # decisions stay bit-identical to per-entry binary searches.
    rsh = np.empty(a + 1)  # rsh[k] = radii[k-1]; rsh[0] junk (dead rows only)
    rsh[0] = radii[0]
    rsh[1:] = radii
    rh = rsh.take(hi)  # last undecided radius, per entry
    v = d + r_node
    swallow = v <= rh  # == searchsorted(radii, d + r_node) < hi
    if swallow.any():  # ball swallowed whole: credit size[node] in O(1)
        sw = np.flatnonzero(swallow)
        lo_sw = lo.take(sw)
        cols = _clipped_cols(
            radii, v.take(sw), lo_sw, radii.take(lo_sw), "left", track, stats
        )
        _range_add(
            diff, stride, pos.take(sw), cols, hi.take(sw),
            weights=tree.size[nodes.take(sw)],
        )
        # The remaining window is [lo, cols) — empty (dead) when the
        # credit started at lo.  Dead rows may leave a garbage rh
        # (cols - 1 can wrap); they cannot survive the lo < hi gate.
        hi = hi.copy()
        hi[sw] = cols
        rh[sw] = rsh.take(cols)
        if track:
            stats["scatter_calls"] += 1
    v = np.subtract(d, r_node, out=v)
    live = (v <= rh) & (lo < hi)  # kill: searchsorted(v) >= hi, or already dead
    if not live.any():
        return _EMPTY_FRONTIER
    if not live.all():
        keep = np.flatnonzero(live)
        nodes, pos, lo, hi, d, v, rh = (
            nodes.take(keep), pos.take(keep), lo.take(keep), hi.take(keep),
            d.take(keep), v.take(keep), rh.take(keep),
        )
    rl = radii.take(lo)
    mid = np.flatnonzero(v > rl)
    if mid.size:  # window floor rises: lo = searchsorted(radii, d - r_node)
        lo = lo.copy()
        nl = np.searchsorted(radii, v.take(mid))
        lo[mid] = nl
        rl[mid] = radii.take(nl)
        if track:
            stats["searchsorted_calls"] += 1
    leaf = tree.child_lo[nodes] == tree.child_hi[nodes]
    rc = _rect_leaf_cache(space, tree)
    if rc is not None:
        # Virtual leaves: a small non-swallowed subtree whose window is
        # down to one rung is decided per pair by the rect kernel right
        # here instead of walking its remaining levels — its members
        # are one contiguous ``elems`` slice, and the exact-equivalence
        # the node-level bounds guarantee (a credited or pruned rung
        # agrees with the per-pair float64 decision, the property the
        # oracle tests pin for every family) makes the early per-pair
        # decision bit-identical to descending the subtree.
        leaf |= (tree.size[nodes] <= rc[0]) & (hi - lo == 1)
    if leaf.any():
        lf = np.flatnonzero(leaf)
        _level_leaf_scatter(
            space, query_ids, radii, tree, diff, stride,
            nodes.take(lf), pos.take(lf), lo.take(lf), hi.take(lf),
            d.take(lf), track, stats,
        )
    internal = ~leaf
    if not internal.any():
        return _EMPTY_FRONTIER
    if not internal.all():
        keep = np.flatnonzero(internal)
        nodes, pos, lo, hi, d, rl, rh = (
            nodes.take(keep), pos.take(keep), lo.take(keep), hi.take(keep),
            d.take(keep), rl.take(keep), rh.take(keep),
        )
    if tree.vp_split:
        self_in = d <= rh  # == searchsorted(radii, d) < hi
        if self_in.any():  # the vantage point itself
            si = np.flatnonzero(self_in)
            lo_si = lo.take(si)
            cols = _clipped_cols(
                radii, d.take(si), lo_si, rl.take(si), "left", track, stats
            )
            _range_add(diff, stride, pos.take(si), cols, hi.take(si))
            if track:
                stats["scatter_calls"] += 1
        t = tree.threshold[nodes]
        child_in = tree.child_lo[nodes]
        ii = np.flatnonzero((d - t) <= rh)  # == lo_in < hi
        oo = np.flatnonzero((t - d) < rh)  # == lo_out < hi (side="right")
        lo_in = _clipped_cols(
            radii, d.take(ii) - t.take(ii), lo.take(ii), rl.take(ii),
            "left", track, stats,
        )
        lo_out = _clipped_cols(
            radii, t.take(oo) - d.take(oo), lo.take(oo), rl.take(oo),
            "right", track, stats,
        )
        return WalkFrontier(
            nodes=np.concatenate([child_in.take(ii), child_in.take(oo) + 1]),
            pos=np.concatenate([pos.take(ii), pos.take(oo)]),
            lo=np.concatenate([lo_in, lo_out]),
            hi=np.concatenate([hi.take(ii), hi.take(oo)]),
            dpar=None,
        )
    counts = tree.child_hi[nodes] - tree.child_lo[nodes]
    return WalkFrontier(
        nodes=concat_ranges(tree.child_lo[nodes], counts),
        pos=np.repeat(pos, counts),
        lo=np.repeat(lo, counts),
        hi=np.repeat(hi, counts),
        dpar=np.repeat(d, counts) if tree.d_parent is not None else None,
    )


def _finish_counts(diff: np.ndarray, nq: int, a: int) -> np.ndarray:
    """Flat float64 difference array -> the ``(nq, a)`` int64 count matrix."""
    return np.cumsum(diff.reshape(nq, a + 1)[:, :a].astype(np.int64), axis=1)


def level_count_walk(
    space: MetricSpace,
    query_ids: np.ndarray,
    radii: np.ndarray,
    tree: FlatTree,
    *,
    stats: dict | None = None,
) -> np.ndarray:
    """Level-synchronous multi-radius range counting over a :class:`FlatTree`.

    Produces counts bit-identical to brute force — every credit or
    prune is a triangle-inequality bound that agrees with the per-pair
    float64 decision ``d(q, m) <= r``, with queries on the Q side of
    every metric call — but the walk is depth-major: the whole frontier
    of one depth is flat ``(node, query, lo, hi)`` arrays and each depth
    costs a constant number of NumPy dispatches, so total interpreter
    overhead is O(depth) instead of O(nodes).  This is the walk behind
    every flat-backed index over object metrics, and over vector data
    when the compiled kernel (:mod:`repro.index.ckernel`) is
    unavailable; it is the reference walk, and the only one that takes
    radius windows.

    ``stats``, when a dict, accumulates the dispatch
    counters of :data:`_WALK_STAT_KEYS`: ``steps`` (level steps),
    ``entries`` (frontier pairs processed) and the NumPy-call counts
    ``distance_calls`` / ``searchsorted_calls`` / ``scatter_calls``.
    """
    if stats is not None:
        for key in _WALK_STAT_KEYS:
            stats.setdefault(key, 0)
    nq, a = query_ids.size, radii.size
    query_ids = _identity_or_ids(query_ids)
    diff = np.zeros(nq * (a + 1), dtype=np.float64)
    work = [_root_frontier(nq, a)]
    while work:
        fr = work.pop()
        if fr.nodes.size > _LEVEL_CHUNK:
            # Bound the temporaries: scatters are commuting integer
            # adds, so slicing a frontier into arbitrary pieces and
            # walking each to completion sums to the identical matrix,
            # while peak memory stays at chunk scale instead of the
            # full width of the tree's densest level.
            for start in range(0, fr.nodes.size, _LEVEL_CHUNK):
                sl = slice(start, start + _LEVEL_CHUNK)
                work.append(
                    WalkFrontier(
                        fr.nodes[sl], fr.pos[sl], fr.lo[sl], fr.hi[sl],
                        None if fr.dpar is None else fr.dpar[sl],
                    )
                )
            continue
        fr = _level_step(space, query_ids, radii, tree, diff, fr, stats)
        if fr.nodes.size:
            work.append(fr)
    return _finish_counts(diff, nq, a)


def attach_leaf_distances(space: MetricSpace, tree: FlatTree) -> FlatTree:
    """Populate ``tree.d_elem`` with each leaf member's center distance.

    One :meth:`~repro.metric.base.MetricSpace.paired_distances` call
    measures every leaf bucket against its leaf's center — the same
    float path the walks compare radii against — and the result powers
    the leaf-scatter triangle filter of :func:`level_count_walk`.
    Positions held by internal nodes (a VP-tree's vantage points) stay
    zero; the leaf scatter never reads them.  Trees that already carry
    ``d_elem`` (M-trees record it during construction) are returned
    untouched.
    """
    if tree.d_elem is not None:
        return tree
    leaves = np.flatnonzero(tree.child_lo == tree.child_hi)
    b = tree.elem_hi[leaves] - tree.elem_lo[leaves]
    leaves, b = leaves[b > 0], b[b > 0]
    d_elem = np.zeros(tree.elems.size, dtype=np.float64)
    if leaves.size:
        mpos = concat_ranges(tree.elem_lo[leaves], b)
        d_elem[mpos] = space.paired_distances(
            np.repeat(tree.center[leaves], b), tree.elems[mpos]
        )
    tree.d_elem = d_elem
    return tree


def count_walk(
    space: MetricSpace,
    query_ids: np.ndarray,
    radii: np.ndarray,
    tree: FlatTree,
    *,
    stats: dict | None = None,
) -> np.ndarray:
    """Multi-radius range counts over ``tree``: the one walk entry point.

    Vector spaces run the compiled count walk
    (:func:`repro.index.ckernel.compiled_count_walk`: one GIL-free
    kernel call per radius, each query walking depth first, the margin
    band re-measured through numpy) when the kernel builds here.  Object
    metrics, and vector spaces without the kernel (no compiler, or
    ``REPRO_NO_CKERNEL=1``), run the numpy :func:`level_count_walk`.
    Counts equal brute force bit for bit either way, and
    :func:`repro.index.ckernel.kernel_info` records why the kernel is
    unavailable.

    When process telemetry is enabled (:mod:`repro.obs.hooks`), the
    walk's stats counters and wall time merge into the process-wide
    walk sink once per call; when it is off (the default), the only
    cost is this one ``None`` check — the walk itself is untouched
    either way, so counts stay bit-identical with telemetry on.
    """
    return _observed(lambda st: _run_walk(space, query_ids, radii, tree, st), stats)


def _observed(run, stats):
    """``run(stats)``, merged into the process walk sink when one is set.

    The telemetry shell of :func:`count_walk` and :func:`nearest_walk`:
    with the sink off it is one ``None`` check; with it on, the walk's
    stats delta and wall time merge into the sink once per call.
    """
    sink = _obs_hooks.WALK
    if sink is None:
        return run(stats)
    local = stats if stats is not None else {}
    # Callers may reuse one stats dict across calls, so merge only this
    # call's delta into the process sink.
    before = dict(local)
    started = time.perf_counter()
    out = run(local)
    elapsed = time.perf_counter() - started
    delta = {k: v - before.get(k, 0) for k, v in local.items()}
    sink.merge(delta, walks=1, seconds=elapsed)
    return out


def _run_walk(space, query_ids, radii, tree, stats):
    """The walk choice of :func:`count_walk`, telemetry-free."""
    from repro.index.ckernel import compiled_count_walk, kernel_available

    if space.is_vector and kernel_available():
        return compiled_count_walk(space, query_ids, radii, tree, stats=stats)
    return level_count_walk(space, query_ids, radii, tree, stats=stats)


#: Query rows per :func:`nearest_walk` pass: bounds the frontier and
#: the leaf-pair expansion of very large batches.
_NEAREST_CHUNK = 2048

#: Unit round-off of float64.
_U64 = 2.0**-53


def nearest_walk(space: MetricSpace, rows, tree: FlatTree, *, stats: dict | None = None):
    """Distance from each out-of-dataset row to its nearest element of ``tree``.

    An exact k=1 search.  A node is dropped when a triangle-inequality
    lower bound (the VP threshold, the covering radius, or a leaf
    member's ``d_elem``) exceeds the query's current best by the
    round-off slack of :func:`_nearest_slack`.  Two walks share those
    bounds:

    - Vector (L_p) spaces, whenever the C kernel loads: one
      ``repro_nearest`` call per batch walks each row on its own, depth
      first, near VP child first
      (:func:`repro.index.ckernel.compiled_nearest_candidates`).  The
      kernel's distances are not numpy's floats, so it returns every
      element it measured within the slack of its own best; one
      :meth:`~repro.metric.base.MetricSpace.paired_distances_to` call
      re-measures those candidates, and ``g`` is each row's minimum.
      The slack is at least five times the error of any one distance,
      which keeps the exact minimiser among the candidates (the proof
      is above ``repro_nearest`` in ``kernel.c``).  ctypes releases the
      GIL for the kernel call.
    - Object metrics, and runs without the kernel (no compiler,
      ``REPRO_NO_CKERNEL=1``): the numpy level walk.  Each query first
      dives greedily to one leaf (the near side of every VP split),
      which gives it a starting bound, and parks the subtrees it passed
      by; the parked entries then advance one frontier level per step,
      and every distance goes through ``paired_distances_to``.

    Either way every returned distance is an entry of
    ``paired_distances_to``, which equals the brute-force block entry
    bit for bit, so the result is exactly the brute-force minimum
    (:func:`repro.engine.nearest_distances_to`).

    ``space`` must hold ``tree``'s elements; pass the caller's space (a
    counting proxy included) so the walk's distances are seen where the
    caller counts them: the kernel's evaluations and seconds reach it
    through :meth:`~repro.metric.base.MetricSpace.credit_evaluations`.
    ``stats`` accumulates ``steps`` (level steps, or kernel calls),
    ``entries`` (frontier entries, or node visits) and
    ``distance_calls``, merged into the telemetry walk sink like
    :func:`count_walk`'s.
    """
    return _observed(lambda st: _nearest_run(space, rows, tree, st), stats)


def _nearest_run(space, rows, tree, stats):
    """:func:`nearest_walk` without the telemetry shell."""
    if stats is not None:
        for key in ("steps", "entries", "distance_calls"):
            stats.setdefault(key, 0)
    if space.is_vector:
        from repro.index.ckernel import kernel_available

        rows = np.asarray(rows, dtype=np.float64)
        if kernel_available() and len(rows):
            return _nearest_compiled(space, rows, tree, stats)
    out = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), _NEAREST_CHUNK):
        block = rows[start : start + _NEAREST_CHUNK]
        out[start : start + len(block)] = _nearest_block(space, block, tree, stats)
    return out


def _nearest_compiled(space, rows, tree, stats):
    """The kernel's candidates, re-measured exactly: each row's minimum."""
    from repro.index.ckernel import compiled_nearest_candidates

    slack, _ = _nearest_slack(space, rows, tree)  # vectors: rel is 0
    started = time.perf_counter()
    elems, row_end, evals = compiled_nearest_candidates(
        space, rows, tree, slack, stats=stats
    )
    space.credit_evaluations(evals, time.perf_counter() - started)
    starts = np.concatenate(([0], row_end[:-1]))
    pos = np.repeat(np.arange(len(rows), dtype=np.intp), row_end - starts)
    d = _nearest_distances(space, rows, pos, elems, stats)
    return np.minimum.reduceat(d, starts)


def _nearest_slack(space, rows, tree):
    """``(slack, rel)``: the walk drops an entry only when its lower
    bound exceeds ``best * (1 + rel) + slack[query]``.

    Each bound combines three computed distances.  For vectors the
    worst case is the cancellation of the einsum expansion
    ``‖q‖² + ‖x‖² − 2 q·x`` near ``d = 0``: it loses up to
    ``(dim + 3)`` ulps of ``(‖q‖ + ‖x‖)²``, so one distance is off by at
    most ``sqrt((dim + 4) u) (‖q‖ + ‖x‖)``; the other L_p sums are far
    more accurate.  The slack therefore grows with the query norm as
    well as the data norm, like the brackets of
    :meth:`~repro.metric.base.MetricSpace.float32_coords`.  Every
    indexed ``‖x‖`` is at most ``‖c_root‖ + k R_root``, with
    ``k = sqrt(dim)`` for ``p > 2``, where an L_p radius understates the
    ℓ2 spread.  Object metrics get a relative slack: every distance the
    walk compares is at most ``best + 2 R_root``.  The factor 8 is
    headroom on worst-case bounds.
    """
    r_root = float(tree.radius[0])
    if space.is_vector:
        dim = rows.shape[1]
        k = 1.0 if space.metric.p <= 2.0 else math.sqrt(dim)
        c = space.data[tree.center[0]]
        x_max = math.sqrt(float(np.dot(c, c))) + k * r_root
        q = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        return 8.0 * math.sqrt((dim + 4) * _U64) * (q + 2.0 * x_max), 0.0
    return np.full(len(rows), 2e-9 * r_root), 1e-9


def _nearest_block(space, rows, tree, stats):
    """One chunk of :func:`nearest_walk`: the dive, then the parked entries."""
    m = len(rows)
    best = np.full(m, np.inf)
    slack, rel = _nearest_slack(space, rows, tree)
    parked: list = []
    fr = (np.zeros(m, dtype=np.intp), np.arange(m, dtype=np.intp), np.zeros(m))
    while fr[0].size:
        fr = _nearest_step(space, rows, tree, best, slack, rel, fr, stats, parked)
    if parked:
        fr = tuple(np.concatenate(parts) for parts in zip(*parked))
        while fr[0].size:
            fr = _nearest_step(space, rows, tree, best, slack, rel, fr, stats, None)
    return best


def _nearest_live(best, slack, rel, pos, lb):
    """Entries whose bound can still beat their query's best (a best of
    exactly 0 cannot be beaten)."""
    b = best[pos]
    return (lb <= b * (1.0 + rel) + slack[pos]) & (b > 0.0)


def _nearest_distances(space, rows, pos, ids, stats):
    """``d(rows[pos[k]], ids[k])`` through the caller's space."""
    if stats is not None:
        stats["distance_calls"] += 1
    if isinstance(rows, np.ndarray):
        return space.paired_distances_to(rows[pos], ids)
    return space.paired_distances_to([rows[p] for p in pos.tolist()], ids)


def _nearest_step(space, rows, tree, best, slack, rel, frontier, stats, parked):
    """Advance one :func:`nearest_walk` frontier ``(nodes, pos, lb)``.

    Measures every surviving entry's center (centers are indexed
    elements, so each is a candidate), tightens the entry's bound with
    the covering radius, scans the leaves, and expands the internal
    nodes: into every child, or, during the dive (``parked`` is a
    list), into one child per query while the others are parked.
    """
    nodes, pos, lb = frontier
    live = np.flatnonzero(_nearest_live(best, slack, rel, pos, lb))
    nodes, pos, lb = nodes.take(live), pos.take(live), lb.take(live)
    if stats is not None:
        stats["steps"] += 1
        stats["entries"] += nodes.size
    if not nodes.size:
        return nodes, pos, lb
    d = _nearest_distances(space, rows, pos, tree.center.take(nodes), stats)
    np.minimum.at(best, pos, d)
    lb = np.maximum(lb, d - tree.radius.take(nodes))
    live = _nearest_live(best, slack, rel, pos, lb)
    leaf = tree.child_lo.take(nodes) == tree.child_hi.take(nodes)
    lf = np.flatnonzero(live & leaf)
    if lf.size:
        _nearest_leaves(
            space, rows, tree, best, slack, rel,
            nodes.take(lf), pos.take(lf), d.take(lf), stats,
        )
    inner = np.flatnonzero(live & ~leaf)
    nodes, pos, lb, d = nodes.take(inner), pos.take(inner), lb.take(inner), d.take(inner)
    lo = tree.child_lo.take(nodes)
    if tree.vp_split:
        t = tree.threshold.take(nodes)
        lb_in = np.maximum(lb, d - t)  # inside members: d(c, x) <= t
        lb_out = np.maximum(lb, t - d)  # outside members: d(c, x) > t
        if parked is None:
            return (
                np.concatenate([lo, lo + 1]),
                np.concatenate([pos, pos]),
                np.concatenate([lb_in, lb_out]),
            )
        out = d > t  # the query's own side
        parked.append((lo + (~out), pos, np.where(out, lb_in, lb_out)))
        return lo + out, pos, np.where(out, lb_out, lb_in)
    counts = tree.child_hi.take(nodes) - lo
    if parked is None:
        return concat_ranges(lo, counts), np.repeat(pos, counts), np.repeat(lb, counts)
    rest = counts - 1
    more = rest > 0
    parked.append((
        concat_ranges(lo[more] + 1, rest[more]), np.repeat(pos, rest), np.repeat(lb, rest)
    ))
    return lo, pos, lb


def _nearest_leaves(space, rows, tree, best, slack, rel, nodes, pos, d, stats):
    """Measure the leaf members no ``d_elem`` bound rules out.

    ``d`` holds each entry's distance to its leaf center, already
    folded into ``best``, so the center itself is skipped.
    """
    b = tree.elem_hi.take(nodes) - tree.elem_lo.take(nodes)
    mpos = concat_ranges(tree.elem_lo.take(nodes)[b > 0], b[b > 0])
    eidx = np.repeat(np.arange(nodes.size, dtype=np.intp), b)
    members = tree.elems.take(mpos)
    keep = members != tree.center.take(nodes).take(eidx)
    if tree.d_elem is not None:
        limit = best.take(pos) * (1.0 + rel) + slack.take(pos)
        keep &= np.abs(d.take(eidx) - tree.d_elem.take(mpos)) <= limit.take(eidx)
    sel = np.flatnonzero(keep)
    if sel.size:
        q = pos.take(eidx.take(sel))
        np.minimum.at(best, q, _nearest_distances(space, rows, q, members.take(sel), stats))


class FlatQueryMixin:
    """Count queries answered by :func:`count_walk` over ``self.flat``,
    nearest-element queries by :func:`nearest_walk`.

    Mixed into every flat-backed index; requires ``self.space`` and a
    ``self.flat`` :class:`FlatTree`.
    """

    space: MetricSpace
    flat: FlatTree

    def count_within(self, query_ids: Sequence[int] | np.ndarray, radius: float) -> np.ndarray:
        """Per-query neighbor counts (see :class:`MetricIndex`)."""
        query_ids = np.asarray(query_ids, dtype=np.intp)
        counts = count_walk(self.space, query_ids, np.array([float(radius)]), self.flat)
        return counts[:, 0].astype(np.intp)

    def count_within_many(self, query_ids, radii) -> np.ndarray:
        """All radii for all queries in one walk over the flat arrays."""
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        return count_walk(self.space, query_ids, radii, self.flat)

    def nearest_to(self, rows) -> np.ndarray:
        """Distance from each out-of-dataset row (``(q, d)`` vectors, or
        objects) to its nearest indexed element: :func:`nearest_walk`."""
        return nearest_walk(self.space, rows, self.flat)


class FrozenIndex(FlatQueryMixin, MetricIndex):
    """A fitted index reduced to its flat arrays — what persistence loads.

    Answers every :class:`MetricIndex` query from a :class:`FlatTree`
    alone; construction logic, node objects and RNG state are gone.
    ``diameter_estimate`` returns the value recorded at save time, so a
    loaded index anchors the same radius ladder as the one that was
    saved.
    """

    def __init__(
        self,
        space: MetricSpace,
        ids,
        flat: FlatTree,
        *,
        kind: str = "frozen",
        diameter: float | None = None,
    ):
        super().__init__(space, ids)
        self.flat = flat
        self.kind = str(kind)
        self._diameter = None if diameter is None else float(diameter)

    def diameter_estimate(self) -> float:
        """The diameter recorded at save time (two-scan fallback without one)."""
        if self._diameter is not None:
            return self._diameter
        return super().diameter_estimate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrozenIndex(kind={self.kind!r}, n={len(self)}, nodes={self.flat.n_nodes})"


def concat_ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + k) for s, k in zip(starts, sizes)])``
    without the per-range Python loop (all ``sizes`` must be positive).

    The level-synchronous builds use this to gather every tree level's
    member positions — one cumsum over a step array whose entries are 1
    inside a range and the jump to the next start at each boundary.
    """
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    step = np.ones(total, dtype=np.intp)
    step[0] = starts[0]
    if starts.size > 1:
        step[np.cumsum(sizes[:-1])] = starts[1:] - (starts[:-1] + sizes[:-1]) + 1
    return np.cumsum(step)


def chunked(array: np.ndarray, size: int):
    """Yield consecutive chunks of ``array`` of at most ``size`` rows."""
    for start in range(0, len(array), size):
        yield array[start : start + size]
