"""Ball tree: binary metric index via two-pivot ("bouncing ball") splits.

Each node is a ball — a pivot element plus the covering radius of its
members.  Splitting picks two far-apart pivots (an approximation of
the diametral pair: farthest-from-random, then farthest-from-that) and
assigns every member to the nearer pivot, which tends to produce
compact, well-separated children even in nondimensional spaces, since
only distances are used.

Like the other trees here, range counting applies the two standard
triangle-inequality cuts — skip a ball the query ball misses, count a
ball it swallows — so the join cost tracks the data's intrinsic
dimension (Lemma 1) rather than its embedding dimension.

Storage is a :class:`~repro.index.base.FlatTree` built
**level-synchronously**: the whole depth's pivot distances come from
three paired-distance calls (members-to-pivot, members-to-``a``,
members-to-``b``) and each segment is partitioned in place inside one
shared permutation array — no per-node recursion or node objects.
Queries run the shared flat
:func:`~repro.index.base.count_walk`.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import (
    FlatQueryMixin,
    FlatTree,
    MetricIndex,
    attach_leaf_distances,
    concat_ranges,
)
from repro.metric.base import MetricSpace


class BallTree(FlatQueryMixin, MetricIndex):
    """Binary ball tree with subtree-count pruning.

    Parameters
    ----------
    space, ids:
        The metric space and the element ids to index.
    leaf_size:
        Maximum bucket size before a node is split.

    Attributes
    ----------
    flat:
        The :class:`~repro.index.base.FlatTree` storage.  A node's
        pivot is the first member of its slice; children partition the
        whole slice (the pivot lands on one side of the split).
    """

    def __init__(self, space: MetricSpace, ids=None, *, leaf_size: int = 16):
        super().__init__(space, ids)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size
        self.flat = attach_leaf_distances(space, self._build_flat())

    # -- construction ----------------------------------------------------

    def _build_flat(self) -> FlatTree:
        """Level-synchronous vectorized construction (see module docstring)."""
        space, leaf_size = self.space, self.leaf_size
        elems = self.ids.copy()
        n = elems.size
        center: list[int] = []
        radius: list[float] = []
        size: list[int] = []
        child_lo: list[int] = []
        child_hi: list[int] = []
        elem_lo: list[int] = []
        elem_hi: list[int] = []

        def new_node(lo: int, hi: int) -> int:
            idx = len(center)
            center.append(int(elems[lo]))  # pivot = first member of the slice
            radius.append(0.0)
            size.append(hi - lo)
            child_lo.append(0)
            child_hi.append(0)
            elem_lo.append(lo)
            elem_hi.append(hi)
            return idx

        def argmax_per_segment(values: np.ndarray, offsets: np.ndarray, sizes: np.ndarray):
            """First position of each segment's maximum (relative to ``values``)."""
            maxima = np.maximum.reduceat(values, offsets[:-1])
            seg_of = np.repeat(np.arange(sizes.size), sizes)
            hits = np.flatnonzero(values == np.repeat(maxima, sizes))
            _, first = np.unique(seg_of[hits], return_index=True)
            return hits[first]

        level = [new_node(0, n)]
        while level:
            seg_lo = np.array([elem_lo[i] for i in level], dtype=np.intp)
            seg_sizes = np.array([elem_hi[i] - elem_lo[i] for i in level], dtype=np.intp)
            positions = concat_ranges(seg_lo, seg_sizes)
            members = elems[positions]
            d0 = space.paired_distances(np.repeat(elems[seg_lo], seg_sizes), members)
            offsets = np.concatenate([[0], np.cumsum(seg_sizes)])
            radii_level = np.maximum.reduceat(d0, offsets[:-1])
            for k, i in enumerate(level):
                if seg_sizes[k] > 1:
                    radius[i] = float(radii_level[k])
            split_k = np.flatnonzero((seg_sizes > leaf_size) & (radii_level > 0.0))
            if not split_k.size:
                break

            # Approximate diametral pair for all splitting segments at
            # once, each leg one paired-distance call: a = farthest from
            # the pivot, b = farthest from a.
            keep = np.repeat(np.isin(np.arange(len(level)), split_k), seg_sizes)
            spl_pos = positions[keep]
            spl_members = members[keep]
            spl_sizes = seg_sizes[split_k]
            spl_off = np.concatenate([[0], np.cumsum(spl_sizes)])
            spl_d0 = d0[keep]
            a_ids = spl_members[argmax_per_segment(spl_d0, spl_off, spl_sizes)]
            d_a = space.paired_distances(np.repeat(a_ids, spl_sizes), spl_members)
            b_ids = spl_members[argmax_per_segment(d_a, spl_off, spl_sizes)]
            d_b = space.paired_distances(np.repeat(b_ids, spl_sizes), spl_members)

            left = d_a <= d_b
            k_left = np.add.reduceat(left, spl_off[:-1])
            # Stable partition of every splitting segment at once: left
            # halves first, original order preserved within each half.
            spl_seg = np.repeat(np.arange(split_k.size), spl_sizes)
            elems[spl_pos] = spl_members[np.lexsort((~left, spl_seg))]

            next_level: list[int] = []
            for j, k in enumerate(split_k):
                # All members coincide with one pivot's side (heavy
                # ties): a leaf is the honest fallback.
                if k_left[j] == 0 or k_left[j] == spl_sizes[j]:
                    continue
                i = level[k]
                lo, hi = elem_lo[i], elem_hi[i]
                mid = lo + int(k_left[j])
                left_node = new_node(lo, mid)
                right_node = new_node(mid, hi)
                child_lo[i], child_hi[i] = left_node, right_node + 1
                next_level.extend((left_node, right_node))
            level = next_level

        return FlatTree(
            center=center, threshold=np.zeros(len(center)), radius=radius, size=size,
            child_lo=child_lo, child_hi=child_hi,
            elem_lo=elem_lo, elem_hi=elem_hi, elems=elems,
        )

    # -- queries (count_within / count_within_many from FlatQueryMixin) ---

    def diameter_estimate(self) -> float:
        """Root-ball two-scan estimate (Alg. 1 line 2 analogue)."""
        if self.ids.size == 1:
            return 0.0
        d0 = self.space.distances(int(self.flat.center[0]), self.ids)
        far = int(self.ids[int(np.argmax(d0))])
        return float(self.space.distances(far, self.ids).max())

    def leaf_sizes(self) -> list[int]:
        """Sizes of all leaf buckets (balance diagnostics)."""
        return self.flat.leaf_sizes()
