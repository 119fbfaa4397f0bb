"""Vantage-point tree: the default index for nondimensional data.

A VP-tree partitions a metric space by distance to a vantage point:
elements closer than the median go inside, the rest outside.  Range
counting prunes with the triangle inequality and, thanks to per-node
covering radii and subtree sizes, can count whole subtrees without
descending when the query ball swallows them — which is exactly what
the *count-only principle* of Sec. IV-G wants.

The tree is stored as a :class:`~repro.index.base.FlatTree` and built
**level-synchronously**: all splits at one depth are computed together
— one paired-distance call measures every element of the level against
its segment's vantage, and each segment is partitioned in place inside
one shared permutation array.  No per-node recursion, no ``np.delete``,
no node objects; queries run the shared flat
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
from repro.utils.rng import check_random_state


class VPTree(FlatQueryMixin, MetricIndex):
    """Vantage-point tree with subtree-count pruning.

    Parameters
    ----------
    space, ids:
        The metric space and the element ids to index.
    leaf_size:
        Maximum bucket size before a node is split.
    random_state:
        Seed for vantage-point selection.  The default (0) makes the
        tree — and therefore McCatch, which is advertised as
        deterministic — reproducible run to run.

    Attributes
    ----------
    flat:
        The :class:`~repro.index.base.FlatTree` storage.  An internal
        node holds its vantage point itself (outside both children);
        its two children are the inside/outside halves of the median
        split, and every leaf bucket is a slice of ``flat.elems``.
    """

    def __init__(
        self, space: MetricSpace, ids=None, *, leaf_size: int = 16, random_state=0
    ):
        super().__init__(space, ids)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size
        self._rng = check_random_state(random_state)
        self.flat = attach_leaf_distances(space, self._build_flat())

    # -- construction ----------------------------------------------------

    def _build_flat(self) -> FlatTree:
        """Level-synchronous vectorized construction.

        Maintains one permutation array of element ids; every tree node
        owns a contiguous slice of it (an internal node's vantage sits
        at the front of its slice, the children partition the rest).
        Each depth is processed with a single
        :meth:`~repro.metric.base.MetricSpace.paired_distances` call —
        the same bulk-consistent float path the query walk compares
        radii against — followed by cheap per-segment reductions and
        in-place partitions.
        """
        space, leaf_size, rng = self.space, self.leaf_size, self._rng
        elems = self.ids.copy()
        n = elems.size
        center: list[int] = []
        threshold: list[float] = []
        radius: list[float] = []
        size: list[int] = []
        child_lo: list[int] = []
        child_hi: list[int] = []
        elem_lo: list[int] = []
        elem_hi: list[int] = []

        def new_node(lo: int, hi: int) -> int:
            idx = len(center)
            center.append(-1)
            threshold.append(0.0)
            radius.append(0.0)
            size.append(hi - lo)
            child_lo.append(0)
            child_hi.append(0)
            elem_lo.append(lo)
            elem_hi.append(hi)
            return idx

        level = [new_node(0, n)]
        while level:
            seg_lo = np.array([elem_lo[i] for i in level], dtype=np.intp)
            seg_sizes = np.array([elem_hi[i] - elem_lo[i] for i in level], dtype=np.intp)
            split = seg_sizes > leaf_size
            split_k = np.flatnonzero(split)
            if split_k.size:
                # Seeded vantage picks for every splitting segment at
                # once, each swapped to the front of its slice.
                picks = rng.integers(seg_sizes[split_k])
                fronts, chosen = seg_lo[split_k], seg_lo[split_k] + picks
                elems[fronts], elems[chosen] = elems[chosen], elems[fronts].copy()
            centers = elems[seg_lo]
            for k, i in enumerate(level):
                center[i] = int(centers[k])
            # One paired-distance call for the whole level: every member
            # against its segment's vantage (self-distance is exactly 0).
            positions = concat_ranges(seg_lo, seg_sizes)
            d_level = space.paired_distances(np.repeat(centers, seg_sizes), elems[positions])
            offsets = np.concatenate([[0], np.cumsum(seg_sizes)])
            # Covering radii for every segment at once (the vantage's own
            # zero never wins the max).
            radii_level = np.maximum.reduceat(d_level, offsets[:-1])
            for k, i in enumerate(level):
                if seg_sizes[k] > 1:
                    radius[i] = float(radii_level[k])
            if not split_k.size:
                break

            # Median thresholds and in-place partitions for all splitting
            # segments together, vantages excluded: one stable sort keyed
            # by (segment, distance) yields every median; a second keyed
            # by (segment, side) yields every partition.
            seg_of = np.repeat(np.arange(len(level)), seg_sizes)
            rest_mask = np.ones(d_level.size, dtype=bool)
            rest_mask[offsets[:-1]] = False  # drop each segment's vantage
            rest_mask &= split[seg_of]  # leaves keep their buckets as-is
            rest_d = d_level[rest_mask]
            rest_seg = seg_of[rest_mask]
            rest_pos = positions[rest_mask]
            rest_counts = seg_sizes[split_k] - 1
            ro = np.concatenate([[0], np.cumsum(rest_counts)])
            sorted_d = rest_d[np.lexsort((rest_d, rest_seg))]
            medians = 0.5 * (
                sorted_d[ro[:-1] + (rest_counts - 1) // 2] + sorted_d[ro[:-1] + rest_counts // 2]
            )
            inside = rest_d <= np.repeat(medians, rest_counts)
            k_in = np.add.reduceat(inside, ro[:-1])
            # Stable partition of every segment at once: inside halves
            # first, original order preserved within each half.
            elems[rest_pos] = elems[rest_pos[np.lexsort((~inside, rest_seg))]]

            next_level: list[int] = []
            for j, k in enumerate(split_k):
                # Degenerate medians (many ties) can empty one side; fall
                # back to a leaf rather than splitting forever.
                if k_in[j] == 0 or k_in[j] == rest_counts[j]:
                    continue
                i = level[k]
                threshold[i] = float(medians[j])
                lo, hi = elem_lo[i], elem_hi[i]
                mid = lo + 1 + int(k_in[j])
                inside_node = new_node(lo + 1, mid)
                outside_node = new_node(mid, hi)
                child_lo[i], child_hi[i] = inside_node, outside_node + 1
                next_level.extend((inside_node, outside_node))
            level = next_level

        return FlatTree(
            center=center, threshold=threshold, radius=radius, size=size,
            child_lo=child_lo, child_hi=child_hi,
            elem_lo=elem_lo, elem_hi=elem_hi, elems=elems, vp_split=True,
        )

    # -- queries (count_within / count_within_many from FlatQueryMixin) ---

    def diameter_estimate(self) -> float:
        """Two-scan heuristic anchored at the root vantage point.

        Not the paper's literal "max distance between child nodes of
        the root" rule (Alg. 1 line 2): a VP-node has only one
        representative per side, so instead we scan from the root
        vantage to its farthest element ``p``, then return the farthest
        distance from ``p`` — a classic diameter lower bound that is
        within a factor 2 of the truth in any metric space, and exact
        on most real shapes.  Subclasses wanting the literal
        root-children rule (or an exact diameter) should override this
        method; everything downstream only consumes the returned float.
        """
        if len(self) == 1:
            return 0.0
        far_d = self.space.distances(int(self.flat.center[0]), self.ids)
        far = int(self.ids[int(np.argmax(far_d))])
        return float(self.space.distances(far, self.ids).max())
