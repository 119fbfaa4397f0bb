"""Cover tree: a metric index with geometrically decreasing scales.

A cover tree in the spirit of Beygelzimer, Kakade and Langford (ICML
2006): every node owns a *center* element and a *scale* ``s``; its
children's centers are pairwise separated by more than ``2^(s-1)`` and
every child's members lie within that separation of the child's center
(the covering invariant).  Construction is top-down farthest-point
separation, bulk-loaded level-synchronously straight into
:class:`~repro.index.base.FlatTree` arrays
(:func:`~repro.index.bulk.bulk_build_covertree`), which yields the same
invariants as the classic insertion algorithm while being simpler and
deterministic.

Range counting prunes exactly like the other metric trees: a subtree
whose covering ball is swallowed by the query ball contributes its
size without any further distance evaluations (the *count-only
principle* of Sec. IV-G), and a subtree whose covering ball misses the
query ball is skipped entirely.

The cover tree shines when the data's intrinsic (fractal) dimension is
small — precisely the regime Lemma 1 argues real data occupies — since
the number of children per node is bounded by the doubling constant.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import FlatQueryMixin, MetricIndex
from repro.index.bulk import bulk_build_covertree
from repro.metric.base import MetricSpace


class CoverTree(FlatQueryMixin, MetricIndex):
    """Bulk-loaded cover tree with subtree-count pruning.

    Parameters
    ----------
    space, ids:
        The metric space and the element ids to index.
    leaf_size:
        Members at or below this count become a brute-force leaf.
    base:
        Scale base (default 2.0, the classic cover tree's); children at
        scale ``s`` are separated by more than ``base**(s-1)``.
    """

    def __init__(
        self, space: MetricSpace, ids=None, *, leaf_size: int = 16, base: float = 2.0
    ):
        super().__init__(space, ids)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        self.leaf_size = leaf_size
        self.base = float(base)
        self.flat = bulk_build_covertree(
            space, self.ids, base=self.base, leaf_size=self.leaf_size
        )

    # -- queries (count_within / count_within_many from FlatQueryMixin) ---

    def diameter_estimate(self) -> float:
        """Root-children rule (Alg. 1 line 2) with a two-scan refinement."""
        if self.ids.size == 1:
            return 0.0
        d0 = self.space.distances(int(self.flat.center[0]), self.ids)
        far = int(self.ids[int(np.argmax(d0))])
        return float(self.space.distances(far, self.ids).max())

    # -- introspection -----------------------------------------------------

    def max_depth(self) -> int:
        """Height of the tree (leaves are depth 1)."""
        return self.flat.max_depth()

    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return int(self.flat.n_nodes)
