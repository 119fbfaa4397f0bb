"""Slim-tree: an M-tree with the Slim-down pass (Traina et al. [35]).

The Slim-tree's contribution over the M-tree is the *Slim-down*: a
post-construction pass that migrates leaf entries lying on the border
of one ball into a sibling ball that also covers them and is fuller,
shrinking covering radii — the ball overlap the Slim-tree's
"fat-factor" measures.  Here it runs in place on the bulk-loaded
:class:`~repro.index.base.FlatTree` arrays
(:func:`~repro.index.bulk.slim_down_flat`).
"""

from __future__ import annotations

from repro.index.bulk import slim_down_flat
from repro.index.mtree import MTree


class SlimTree(MTree):
    """Bulk-loaded M-tree plus an optional in-place slim-down."""

    def __init__(self, space, ids=None, *, capacity: int = 16, slim_down: bool = True):
        super().__init__(space, ids, capacity=capacity)
        if slim_down:
            self.slim_down()

    def slim_down(self, max_rounds: int = 3) -> int:
        """Migrate border leaf entries into covering siblings; returns moves.

        For each pair of sibling leaves (A, B): a farthest entry of A
        that also fits inside B's covering ball (without enlarging it)
        moves to B, after which A's radius can shrink.  Repeats until a
        round makes no move or ``max_rounds`` is hit.
        """
        stats: dict = {"distance_calls": 0}
        moves = slim_down_flat(
            self.space, self.flat,
            capacity=self.capacity, max_rounds=max_rounds, stats=stats,
        )
        self._distance_calls += stats["distance_calls"]
        return moves

    def fat_factor(self) -> float:
        """Fraction of extra node accesses caused by ball overlap, in [0, 1].

        Point queries at every indexed element count how many nodes
        would be visited; 0 means disjoint balls (ideal), 1 means every
        query touches every node.
        """
        n = len(self.ids)
        h = self.height()
        node_count = self.flat.n_nodes
        if node_count <= h:
            return 0.0
        total_accesses = 0
        for i in self.ids:
            total_accesses += self._point_query_accesses(int(i))
        denom = n * (node_count - h)
        return max(0.0, (total_accesses - h * n) / denom)

    def _point_query_accesses(self, q: int) -> int:
        flat = self.flat
        accesses = 0
        stack = [0]
        while stack:
            i = stack.pop()
            accesses += 1
            for c in range(int(flat.child_lo[i]), int(flat.child_hi[i])):
                if self._d(q, int(flat.center[c])) <= flat.radius[c]:
                    stack.append(c)
        return accesses
