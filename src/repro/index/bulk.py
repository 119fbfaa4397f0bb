"""Level-synchronous array bulk-loads for the M-, Slim- and cover trees.

The classic builders for these families insert one element at a time —
one Python round trip per element.  :func:`bulk_build_mtree` and
:func:`bulk_build_covertree` instead construct the
:class:`~repro.index.base.FlatTree` struct-of-arrays **directly**, with
no object-node intermediate, using the same level-synchronous pattern
as the VP-/ball-tree builds:

- one shared element permutation; every node's members are a contiguous
  slice of it, and children partition their parent's slice in order
  (exactly the layout :func:`~repro.index.base.level_count_walk`
  consumes);
- per depth step, *one* row-aligned
  :meth:`~repro.metric.base.MetricSpace.paired_distances` call measures
  every pending member against its segment's center, covering radii
  fall out of ``np.maximum.reduceat``, and the partition of all
  splitting segments happens in one stable ``np.lexsort``;
- node routing is k-way greedy farthest-point promotion: pivot 0 is
  the segment's own center (the nesting invariant the cover tree
  needs, and the routing-pivot reuse the M-tree wants), later pivots
  are each segment's farthest member from its already-chosen pivots —
  one grouped paired call per promotion round, shared across every
  splitting segment on the level.

The emitted trees honour the full M-tree invariant set the walks rely
on: covering radii bound every member (computed from the *actual*
member distances, never estimated), ``d_parent`` is the exact
child-center-to-parent-center distance (the classic parent-distance
pre-filter), and ``d_elem`` is the exact member-to-leaf-center distance
(the level walk's leaf triangle filter) recorded on the same
``paired_distances`` float path that
:func:`~repro.index.base.attach_leaf_distances` uses.

:func:`slim_down_flat` runs the Slim-tree's post-construction
slim-down on the flat arrays: border members migrate between sibling
leaves *in place* inside the parent's slice (sibling migration never
changes an ancestor's member set, so only the parent's slice is
rewritten).
"""

from __future__ import annotations

import numpy as np

from repro.index.base import FlatTree, concat_ranges
from repro.metric.base import MetricSpace

__all__ = ["bulk_build_mtree", "bulk_build_covertree", "slim_down_flat"]


def _argmax_per_segment(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """First position of each segment's maximum (absolute into ``values``).

    Same reduceat/first-hit trick as the ball tree's diametral-pair
    selection: ties resolve to the earliest position, like
    ``np.argmax``.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    maxima = np.maximum.reduceat(values, offsets[:-1])
    seg_of = np.repeat(np.arange(sizes.size), sizes)
    hits = np.flatnonzero(values == np.repeat(maxima, sizes))
    _, first = np.unique(seg_of[hits], return_index=True)
    return hits[first]


class _LevelBuilder:
    """Shared level-loop state for the bulk builders.

    Holds the growing struct-of-arrays columns plus the one element
    permutation, and the grouped-dispatch helpers both tree families
    share; the family-specific piece — how many pivots a splitting
    segment promotes — stays in the build functions.
    """

    def __init__(self, space: MetricSpace, ids: np.ndarray, stats: dict | None):
        self.space = space
        self.stats = stats
        self.elems = np.asarray(ids, dtype=np.intp).copy()
        self.d_elem = np.zeros(self.elems.size, dtype=np.float64)
        self.center: list[int] = []
        self.radius: list[float] = []
        self.size: list[int] = []
        self.child_lo: list[int] = []
        self.child_hi: list[int] = []
        self.elem_lo: list[int] = []
        self.elem_hi: list[int] = []
        self.d_parent: list[float] = []

    def paired(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """One grouped metric dispatch, counted honestly."""
        if self.stats is not None:
            self.stats["distance_calls"] = (
                self.stats.get("distance_calls", 0) + int(right.size)
            )
        return self.space.paired_distances(left, right)

    def new_node(self, c: int, dpar: float, lo: int, hi: int) -> int:
        idx = len(self.center)
        self.center.append(int(c))
        self.radius.append(0.0)  # measured next level from actual members
        self.size.append(hi - lo)
        self.child_lo.append(0)
        self.child_hi.append(0)
        self.elem_lo.append(lo)
        self.elem_hi.append(hi)
        self.d_parent.append(float(dpar))
        return idx

    def open_level(self, level: list[int]):
        """Gather one depth's segments and measure members to centers."""
        seg_lo = np.array([self.elem_lo[i] for i in level], dtype=np.intp)
        seg_sizes = np.array(
            [self.elem_hi[i] - self.elem_lo[i] for i in level], dtype=np.intp
        )
        positions = concat_ranges(seg_lo, seg_sizes)
        members = self.elems[positions]
        cent = np.array([self.center[i] for i in level], dtype=np.intp)
        d0 = self.paired(np.repeat(cent, seg_sizes), members)
        offsets = np.concatenate([[0], np.cumsum(seg_sizes)])
        radii = np.maximum.reduceat(d0, offsets[:-1])
        for k, i in enumerate(level):
            if seg_sizes[k] > 1:
                self.radius[i] = float(radii[k])
        return seg_sizes, positions, members, cent, d0, radii

    def finish(self, *, with_d_parent: bool) -> FlatTree:
        return FlatTree(
            center=self.center,
            threshold=np.zeros(len(self.center)),
            radius=self.radius,
            size=self.size,
            child_lo=self.child_lo,
            child_hi=self.child_hi,
            elem_lo=self.elem_lo,
            elem_hi=self.elem_hi,
            elems=self.elems,
            d_parent=self.d_parent if with_d_parent else None,
            d_elem=self.d_elem,
        )


def _grow_pivots(
    b: _LevelBuilder,
    spl_members: np.ndarray,
    spl_sizes: np.ndarray,
    spl_d0: np.ndarray,
    centers: np.ndarray,
    *,
    thresholds: np.ndarray,
    max_pivots: int | None,
):
    """Greedy farthest-point promotion across all splitting segments.

    Pivot 0 of every segment is its own center.  Each round picks each
    still-growing segment's farthest member from its nearest chosen
    pivot, stops a segment once that farthest distance is no longer
    above its ``threshold`` (0 for the M-tree — stop only when every
    member coincides with a pivot; the child-scale separation for the
    cover tree), and measures all the new pivots against their
    segments' members in one grouped paired call.  Members follow their
    nearest pivot, ties to the earliest one (first-minimum rule).

    Returns ``(piv_ids, piv_dpar, owner)``: per-segment pivot id lists,
    matching exact pivot-to-segment-center distances, and each member's
    owning pivot ordinal.
    """
    n_spl = spl_sizes.size
    spl_seg = np.repeat(np.arange(n_spl), spl_sizes)
    owner = np.zeros(spl_members.size, dtype=np.intp)
    best = spl_d0.copy()  # distance of each member to its nearest chosen pivot
    piv_ids = [[int(centers[s])] for s in range(n_spl)]
    piv_dpar = [[0.0] for _ in range(n_spl)]
    j = 0
    while max_pivots is None or j + 1 < max_pivots:
        j += 1
        far = _argmax_per_segment(best, spl_sizes)
        grow = np.flatnonzero(best[far] > thresholds)
        if grow.size == 0:
            break
        gfar = far[grow]
        new_ids = spl_members[gfar]
        for s, pid, dpar in zip(grow, new_ids, spl_d0[gfar]):
            piv_ids[int(s)].append(int(pid))
            piv_dpar[int(s)].append(float(dpar))
        grow_seg = np.zeros(n_spl, dtype=bool)
        grow_seg[grow] = True
        gmask = grow_seg[spl_seg]
        d_new = b.paired(np.repeat(new_ids, spl_sizes[grow]), spl_members[gmask])
        sub_best = best[gmask]
        closer = d_new < sub_best  # strict: ties stay with the earlier pivot
        sub_owner = owner[gmask]
        sub_owner[closer] = j
        owner[gmask] = sub_owner
        sub_best[closer] = d_new[closer]
        best[gmask] = sub_best
        if j >= spl_members.size:  # pragma: no cover - defensive bound
            break
    return piv_ids, piv_dpar, owner


def _emit_children(
    b: _LevelBuilder,
    level: list[int],
    split_k: np.ndarray,
    spl_pos: np.ndarray,
    spl_members: np.ndarray,
    spl_sizes: np.ndarray,
    piv_ids: list[list[int]],
    piv_dpar: list[list[float]],
    owner: np.ndarray,
) -> list[int]:
    """Partition every splitting segment and append its child nodes.

    One stable lexsort groups each segment's members by owning pivot
    (original order preserved within a group), the permutation slice is
    rewritten in place, and children land in BFS order — contiguous per
    parent, each owning the matching contiguous sub-slice.
    """
    n_spl = split_k.size
    spl_seg = np.repeat(np.arange(n_spl), spl_sizes)
    order = np.lexsort((owner, spl_seg))  # stable: segment-major, then pivot
    b.elems[spl_pos] = spl_members[order]
    width = max(len(p) for p in piv_ids)
    counts = np.bincount(spl_seg * width + owner, minlength=n_spl * width).reshape(
        n_spl, width
    )
    next_level: list[int] = []
    for s in range(n_spl):
        i = level[int(split_k[s])]
        first = len(b.center)
        cursor = b.elem_lo[i]
        for g in range(len(piv_ids[s])):
            c = int(counts[s, g])
            if c == 0:  # pragma: no cover - every promoted pivot owns itself
                continue
            next_level.append(
                b.new_node(piv_ids[s][g], piv_dpar[s][g], cursor, cursor + c)
            )
            cursor += c
        b.child_lo[i], b.child_hi[i] = first, len(b.center)
    return next_level


def bulk_build_mtree(
    space: MetricSpace,
    ids: np.ndarray,
    *,
    fanout: int = 16,
    leaf_cap: int = 16,
    stats: dict | None = None,
) -> FlatTree:
    """Bulk-load an M-tree-shaped :class:`FlatTree` (k-way farthest-point).

    Segments larger than ``leaf_cap`` with a positive covering radius
    promote up to ``fanout`` pivots (the node capacity) and route every
    member to its nearest pivot — the array analogue of the M-tree's
    minimum-distance choose-subtree rule, with promotion by farthest
    point instead of overflow splits.  Duplicate-only segments (radius
    0) become leaves at any size: no split can separate them.
    ``stats["distance_calls"]`` accumulates the metric evaluations
    spent, one count per paired row.
    """
    b = _LevelBuilder(space, ids, stats)
    n = b.elems.size
    level = [b.new_node(int(b.elems[0]), 0.0, 0, n)]
    while level:
        seg_sizes, positions, members, cent, d0, radii = b.open_level(level)
        is_split = (seg_sizes > leaf_cap) & (radii > 0.0)
        split_k = np.flatnonzero(is_split)
        leaf_rows = ~np.repeat(is_split, seg_sizes)
        b.d_elem[positions[leaf_rows]] = d0[leaf_rows]
        if not split_k.size:
            break
        keep = ~leaf_rows
        piv_ids, piv_dpar, owner = _grow_pivots(
            b,
            members[keep],
            seg_sizes[split_k],
            d0[keep],
            cent[split_k],
            thresholds=np.zeros(split_k.size),
            max_pivots=fanout,
        )
        level = _emit_children(
            b, level, split_k, positions[keep], members[keep], seg_sizes[split_k],
            piv_ids, piv_dpar, owner,
        )
    return b.finish(with_d_parent=True)


def bulk_build_covertree(
    space: MetricSpace,
    ids: np.ndarray,
    *,
    base: float = 2.0,
    leaf_size: int = 16,
    stats: dict | None = None,
) -> FlatTree:
    """Bulk-load a cover-tree-shaped :class:`FlatTree`.

    The cover tree's scale bookkeeping collapses into one rule: a
    splitting segment's child separation is ``base**(s-1)`` for the
    smallest scale ``s`` with ``base**s >= radius`` — every larger
    scale's separation meets or exceeds the covering radius and would
    yield a single child, so a top-down build drops straight to this
    one.  Pivot promotion then runs
    until no member is farther than that separation from every chosen
    pivot, so sibling centers stay pairwise more than ``sep`` apart
    (the cover-tree separation invariant) and pivot 0 being the segment
    center keeps the nesting invariant.
    """
    b = _LevelBuilder(space, ids, stats)
    n = b.elems.size
    level = [b.new_node(int(b.elems[0]), 0.0, 0, n)]
    while level:
        seg_sizes, positions, members, cent, d0, radii = b.open_level(level)
        is_split = (seg_sizes > leaf_size) & (radii > 0.0)
        split_k = np.flatnonzero(is_split)
        leaf_rows = ~np.repeat(is_split, seg_sizes)
        b.d_elem[positions[leaf_rows]] = d0[leaf_rows]
        if not split_k.size:
            break
        spl_radii = radii[split_k]
        with np.errstate(divide="ignore"):
            scale = np.ceil(np.log(spl_radii) / np.log(base))
        sep = np.power(base, scale - 1.0)
        # Float fuzz at exact powers of `base` can land sep on (or
        # above) the radius, which would promote no second pivot and
        # loop forever: drop such segments one more scale.
        while np.any(sep >= spl_radii):
            sep = np.where(sep >= spl_radii, sep / base, sep)
        keep = ~leaf_rows
        piv_ids, piv_dpar, owner = _grow_pivots(
            b,
            members[keep],
            seg_sizes[split_k],
            d0[keep],
            cent[split_k],
            thresholds=sep,
            max_pivots=None,
        )
        level = _emit_children(
            b, level, split_k, positions[keep], members[keep], seg_sizes[split_k],
            piv_ids, piv_dpar, owner,
        )
    return b.finish(with_d_parent=False)


def slim_down_flat(
    space: MetricSpace,
    tree: FlatTree,
    *,
    capacity: int,
    max_rounds: int = 3,
    stats: dict | None = None,
) -> int:
    """Slim-down over flat arrays, in place; returns the move count.

    The Slim-tree migration rule: a member on the border of its leaf (its ``d_elem`` *is* the covering radius) moves to the
    first sibling leaf that also covers it without enlargement, has
    room under ``capacity``, and is at least as full — after which the
    donor's radius shrinks to its remaining farthest member.  Only
    parents whose children are all leaves participate (bulk trees are
    not depth-balanced, and sibling migration below a mixed-depth
    parent would cascade slice renumbering); since siblings share a
    parent, every move rewrites just that parent's slice of the element
    permutation and its children's sub-slices — ancestors see the same
    member set and keep their radii.

    Level-synchronous like the builds: each round selects every leaf's
    border member with one segmented reduction and measures all
    candidate member-to-sibling-center distances in one grouped
    :meth:`~repro.metric.base.MetricSpace.paired_distances` call
    (counted into ``stats``); only the move bookkeeping — which needs
    the sequential room/fullness state — stays a (cheap) Python loop.
    Each child donates at most one member per round.
    """
    is_leaf = tree.child_lo == tree.child_hi
    parents = [
        int(p)
        for p in np.flatnonzero(~is_leaf)
        if int(tree.child_hi[p] - tree.child_lo[p]) >= 2
        and bool(np.all(is_leaf[tree.child_lo[p] : tree.child_hi[p]]))
    ]
    if not parents:
        return 0
    parents_arr = np.array(parents, dtype=np.intp)
    k_children = tree.child_hi[parents_arr] - tree.child_lo[parents_arr]
    #: all participating leaves, parent-major in child order
    leaf_nodes = concat_ranges(tree.child_lo[parents_arr], k_children)
    #: each leaf's row range inside the flattened candidate matrix:
    #: parent block `p` is a (k, k) donor x sibling square
    block_of = np.repeat(np.arange(parents_arr.size), k_children)
    row_off = np.concatenate([[0], np.cumsum(np.repeat(k_children, k_children))])

    moves = 0
    for _ in range(max_rounds):
        sizes = (tree.elem_hi[leaf_nodes] - tree.elem_lo[leaf_nodes]).astype(np.intp)
        positions = concat_ranges(tree.elem_lo[leaf_nodes], sizes)
        far_abs = _argmax_per_segment(tree.d_elem[positions], sizes)
        far_pos = positions[far_abs]  # position of each leaf's border member
        far_id = tree.elems[far_pos]
        far_d = tree.d_elem[far_pos]
        # One grouped call: every donor's border member against every
        # sibling center of its parent (k x k per parent).
        left = np.repeat(far_id, np.repeat(k_children, k_children))
        right = tree.center[concat_ranges(
            np.repeat(tree.child_lo[parents_arr], k_children),
            np.repeat(k_children, k_children),
        )]
        if stats is not None:
            stats["distance_calls"] = stats.get("distance_calls", 0) + int(right.size)
        d_cand = space.paired_distances(left, right)

        moved = 0
        live = sizes.copy()
        #: per-leaf incoming migrants: (member id, distance to new center)
        incoming: dict[int, list[tuple[int, float]]] = {}
        outgoing: dict[int, int] = {}  # leaf row -> donated member position
        for bi, p in enumerate(parents_arr):
            k = int(k_children[bi])
            rows = np.flatnonzero(block_of == bi)
            for ai in range(k):
                a = int(rows[ai])
                if live[a] <= 1 or a in outgoing:
                    continue
                if far_d[a] < tree.radius[leaf_nodes[a]]:
                    continue  # not on the border
                row = d_cand[row_off[rows[0] + ai] : row_off[rows[0] + ai] + k]
                for ci in range(k):
                    c = int(rows[ci])
                    if c == a or live[c] >= capacity or live[c] < live[a]:
                        continue
                    if row[ci] <= tree.radius[leaf_nodes[c]]:
                        outgoing[a] = int(far_pos[a])
                        incoming.setdefault(c, []).append(
                            (int(far_id[a]), float(row[ci]))
                        )
                        live[a] -= 1
                        live[c] += 1
                        moved += 1
                        break
        if moved == 0:
            break
        moves += moved
        # Write-back, one parent slice at a time: drop donated members,
        # append migrants, re-pack the children's contiguous sub-slices
        # and shrink donor radii to their remaining farthest member.
        touched_blocks = {int(block_of[a]) for a in (*outgoing, *incoming)}
        for bi in touched_blocks:
            rows = np.flatnonzero(block_of == bi)
            new_ids: list[np.ndarray] = []
            new_ds: list[np.ndarray] = []
            for a in rows:
                a = int(a)
                leaf = int(leaf_nodes[a])
                lo, hi = int(tree.elem_lo[leaf]), int(tree.elem_hi[leaf])
                # copies, not views: the cursor re-pack below writes
                # into the very positions these slices occupy
                ids_a = tree.elems[lo:hi].copy()
                ds_a = tree.d_elem[lo:hi].copy()
                if a in outgoing:
                    keep = np.arange(lo, hi) != outgoing[a]
                    ids_a, ds_a = ids_a[keep], ds_a[keep]
                if a in incoming:
                    add = incoming[a]
                    ids_a = np.concatenate([ids_a, [m for m, _ in add]])
                    ds_a = np.concatenate([ds_a, [d for _, d in add]])
                if a in outgoing:
                    # Shrink to the remaining farthest member — after
                    # appending migrants: a leaf that both donates and
                    # receives this round must still cover its arrivals.
                    tree.radius[leaf] = float(ds_a.max())
                new_ids.append(np.asarray(ids_a, dtype=np.intp))
                new_ds.append(np.asarray(ds_a, dtype=np.float64))
            cursor = int(tree.elem_lo[int(parents_arr[bi])])
            for a, ids_a, ds_a in zip(rows, new_ids, new_ds):
                leaf = int(leaf_nodes[int(a)])
                k = ids_a.size
                tree.elems[cursor : cursor + k] = ids_a
                tree.d_elem[cursor : cursor + k] = ds_a
                tree.elem_lo[leaf], tree.elem_hi[leaf] = cursor, cursor + k
                tree.size[leaf] = k
                cursor += k
    if moves:
        # The walks' lazy leaf-filter / rect-kernel / scan caches
        # snapshot elems/d_elem; drop them in case a query already ran.
        tree._leaf_cache = None
        tree._rect_cache = None
        tree._scan_cache = None
    return moves
