"""The batch query executor: plans and runs neighborhood workloads.

McCatch's cost is dominated by the SELFJOINC of Alg. 2 — every point
range-counted at every radius of the ladder.  Executed naively that is
``n × a`` independent tree descents.  :class:`BatchQueryEngine` turns
the same workload into *one* descent per point that answers all radii
at once (``MetricIndex.count_within_many`` — on the metric trees a
single multi-radius walk over their
:class:`~repro.index.base.FlatTree` arrays, with every leaf bucket a
slice of the shared element permutation), with chunked
pairwise-distance blocks on the brute-force/vector path, and owns the
paper's Sec. IV-G scheduling principles (sparse-focused,
small-radii-only).

Two execution modes, selected at construction:

- ``"batched"`` (default) — multi-radius single-walk queries.  The
  sparse-focused principle runs at *radius-block* granularity: the
  ladder is processed a few rungs at a time, each block as one
  multi-radius walk over the still-active points, and a point whose
  count exceeded ``c`` inside a block is dropped before the next —
  so the expensive top-of-the-ladder rungs are only ever joined for
  still-sparse points, preserving the principle's distance savings.
  Entries the per-point schedule would never have computed (the tail
  of the block where a point first exceeded ``c``) are blanked, so
  outputs are bit-for-bit identical to ``"per_point"``.
- ``"per_point"`` — the reference executor: one ``count_within`` pass
  per radius with the literal active-set recursion.  Kept for
  differential testing and for the ablation benches that measure what
  batching buys.
- ``"parallel"`` — the batched plan with the multi-radius walks
  sharded across a persistent worker pool
  (:class:`repro.engine.parallel.ShardedWalkExecutor`): the query-id
  set splits into contiguous shards, every worker walks its shards
  over the *same* flat arrays (threads share them in place for vector
  data; for object metrics, process workers attach to an mmap
  artifact), and the per-shard count matrices stack back in shard
  order.  Counts are bit-identical to ``"batched"`` for any worker
  count.  Requires a flat-backed index; anything else (scipy's
  cKDTree, brute force) falls back to the serial batched plan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.base import UNKNOWN_COUNT, MetricIndex, check_radii_ascending
from repro.obs import hooks as _obs_hooks

#: Execution modes understood by :class:`BatchQueryEngine`.
ENGINE_MODES = ("batched", "per_point", "parallel")

#: Ladder rungs each batched SELFJOINC walk answers before the
#: sparse-focused drop (batched/parallel modes).  Wider blocks share
#: one descent across more rungs; narrower ones drop dense points
#: sooner.  On ``make_last_names(400, 20)`` under Levenshtein (VP-tree,
#: 2-vCPU VM), blocks of 4 took 273k distance evaluations and 16.2 s
#: where one rung per walk took 505k evaluations and 24.9 s.
RADIUS_BLOCK_SIZE = 4


def check_engine_mode(mode: str) -> str:
    """Validate an engine mode name, returning it unchanged."""
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; choose from {ENGINE_MODES}")
    return mode


def _record_count(queries: int, radii: int) -> None:
    """Tally one count call (``queries x radii`` cells) into the process
    engine sink when telemetry is on (:mod:`repro.obs.hooks`)."""
    sink = _obs_hooks.ENGINE
    if sink is not None:
        sink.bump(count_calls=1, count_queries=queries, count_entries=queries * radii)


class BatchQueryEngine:
    """Batch executor for neighborhood workloads over a :class:`MetricIndex`.

    Parameters
    ----------
    index:
        Any index from :mod:`repro.index`; the engine only relies on
        the :class:`MetricIndex` protocol.
    mode:
        ``"batched"`` (default), ``"per_point"``, or ``"parallel"`` —
        see module docstring.  All modes produce identical results;
        only the execution plan differs.
    workers:
        Worker-pool size for ``mode="parallel"`` (default: the usable
        core count — see
        :class:`~repro.engine.parallel.ShardedWalkExecutor`).  Ignored
        by the serial modes.
    """

    def __init__(
        self,
        index: MetricIndex,
        *,
        mode: str = "batched",
        workers: int | None = None,
    ):
        self.index = index
        self.mode = check_engine_mode(mode)
        self.workers = workers
        self._sharded = None
        if self.mode == "parallel":
            from repro.engine.parallel import ShardedWalkExecutor, supports_sharding

            # Parallel mode needs FlatTree storage to share across the
            # pool; for any other index the batched serial plan is the
            # best this engine can do, so fall back to it rather than
            # failing a workload that would still run correctly.
            if supports_sharding(index):
                self._sharded = ShardedWalkExecutor(index, workers=workers)
        # Flat-backed trees (anything carrying a FlatTree, including a
        # loaded FrozenIndex) override count_within_many with one
        # multi-radius walk over their arrays, so the batched schedule
        # pays off.  An index that only inherits the generic
        # count_within_many (one count_within pass per radius) gains
        # nothing from it — and would lose the fine-grained
        # sparse-focused shrinkage — so scheduling decisions fall back
        # to the per-point plan for it.  scipy's CKDTreeIndex (the
        # Euclidean "auto" default) is the prominent case.
        self._walks_batched = (
            type(index).count_within_many is not MetricIndex.count_within_many
        )

    def __repr__(self) -> str:
        return f"BatchQueryEngine({type(self.index).__name__}, mode={self.mode!r})"

    # -- primitive: multi-radius counts -----------------------------------

    def multi_radius_counts(
        self,
        query_ids: Sequence[int] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Counts for every query at every radius: a ``(q, a)`` matrix.

        No scheduling principles applied — every entry is computed.
        Batched mode issues one multi-radius descent per query;
        parallel mode shards those descents across the worker pool;
        per-point mode stacks one ``count_within`` pass per radius.
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        if self.mode == "per_point":
            out = np.empty((query_ids.size, radii.size), dtype=np.int64)
            for e in range(radii.size):
                out[:, e] = self._count_single(query_ids, float(radii[e]))
            return out
        _record_count(query_ids.size, radii.size)
        if self._sharded is not None:
            return np.asarray(
                self._sharded.count_within_many(query_ids, radii), dtype=np.int64
            )
        return np.asarray(
            self.index.count_within_many(query_ids, radii), dtype=np.int64
        )

    def _count_single(self, query_ids, radius: float) -> np.ndarray:
        """One-radius counts through the index."""
        _record_count(np.size(query_ids), 1)
        return self.index.count_within(query_ids, float(radius))

    # -- SELFJOINC (Alg. 2) ------------------------------------------------

    def self_join_counts(
        self,
        radii: Sequence[float] | np.ndarray,
        *,
        max_cardinality: int | None = None,
        sparse_focused: bool = True,
        small_radii_only: bool = True,
    ) -> np.ndarray:
        """Neighbor counts (+ self) for every indexed point at every radius.

        ``radii`` is the strictly increasing ladder of Alg. 1 line 3;
        the result is an ``(n, a)`` int array in ``index.ids`` order.
        ``UNKNOWN_COUNT`` (-1) marks the entries never joined: with
        ``sparse_focused``, a point whose count at radius ``r_{e-1}``
        already exceeds ``max_cardinality`` is unknown at every later
        radius (its further counts could only describe clusters too big
        to be microclusters), and with ``small_radii_only`` the top
        radius is never joined — still-tracked points get ``n`` there,
        the rest stay unknown.
        """
        radii = np.asarray(radii, dtype=np.float64)
        if radii.size < 2:
            raise ValueError("need at least two radii")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if self.mode == "per_point" or not self._walks_batched:
            return self._self_join_counts_per_point(
                radii,
                max_cardinality=max_cardinality,
                sparse_focused=sparse_focused,
                small_radii_only=small_radii_only,
            )
        index = self.index
        n = len(index)
        a = radii.size
        counts = np.full((n, a), UNKNOWN_COUNT, dtype=np.int64)
        joined = a - 1 if small_radii_only else a  # columns actually joined
        if not (sparse_focused and max_cardinality is not None):
            counts[:, :joined] = self.multi_radius_counts(index.ids, radii[:joined])
            if small_radii_only:
                counts[:, a - 1] = n
            return counts
        # Sparse-focused, block-batched: each block of rungs is one
        # multi-radius walk over the still-active points; points whose
        # count exceeded c inside a block are dropped before the next,
        # and the block tail past a point's first exceed is blanked so
        # the output matches the per-point schedule exactly.
        active = np.arange(n)  # positions still being tracked
        for start in range(0, joined, RADIUS_BLOCK_SIZE):
            if active.size == 0:
                break
            stop = min(start + RADIUS_BLOCK_SIZE, joined)
            block = self.multi_radius_counts(index.ids[active], radii[start:stop])
            exceeded = block > max_cardinality
            # A rung is known iff no earlier rung of this block exceeded
            # c (earlier blocks already dropped prior exceeders).
            prior_exceed = np.cumsum(exceeded, axis=1) - exceeded
            counts[np.ix_(active, np.arange(start, stop))] = np.where(
                prior_exceed == 0, block, UNKNOWN_COUNT
            )
            active = active[~exceeded.any(axis=1)]
        if small_radii_only:
            counts[active, a - 1] = n
        return counts

    def _self_join_counts_per_point(
        self,
        radii: np.ndarray,
        *,
        max_cardinality: int | None,
        sparse_focused: bool,
        small_radii_only: bool,
    ) -> np.ndarray:
        """Reference executor: the literal per-radius active-set recursion."""
        index = self.index
        n = len(index)
        a = radii.size
        counts = np.full((n, a), UNKNOWN_COUNT, dtype=np.int64)
        active = np.arange(n)  # positions (not ids) still being tracked
        for e in range(a):
            if small_radii_only and e == a - 1:
                # Small-radii-only principle: at r_a = l everything is a
                # neighbor of everything, no join needed.
                counts[active, e] = n
                break
            if active.size == 0:
                break
            counts[active, e] = self._count_single(index.ids[active], float(radii[e]))
            if sparse_focused and max_cardinality is not None:
                active = active[counts[active, e] <= max_cardinality]
        return counts

    # -- JOINC (Alg. 4) ----------------------------------------------------

    def join_counts(
        self, query_ids: Sequence[int] | np.ndarray, radius: float
    ) -> np.ndarray:
        """Per-query counts of indexed elements within one radius."""
        return self._count_single(np.asarray(query_ids, dtype=np.intp), float(radius))

    def first_nonempty_radius(
        self,
        query_ids: Sequence[int] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Per query, the smallest radius position with any indexed neighbor.

        Returns an ``(q,)`` int array: the first ``e`` with a count
        ``> 0``, or ``-1`` when no radius of the ladder reaches an
        indexed element.  This is the ladder scan of Alg. 4 lines 3-12
        (each outlier probed rung by rung until an inlier appears),
        executed as one batched multi-radius query in batched mode and
        as the literal shrinking-set rung loop in per-point mode.
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        first = np.full(query_ids.size, -1, dtype=np.intp)
        if query_ids.size == 0:
            return first
        if self.mode != "per_point" and self._walks_batched:
            found = self.multi_radius_counts(query_ids, radii) > 0
            has_any = found.any(axis=1)
            first[has_any] = np.argmax(found[has_any], axis=1)
            return first
        remaining = np.arange(query_ids.size)
        for e in range(radii.size):
            if remaining.size == 0:
                break
            f = self.join_counts(query_ids[remaining], float(radii[e]))
            hit = f > 0
            first[remaining[hit]] = e
            remaining = remaining[~hit]
        return first

    # -- SELFJOIN (Alg. 3) -------------------------------------------------

    def pairs(self, radius: float) -> list[tuple[int, int]]:
        """Materialized self-join: unordered id pairs within ``radius``.

        Only used on small sets (the outliers of Alg. 3 line 12);
        delegates to the index, whose default is adequate there.
        """
        return self.index.pairs_within(float(radius))

    # -- single-radius sweeps (baselines) ----------------------------------

    def count_all_within(self, radius: float) -> np.ndarray:
        """Neighbor count (+ self) of every indexed point at one radius.

        The whole-dataset range-count sweep baselines like DB-Out need;
        one chunked/compiled pass, no per-point Python loop.
        """
        return self._count_single(self.index.ids, float(radius))
