"""The batch query executor: plans and runs neighborhood workloads.

McCatch's cost is dominated by the SELFJOINC of Alg. 2 — every point
range-counted at every radius of the ladder — under the sparse-focused
principle of Sec. IV-G: a point stops being joined once its count
exceeds ``c``.  :class:`BatchQueryEngine` runs that recursion as one
schedule loop, :func:`sparse_focused_schedule`: each walk answers the
next ``width`` rungs for the points still active, and a point whose
count exceeded ``c`` is dropped before the next walk.

The width follows the input (:meth:`BatchQueryEngine.rungs_per_walk`;
measurements in the :data:`RADIUS_BLOCK_SIZE` comment):

- one rung per walk — the literal Alg. 2 recursion — for a flat tree
  over vector data whenever the C kernel runs (its count walk answers
  one radius per call); without the kernel, where the numpy walk's
  float32 rect leaf kernel settles single-rung leaves (a space whose
  ``float32_coords()`` is not ``None``: Euclidean vectors of at most 64
  dims); for an index without a multi-radius walk (``"ckdtree"``);
  and in ``mode="per_point"``;
- blocks of :data:`RADIUS_BLOCK_SIZE` rungs everywhere else.  Brute
  force shares one distance block across the radii of a call; object
  metrics (and, without the kernel, the other vector metrics) share the
  upper-level distances of one descent.  Cells of a block past a
  point's first exceed are blanked to ``UNKNOWN_COUNT``, so the counts
  equal the one-rung recursion bit for bit.

Three modes, selected at construction:

- ``"batched"`` (default) — the schedule above, serial.
- ``"per_point"`` — one rung per walk on every index, and the literal
  shrinking-set rung loop in :meth:`~BatchQueryEngine.first_nonempty_radius`.
  Kept for differential testing.
- ``"parallel"`` — the schedule sharded across a persistent worker pool
  (:class:`repro.engine.parallel.ShardedWalkExecutor`): the query-id
  set splits into contiguous shards, and each shard runs the *whole*
  schedule — every walk, its own drops — as one pool task over the
  *same* flat arrays (threads share them in place; for object metrics,
  process workers attach to an mmap artifact).  Rows are independent,
  so the stacked counts are bit-identical to ``"batched"`` for any
  worker or shard count.  Requires a flat-backed index; anything else
  (an explicit cKDTree, brute force) falls back to the serial plan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.base import UNKNOWN_COUNT, MetricIndex, check_radii_ascending
from repro.index.ckernel import kernel_available
from repro.obs import hooks as _obs_hooks

#: Execution modes understood by :class:`BatchQueryEngine`.
ENGINE_MODES = ("batched", "per_point", "parallel")

#: Ladder rungs one sparse-focused SELFJOINC walk answers where a
#: multi-rung walk pays (:meth:`BatchQueryEngine.rungs_per_walk`):
#: object metrics, brute force, and vector metrics the numpy walk's
#: rect kernel does not cover when the C kernel is off.  Wider blocks
#: share one descent across more rungs; one rung per walk drops dense
#: points sooner.  Serial SELFJOINC on a VP-tree, c = 10% of n, 2-vCPU
#: VM, counts identical across plans (blocks of 4 -> one rung per walk).
#:
#: The compiled count walk answers one radius per kernel call, so a
#: block only delays the drops (best of 2):
#:
#: - ``make_http_like(10_000)``, 3-d Euclidean: 0.46 -> 0.33 s; same
#:   data under cityblock: 0.62 -> 0.46 s; ball / M- / cover tree:
#:   1.04 / 0.77 / 0.61 -> 0.88 / 0.52 / 0.43 s
#: - uniform 2-d n=10k: 0.25 -> 0.19 s
#: - clustered n=5k, Euclidean 20-d / 30-d / 50-d / 64-d: 0.39 / 0.94 /
#:   1.31 / 2.00 -> 0.32 / 0.73 / 0.97 / 1.67 s; 65-d / 80-d / 100-d:
#:   2.32 / 3.61 / 2.77 -> 2.15 / 2.98 / 2.82 s
#: - clustered n=5k cityblock, 20-d / 64-d: 0.41 / 1.75 -> 0.31 / 1.35 s
#:
#: The numpy level walk, measured before the compiled count walk, where
#: blocks still pay:
#:
#: - clustered 65-d / 80-d / 100-d Euclidean: 3.03 / 4.00 / 5.11 ->
#:   8.11 / 8.93 / 11.53 s (one rung pays only where the float32 rect
#:   kernel applies: 2.31 -> 1.11 s on ``make_http_like``)
#: - clustered 20-d / 64-d cityblock: 1.55 / 6.08 -> 3.77 / 13.22 s
#: - whole fit of ``make_last_names(400, 20)``, Levenshtein: 20.4 s and
#:   312k distance evaluations -> 37.5 s and 545k
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


def sparse_focused_schedule(
    count, query_ids: np.ndarray, radii: np.ndarray, max_cardinality: int | None, width: int
) -> np.ndarray:
    """Alg. 2's SELFJOINC recursion over one query set, ``width`` rungs per walk.

    ``count(ids, radii)`` answers one walk's ``(q, w)`` count matrix.
    Each walk covers the next ``width`` rungs of ``radii`` for the rows
    still active; a row whose count exceeded ``max_cardinality`` is
    dropped before the next walk, and the cells of its walk past that
    rung are blanked to ``UNKNOWN_COUNT``, so the ``(q, a)`` result
    equals the one-rung recursion for every width.  ``max_cardinality
    None`` drops nothing.  Rows are independent: any split of
    ``query_ids`` stacks back to the same matrix.
    """
    out = np.full((query_ids.size, radii.size), UNKNOWN_COUNT, dtype=np.int64)
    active = np.arange(query_ids.size)  # rows still being joined
    for start in range(0, radii.size, width):
        if active.size == 0:
            break
        stop = min(start + width, radii.size)
        block = np.asarray(count(query_ids[active], radii[start:stop]), dtype=np.int64)
        if max_cardinality is None:
            out[active, start:stop] = block
            continue
        exceeded = block > max_cardinality
        if width > 1:
            # A rung is known iff no earlier rung of this walk exceeded
            # c (earlier walks already dropped prior exceeders).
            prior_exceed = np.cumsum(exceeded, axis=1) - exceeded
            block = np.where(prior_exceed == 0, block, UNKNOWN_COUNT)
        out[active, start:stop] = block
        active = active[~exceeded.any(axis=1)]
    return out


def _record_schedule(counts: np.ndarray, width: int) -> None:
    """Tally the walks and cells a :func:`sparse_focused_schedule` run
    computed into the engine sink, read off the ``counts`` it returned
    (process shards cannot reach this process's sink).

    A row's known cells form a prefix; the row took part in every walk
    up to the one holding its last known cell, and each of those walks
    computed ``width`` cells for it (the last clipped to the ladder).
    """
    sink = _obs_hooks.ENGINE
    if sink is None or counts.shape[0] == 0:
        return
    walks = -(-np.count_nonzero(counts != UNKNOWN_COUNT, axis=1) // width)
    sink.bump(
        count_calls=int(walks.max()),
        count_queries=int(walks.sum()),
        count_entries=int(np.minimum(walks * width, counts.shape[1]).sum()),
    )


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
        from repro.engine.parallel import ShardedWalkExecutor, supports_sharding

        self.index = index
        self.mode = check_engine_mode(mode)
        self.workers = workers
        # FlatTree storage (every metric tree, and a loaded FrozenIndex)
        # is what a worker pool shares and what the rect leaf kernel
        # walks.
        self._flat = supports_sharding(index)
        # Parallel mode over any other index falls back to the serial
        # plan rather than failing a workload that still runs correctly.
        self._sharded = None
        if self.mode == "parallel" and self._flat:
            self._sharded = ShardedWalkExecutor(index, workers=workers)
        # An index that only inherits the generic count_within_many (one
        # count_within pass per radius) gains nothing from multi-rung
        # walks and would lose the per-rung sparse-focused drops, so it
        # is scheduled one rung at a time: scipy's CKDTreeIndex, when
        # asked for by name.
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
        Batched mode answers every radius in one walk (parallel mode:
        one walk per shard); per-point mode walks one radius at a time.
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        width = 1 if self.mode == "per_point" else radii.size
        return self._schedule(query_ids, radii, None, width)

    def _schedule(self, query_ids, radii, max_cardinality, width) -> np.ndarray:
        """:func:`sparse_focused_schedule` through the index (or its
        shards), tallied into the engine sink."""
        if self._sharded is not None:
            counts = self._sharded.schedule_counts(
                query_ids, radii, max_cardinality=max_cardinality, width=width
            )
        else:
            counts = sparse_focused_schedule(
                self.index.count_within_many, query_ids, radii, max_cardinality, width
            )
        _record_schedule(counts, width)
        return counts

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
        index = self.index
        n = len(index)
        a = radii.size
        joined = a - 1 if small_radii_only else a  # columns actually joined
        c = max_cardinality if sparse_focused else None
        if c is None:  # nothing is dropped: every cell is computed
            block = self.multi_radius_counts(index.ids, radii[:joined])
        else:
            block = self._schedule(index.ids, radii[:joined], c, self.rungs_per_walk())
        counts = np.full((n, a), UNKNOWN_COUNT, dtype=np.int64)
        counts[:, :joined] = block
        if small_radii_only:
            # Small-radii-only principle: at r_a = l everything is a
            # neighbor of everything, so still-tracked points get n
            # without a join.
            tracked = block[:, -1] != UNKNOWN_COUNT
            if c is not None:
                tracked &= block[:, -1] <= c
            counts[tracked, a - 1] = n
        return counts

    def rungs_per_walk(self) -> int:
        """Rungs one sparse-focused SELFJOINC walk answers.

        1 for a flat tree over a vector space whenever the C kernel runs
        (its count walk answers one radius per call, so a block would
        only delay the drops); without the kernel, 1 where the numpy
        walk's float32 rect leaf kernel settles single-rung leaves (a
        ``float32_coords()`` view: Euclidean, at most 64 dims).  Also 1
        for an index without a multi-radius walk and in ``"per_point"``
        mode; :data:`RADIUS_BLOCK_SIZE` otherwise (object metrics, brute
        force, the numpy walk over other vector spaces).
        """
        if self.mode == "per_point" or not self._walks_batched:
            return 1
        if self._flat:
            space = self.index.space
            if space.is_vector and kernel_available():
                return 1
            if space.float32_coords() is not None:
                return 1
        return RADIUS_BLOCK_SIZE

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
