"""Parallel sharded frontier walks: multi-worker range counting.

Every metric tree stores a :class:`~repro.index.base.FlatTree` —
primitive read-only arrays — and the serving layer maps those arrays
straight off an uncompressed ``.npz`` (:mod:`repro.io.mmap`).  Together they enable
the classic shared-nothing fan-out of tree-backed similarity systems:
*shard the queries, share the index*.  :class:`ShardedWalkExecutor`
splits the query-id set into contiguous shards and runs, per shard, one
pool task: the whole sparse-focused SELFJOINC schedule of
:func:`repro.engine.executor.sparse_focused_schedule` (every walk of
the ladder, with the shard's own drops) over
:func:`~repro.index.base.count_walk`.  The per-shard count matrices
stack back in shard order.  A plain multi-radius count is the same
task with one walk and no drops.

The pool follows the data, with nothing to configure:

- threads for vector spaces — workers share the live index; the
  compiled count walk (one GIL-free kernel call per radius) and the
  bulk einsum/BLAS blocks release the GIL, so threads scale without
  copying anything;
- processes for object metrics (edit distance, TED — Python loops that
  hold the GIL) — workers *attach* to an index artifact the executor
  publishes, via the zip-offset mmap path
  (:func:`repro.io.mmap.open_npz_mmap`), instead of receiving pickled
  arrays: every worker process maps the same physical pages, so an
  index is stored once no matter how many workers count over it.  Only
  the shard ids, the radius ladder and the element payload the
  artifact cannot embed cross the process boundary, once per shard.  A
  metric that cannot be pickled (a lambda, a closure) cannot reach a
  worker process, so its space runs on threads instead.

Sharding is exact, not approximate: each query row of the count matrix
depends only on that query (the einsum bulk kernel is bitwise
shape-independent — see :meth:`repro.metric.vector.VectorMetric.bulk`,
and a row's drops depend only on its own counts), so the stacked shard
results are bit-identical to one serial schedule for *any* shard count
and worker count.  The differential tests in
``tests/test_parallel_walk.py`` pin exactly that.

Pools are process-global and persistent: one pool per
``(pool kind, workers)`` configuration, reused across executors,
engines, and fits, shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
import shutil
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.engine.executor import sparse_focused_schedule
from repro.index.base import FlatTree, check_radii_ascending, count_walk
from repro.metric.base import MetricSpace

#: Shards-per-worker oversubscription for schedules that walk several
#: rungs at a time: frontier walks cost different amounts per query
#: (dense regions prune less), so a few shards per worker lets fast
#: workers absorb the stragglers' tail.  A one-rung schedule walks
#: every rung, and each walk still pays a fixed cost in Python under
#: the GIL (the schedule step, the walk's setup and one kernel call per
#: rung), so it runs one shard per worker instead.  Sharded one-rung
#: SELFJOINC with the compiled count walk, VP-tree, 2-vCPU VM, best of
#: 3, one -> four shards per worker (serial): uniform 2-d n=2k 16 / 23
#: / 44 -> 38 / 51 / 104 ms at 2 / 4 / 8 workers (25 ms); n=10k 153 /
#: 139 / 158 -> 134 / 162 / 279 ms (277 ms); ``make_http_like(10_000)``
#: 232 / 304 / 296 -> 308 / 287 / 315 ms (420 ms).  Blocks of 4 rungs
#: (object metrics, and other vector metrics without the kernel) keep 4
#: shards per worker: one per worker took 2.0-2.4 s against 1.76-1.92 s
#: on clustered 80-d data and 1.59-1.63 s against 1.33-1.60 s on 20-d
#: cityblock (n=5k, 2 workers, measured before the compiled count
#: walk).
OVERSHARD = 4

#: Fewest queries a thread-backed shard of a one-rung schedule may
#: hold; smaller query sets run fewer shards, or inline.  Every walk of
#: a shard pays a fixed cost (its Python setup, and the GIL hand-offs
#: between threads), which a query repays rung by rung, so a walk
#: answering ``w`` rungs at once needs only ``MIN_SHARD_QUERIES / w``
#: queries per shard.  Two threads against one inline schedule of twice
#: the queries, compiled count walk, VP-tree, 14 rungs, 2-vCPU VM, best
#: of 9 (shard size: two-shard / inline time):
#:
#: - one-rung SELFJOINC, uniform 2-d n=10k: 64: 2.11, 128: 1.25,
#:   256: 0.98, 512: 0.62, 1024: 0.56; ``make_http_like(10_000)``:
#:   64: 1.46, 128: 1.11, 256: 1.03, 512: 0.56, 1024: 0.85;
#: - one 15-radius walk (Alg. 4's ladder scan), ``make_http_like``:
#:   16: 1.83, 32: 1.01, 64: 0.89, 512: 0.68.
#:
#: With the numpy level walk each walk cost more fixed Python, and the
#: same one-rung split broke even near 700 queries (uniform 2-d 512:
#: 1.30, 1024: 0.83), so the minimum was 1,024.  Process-backed shards
#: (object metrics) are exempt: each query costs Python metric calls,
#: far above a walk's fixed cost (Levenshtein names, n=210, blocks of
#: 4: 5.6 s inline, 3.8 s as 8 shards of ~26 over 2 processes).  Rows
#: are independent, so no count depends on it.
MIN_SHARD_QUERIES = 512


def default_workers() -> int:
    """Worker count used when none is requested: the usable core count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def supports_sharding(index) -> bool:
    """True when ``index`` carries :class:`FlatTree` storage."""
    return isinstance(getattr(index, "flat", None), FlatTree)


def _pickles(obj) -> bool:
    """True when ``obj`` survives ``pickle.dumps`` (can reach a worker process)."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError):
        # lambdas, local functions, objects holding locks or handles
        return False
    return True


# -- persistent pools --------------------------------------------------------

_POOLS: dict[tuple[str, int], object] = {}


def _get_pool(backend: str, workers: int):
    """The process-global pool for one ``(backend, workers)`` configuration."""
    key = (backend, workers)
    pool = _POOLS.get(key)
    if pool is None:
        if backend == "thread":
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-walk"
            )
        else:
            pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every persistent worker pool (registered atexit)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


# -- worker side -------------------------------------------------------------
#
# Module-level functions so they survive pickling under any start
# method; the attached-index cache is keyed by artifact path, so one
# long-lived worker process serves any number of executors and indexes
# without re-attaching.

#: Attached-index cache, keyed by (path, inode, mtime_ns) so a path
#: that was re-published with different content (or unlinked and
#: recreated) never serves a stale mapping.  Bounded: a long-lived
#: worker serving many executors must not accumulate one FrozenIndex
#: (plus its materialized element list) per artifact it ever saw.
_ATTACHED: dict[tuple[str, int, int], object] = {}
_ATTACHED_MAX = 8


def _attached_index(path: str, items, metric):
    """The worker's FrozenIndex for one artifact, mmap-attached once."""
    stat = os.stat(path)
    key = (path, stat.st_ino, stat.st_mtime_ns)
    index = _ATTACHED.get(key)
    if index is None:
        from repro.io.indexes import frozen_from_payload
        from repro.io.mmap import open_npz_mmap

        index = frozen_from_payload(open_npz_mmap(path), MetricSpace(items, metric))
        while len(_ATTACHED) >= _ATTACHED_MAX:
            _ATTACHED.pop(next(iter(_ATTACHED)))  # oldest insertion first
        _ATTACHED[key] = index
    return index


def _walk_schedule(space, flat, query_ids, radii, max_cardinality, width) -> np.ndarray:
    """One query shard's whole schedule, every walk over ``flat``."""

    def walk(ids, rungs):
        return count_walk(space, ids, rungs, flat)

    return sparse_focused_schedule(walk, query_ids, radii, max_cardinality, width)


def _schedule_shard_attached(
    path, items, metric, query_ids, radii, max_cardinality, width
) -> np.ndarray:
    """:func:`_walk_schedule` over the mmap-attached artifact (process workers)."""
    index = _attached_index(path, items, metric)
    return _walk_schedule(index.space, index.flat, query_ids, radii, max_cardinality, width)


def _is_mmap_backed(arr) -> bool:
    """True when the array's memory ultimately comes from an ``np.memmap``.

    ``np.asarray`` strips the memmap subclass but keeps the mapped
    buffer, so the honest check walks the ``base`` chain instead of
    testing the instance type.
    """
    node = arr
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = getattr(node, "base", None)
    return False


def attachment_report(path, items, metric) -> dict:
    """How a worker sees one artifact (diagnostic / test hook).

    Submitted through the process pool, the report proves workers
    attach to the published archive rather than materializing copies:
    ``tree_mmap`` is True iff the walk's arrays are views of the mapped
    file, and ``pid`` identifies the worker.
    """
    index = _attached_index(path, items, metric)
    flat = index.flat
    tree_mmap = all(
        _is_mmap_backed(a)
        for a in (flat.center, flat.radius, flat.elems, flat.child_lo)
    )
    return {"pid": os.getpid(), "tree_mmap": tree_mmap, "n": len(index)}


# -- the executor ------------------------------------------------------------


class ShardedWalkExecutor:
    """Multi-worker count schedules over one flat-backed index.

    Parameters
    ----------
    index:
        Any index carrying :class:`FlatTree` storage (the metric trees
        and :class:`~repro.index.base.FrozenIndex`); see
        :func:`supports_sharding`.
    workers:
        Worker count (default: the usable core count).  ``workers=1``
        runs the serial schedule inline — no pool, no overhead, so a
        single-worker configuration never regresses the serial path.

    Each query batch splits into ``OVERSHARD * workers`` shards (one per
    worker for a one-rung schedule; capped at the batch size, and on
    threads by :data:`MIN_SHARD_QUERIES`), one pool task each.
    ``backend`` records the pool the space selected: ``"process"`` for
    an object space whose metric pickles, ``"thread"`` otherwise (see
    the module docstring).
    """

    def __init__(self, index, *, workers: int | None = None):
        if not supports_sharding(index):
            raise TypeError(
                f"{type(index).__name__} has no FlatTree storage to share "
                "across workers; sharded walks need a metric tree or a "
                "FrozenIndex"
            )
        self.index = index
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        space = index.space
        processes = not space.is_vector and _pickles(space.metric)
        self.backend = "process" if processes else "thread"
        self._artifact: Path | None = None
        self._finalizer = None

    # -- artifact publication ------------------------------------------------

    @property
    def artifact(self) -> Path | None:
        """The archive process workers attach to (``None`` for threads).

        Lazily self-published into a fresh temporary directory via
        :func:`repro.io.indexes.save_index` — uncompressed, so the
        zip-offset mmap path applies — and removed with the executor.
        """
        if self.backend != "process":
            return None
        if self._artifact is None:
            from repro.io.indexes import save_index

            directory = tempfile.mkdtemp(prefix="repro-sharded-walk-")
            path = Path(directory) / "index.npz"
            save_index(self.index, path)
            self._artifact = path
            self._finalizer = weakref.finalize(self, shutil.rmtree, directory, True)
        return self._artifact

    def close(self) -> None:
        """Remove the self-published artifact, if any (pools are shared
        process-globals and stay up; see :func:`shutdown_pools`)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._artifact = None

    def __enter__(self) -> "ShardedWalkExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------------

    def schedule_counts(
        self,
        query_ids: Sequence[int] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
        *,
        max_cardinality: int | None,
        width: int,
    ) -> np.ndarray:
        """:func:`~repro.engine.executor.sparse_focused_schedule`, one
        pool task per shard.

        The query ids split into contiguous shards — ``OVERSHARD *
        workers`` of them, or one per worker for a one-rung schedule
        (see :data:`OVERSHARD`), capped at the query count and, on
        threads, at ``queries * width // MIN_SHARD_QUERIES`` (see
        :data:`MIN_SHARD_QUERIES`); one shard runs inline.  Each task
        runs the whole schedule for its shard and the results stack in
        shard order, bit-identical to one serial schedule for every
        shard count and worker count (see module docstring).
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        space, flat = self.index.space, self.index.flat
        task = (radii, max_cardinality, width)
        per_worker = OVERSHARD if width > 1 else 1
        k = min(per_worker * self.workers, query_ids.size)
        if self.backend == "thread":
            k = min(k, query_ids.size * width // MIN_SHARD_QUERIES)
        if self.workers == 1 or k <= 1:
            return _walk_schedule(space, flat, query_ids, *task)
        shards = np.array_split(query_ids, k)
        if self.backend == "thread":
            pool = _get_pool("thread", self.workers)
            futures = [pool.submit(_walk_schedule, space, flat, shard, *task) for shard in shards]
        else:
            path, items = str(self.artifact), list(space.data)
            pool = _get_pool("process", self.workers)
            futures = [
                pool.submit(_schedule_shard_attached, path, items, space.metric, shard, *task)
                for shard in shards
            ]
        return np.vstack([f.result() for f in futures])

    def count_within_many(
        self,
        query_ids: Sequence[int] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """The ``(q, a)`` count matrix: every radius in one walk per shard."""
        radii = check_radii_ascending(radii)
        return self.schedule_counts(query_ids, radii, max_cardinality=None, width=radii.size)

    def count_within(
        self, query_ids: Sequence[int] | np.ndarray, radius: float
    ) -> np.ndarray:
        """Single-radius counts (the :class:`MetricIndex` signature)."""
        counts = self.count_within_many(query_ids, np.array([float(radius)]))
        return counts[:, 0].astype(np.intp)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedWalkExecutor({type(self.index).__name__}, "
            f"workers={self.workers}, backend={self.backend!r})"
        )
