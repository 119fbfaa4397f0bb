"""Parallel sharded frontier walks: multi-worker range counting.

The flat refactor (PR 2) reduced every metric tree to a
:class:`~repro.index.base.FlatTree` — primitive read-only arrays — and
the serving layer (PR 3) made those arrays memory-mappable straight off
an uncompressed ``.npz`` (:mod:`repro.io.mmap`).  Together they enable
the classic shared-nothing fan-out of tree-backed similarity systems:
*shard the work, share the index*.  :class:`ShardedWalkExecutor`
supports two sharding axes:

- ``shard_by="query"`` (default) splits the query-id set into
  contiguous shards and runs one
  :func:`~repro.index.base.level_count_walk` per shard, then stacks
  the per-shard count matrices in shard order.
- ``shard_by="tree"`` opens the top of the tree once
  (:func:`~repro.index.base.open_tree_frontier`), splits the resulting
  :class:`~repro.index.base.WalkFrontier` into disjoint contiguous
  node ranges (:func:`~repro.index.base.split_frontier`) and resumes
  one walk per range — every worker touches a disjoint region of the
  tree arrays, and the per-range count matrices plus the partial
  accumulated while opening *sum* to the serial result (scatters are
  integer adds; the final cumsum is linear).

Two pool backends, chosen by the metric:

- ``"thread"`` (vector spaces) — workers share the live index; the
  walk's bulk einsum/BLAS blocks release the GIL, so threads scale
  without copying anything.
- ``"process"`` (object metrics: edit distance, TED — Python loops
  that hold the GIL) — workers *attach* to an on-disk index artifact
  via the zip-offset mmap path (:func:`repro.io.mmap.open_npz_mmap`)
  instead of receiving pickled arrays: every worker process maps the
  same physical pages, so an index is stored once no matter how many
  workers count over it.  Only the shard ids and the radius ladder
  cross the process boundary per task (plus, for object spaces, the
  element payload the artifact cannot embed).

Sharding is exact, not approximate: each query row of the count matrix
depends only on that query (the einsum bulk kernel is bitwise
shape-independent — see :meth:`repro.metric.vector.VectorMetric.bulk`),
so the stacked shard results are bit-identical to one serial walk for
*any* shard count, worker count, and backend.  The differential tests
in ``tests/test_parallel_walk.py`` pin exactly that.

Pools are process-global and persistent: one pool per
``(backend, workers)`` configuration, reused across executors, engines,
and fits, shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.index.base import (
    DEFAULT_WALK,
    FlatTree,
    WalkFrontier,
    check_radii_ascending,
    check_walk_mode,
    count_walk,
    open_tree_frontier,
    split_frontier,
)
from repro.metric.base import MetricSpace

#: Pool backends understood by :class:`ShardedWalkExecutor`.
BACKENDS = ("auto", "thread", "process")

#: Sharding axes understood by :class:`ShardedWalkExecutor`: split the
#: query set, or split the tree into disjoint subtree node ranges.
SHARD_MODES = ("query", "tree")

#: Default shards-per-worker oversubscription: frontier walks cost
#: different amounts per query (dense regions prune less), so a few
#: shards per worker lets fast workers absorb the stragglers' tail.
OVERSHARD = 4


def default_workers() -> int:
    """Worker count used when none is requested: the usable core count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def supports_sharding(index) -> bool:
    """True when ``index`` carries :class:`FlatTree` storage."""
    return isinstance(getattr(index, "flat", None), FlatTree)


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
#: (plus, for object spaces, a materialized element list) per artifact
#: it ever saw.
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

        space = None if items is None else MetricSpace(items, metric)
        index = frozen_from_payload(open_npz_mmap(path), space)
        while len(_ATTACHED) >= _ATTACHED_MAX:
            _ATTACHED.pop(next(iter(_ATTACHED)))  # oldest insertion first
        _ATTACHED[key] = index
    return index


def _count_shard_attached(
    path, items, metric, query_ids, radii, walk: str = "level"
) -> np.ndarray:
    """One query shard's count matrix, walked over the mmap-attached artifact."""
    index = _attached_index(path, items, metric)
    return count_walk(index.space, query_ids, radii, index.flat, walk=walk)


def _count_frontier_attached(
    path, items, metric, query_ids, radii, frontier: tuple, walk: str = "level"
) -> np.ndarray:
    """One subtree shard's count matrix: resume a saved frontier over
    the mmap-attached artifact (``shard_by="tree"``)."""
    index = _attached_index(path, items, metric)
    return count_walk(
        index.space, query_ids, radii, index.flat,
        walk=walk, frontier=WalkFrontier(*frontier),
    )


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


def attachment_report(path, items=None, metric=None) -> dict:
    """How a worker sees one artifact (diagnostic / test hook).

    Submitted through the process pool, the report proves workers
    attach to the published archive rather than materializing copies:
    ``tree_mmap`` / ``data_mmap`` are True iff the walk's arrays are
    views of the mapped file, and ``pid`` identifies the worker.
    """
    index = _attached_index(path, items, metric)
    flat = index.flat
    tree_mmap = all(
        _is_mmap_backed(a)
        for a in (flat.center, flat.radius, flat.elems, flat.child_lo)
    )
    data_mmap = (
        _is_mmap_backed(index.space.data) if index.space.is_vector else None
    )
    return {
        "pid": os.getpid(),
        "tree_mmap": tree_mmap,
        "data_mmap": data_mmap,
        "n": len(index),
    }


# -- the executor ------------------------------------------------------------


class ShardedWalkExecutor:
    """Multi-worker ``count_within_many`` over one flat-backed index.

    Parameters
    ----------
    index:
        Any index carrying :class:`FlatTree` storage (the metric trees
        and :class:`~repro.index.base.FrozenIndex`); see
        :func:`supports_sharding`.
    workers:
        Worker count (default: the usable core count).  ``workers=1``
        runs the serial walk inline — no pool, no overhead, so a
        single-worker configuration never regresses the serial path.
    shards:
        Shard count per query batch (default ``OVERSHARD * workers``,
        capped at the batch size).  Any value produces bit-identical
        counts; more shards only smooth load imbalance.
    backend:
        ``"auto"`` (default) picks ``"thread"`` for vector spaces —
        the bulk kernels release the GIL — and ``"process"`` for
        object metrics, whose Python-loop distances do not.
    shard_by:
        ``"query"`` (default) splits the query set across workers;
        ``"tree"`` opens the top of the tree serially, splits the
        frontier into disjoint contiguous subtree node ranges and
        resumes one walk per range, summing the results onto the
        partial counts.  Both axes are exact for any worker and shard
        count.
    artifact:
        Optional path of an already-published index archive
        (:func:`repro.io.indexes.save_index` /
        ``ModelRegistry``-style uncompressed ``.npz``) for process
        workers to attach to.  Without one, the executor publishes its
        own artifact to a temporary directory on first use.
    artifact_dir:
        Directory for the self-published artifact (default: a fresh
        temporary directory, removed with the executor).
    walk:
        Frontier-walk implementation for every shard (default: the
        index's own ``walk`` attribute, normally ``"auto"``).
    """

    def __init__(
        self,
        index,
        *,
        workers: int | None = None,
        shards: int | None = None,
        backend: str = "auto",
        shard_by: str = "query",
        artifact: str | Path | None = None,
        artifact_dir: str | Path | None = None,
        walk: str | None = None,
    ):
        if not supports_sharding(index):
            raise TypeError(
                f"{type(index).__name__} has no FlatTree storage to share "
                "across workers; sharded walks need a metric tree or a "
                "FrozenIndex"
            )
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if shard_by not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_by {shard_by!r}; choose from {SHARD_MODES}"
            )
        self.shard_by = shard_by
        self.index = index
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards is not None and int(shards) < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = None if shards is None else int(shards)
        if backend == "auto":
            backend = "thread" if index.space.is_vector else "process"
        self.backend = backend
        if walk is None:
            walk = getattr(index, "walk", DEFAULT_WALK)
        self.walk = check_walk_mode(walk)
        self._artifact = None if artifact is None else Path(artifact)
        self._artifact_dir = None if artifact_dir is None else Path(artifact_dir)
        self._owned_artifact: Path | None = None
        self._finalizer = None

    # -- artifact publication ------------------------------------------------

    @property
    def artifact(self) -> Path | None:
        """The archive process workers attach to (``None`` for threads).

        Lazily self-published via
        :func:`repro.io.indexes.save_index` — uncompressed, so the
        zip-offset mmap path applies — unless the constructor was
        handed an existing artifact.
        """
        if self.backend != "process":
            return None
        if self._artifact is None:
            from repro.io.indexes import save_index

            directory = self._artifact_dir
            if directory is None:
                directory = Path(tempfile.mkdtemp(prefix="repro-sharded-walk-"))
            else:
                directory.mkdir(parents=True, exist_ok=True)
            # mkstemp, not a name derived from id(self.index): ids are
            # reused after GC, and a recycled artifact path must never
            # alias an earlier executor's archive
            fd, name = tempfile.mkstemp(prefix="index-", suffix=".npz", dir=directory)
            os.close(fd)
            path = Path(name)
            save_index(self.index, path)
            self._artifact = path
            self._owned_artifact = path
            self._finalizer = weakref.finalize(
                self, _remove_artifact, str(path), self._artifact_dir is None
            )
        return self._artifact

    def close(self) -> None:
        """Remove the self-published artifact, if any (pools are shared
        process-globals and stay up; see :func:`shutdown_pools`)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._artifact = None
            self._owned_artifact = None

    def __enter__(self) -> "ShardedWalkExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------------

    def _shard(self, query_ids: np.ndarray) -> list[np.ndarray]:
        """Contiguous query shards; stacking them in order is exact."""
        if query_ids.size == 0:
            return []
        k = self.shards if self.shards is not None else OVERSHARD * self.workers
        k = max(1, min(int(k), query_ids.size))
        return [s for s in np.array_split(query_ids, k) if s.size]

    def _space_payload(self):
        """What process workers need beyond the artifact: nothing for
        vector spaces (data and metric are embedded), the element list
        and metric callable for object spaces."""
        space = self.index.space
        if space.is_vector:
            return None, None
        return list(space.data), space.metric

    def count_within_many(
        self,
        query_ids: Sequence[int] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """The ``(q, a)`` count matrix, sharded across the worker pool.

        Bit-identical to one serial
        :func:`~repro.index.base.count_walk` for every shard axis,
        shard count and worker count (see module docstring).
        """
        query_ids = np.asarray(query_ids, dtype=np.intp)
        radii = check_radii_ascending(radii)
        if self.workers == 1:
            return count_walk(
                self.index.space, query_ids, radii, self.index.flat, walk=self.walk
            )
        if self.shard_by == "tree":
            return self._count_tree_sharded(query_ids, radii)
        shards = self._shard(query_ids)
        if len(shards) <= 1:
            return count_walk(
                self.index.space, query_ids, radii, self.index.flat, walk=self.walk
            )
        if self.backend == "thread":
            pool = _get_pool("thread", self.workers)
            space, flat = self.index.space, self.index.flat
            futures = [
                pool.submit(count_walk, space, shard, radii, flat, walk=self.walk)
                for shard in shards
            ]
        else:
            path = str(self.artifact)
            items, metric = self._space_payload()
            pool = _get_pool("process", self.workers)
            futures = [
                pool.submit(
                    _count_shard_attached,
                    path, items, metric, shard, radii, self.walk,
                )
                for shard in shards
            ]
        return np.vstack([f.result() for f in futures])

    def _count_tree_sharded(
        self, query_ids: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """``shard_by="tree"``: open the top serially, fan out subtrees.

        The opening walk runs level steps until the frontier spans at
        least the requested shard count of distinct nodes; the frontier
        is then cut into contiguous node ranges and each range resumed
        independently.  Swallow credits and leaf scatters recorded
        while opening live in the partial matrix, each entry of the
        split frontier is handed out exactly once, and integer adds
        commute — so ``partial + Σ piece`` equals the serial walk bit
        for bit regardless of how the frontier was cut.
        """
        space, flat = self.index.space, self.index.flat
        k = self.shards if self.shards is not None else OVERSHARD * self.workers
        partial, frontier = open_tree_frontier(
            space, query_ids, radii, flat, min_nodes=max(1, int(k))
        )
        pieces = split_frontier(frontier, max(1, int(k)))
        if not pieces:
            return partial
        if len(pieces) == 1:
            return partial + count_walk(
                space, query_ids, radii, flat, walk=self.walk, frontier=pieces[0]
            )
        if self.backend == "thread":
            pool = _get_pool("thread", self.workers)
            futures = [
                pool.submit(
                    count_walk, space, query_ids, radii, flat,
                    walk=self.walk, frontier=piece,
                )
                for piece in pieces
            ]
        else:
            path = str(self.artifact)
            items, metric = self._space_payload()
            pool = _get_pool("process", self.workers)
            futures = [
                pool.submit(
                    _count_frontier_attached,
                    path, items, metric, query_ids, radii, tuple(piece), self.walk,
                )
                for piece in pieces
            ]
        for future in futures:
            partial += future.result()
        return partial

    def count_within(
        self, query_ids: Sequence[int] | np.ndarray, radius: float
    ) -> np.ndarray:
        """Single-radius counts (the :class:`MetricIndex` signature)."""
        counts = self.count_within_many(query_ids, np.array([float(radius)]))
        return counts[:, 0].astype(np.intp)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedWalkExecutor({type(self.index).__name__}, "
            f"workers={self.workers}, backend={self.backend!r}, "
            f"shard_by={self.shard_by!r})"
        )


def _remove_artifact(path: str, remove_dir: bool) -> None:
    """Finalizer for self-published artifacts (module-level: no cycles)."""
    try:
        os.unlink(path)
        if remove_dir:
            os.rmdir(os.path.dirname(path))
    except OSError:  # pragma: no cover - best-effort cleanup
        pass
