"""Batch query engine: plans and runs neighborhood workloads.

The engine sits between the index layer (:mod:`repro.index`) and the
McCatch core (:mod:`repro.core`).  Indexes answer point queries;
McCatch asks *workload*-shaped questions — "count every point's
neighbors at every radius of the ladder", "find each outlier's first
radius with an inlier", "materialize the outlier pairs".  The
:class:`BatchQueryEngine` owns those workloads: it runs SELFJOINC as
one sparse-focused schedule loop (the paper's Sec. IV-G principles)
whose walks answer one rung each where the float32 rect leaf kernel
applies and blocks of rungs elsewhere, and keeps a ``mode="per_point"``
reference plan (one rung per walk on every index) — the differential
tests in ``tests/test_engine.py`` and ``tests/test_selfjoin_schedule.py``
hold every plan to exact equality.

``mode="parallel"`` layers :mod:`repro.engine.parallel` on top: the
query set shards across a persistent worker pool and each shard runs
the whole schedule as one task, with counts still bit-identical.  The
pool follows the data — threads over the shared flat arrays for vector
metrics, mmap-attached processes for object metrics — and ``workers``
is the only setting.
"""

from repro.engine.executor import (
    ENGINE_MODES,
    UNKNOWN_COUNT,
    BatchQueryEngine,
    check_engine_mode,
)
from repro.engine.parallel import (
    ShardedWalkExecutor,
    default_workers,
    supports_sharding,
)
from repro.engine.neighbors import (
    count_within_to,
    knn_distances,
    knn_to,
    nearest_distances_to,
)

__all__ = [
    "BatchQueryEngine",
    "ENGINE_MODES",
    "ShardedWalkExecutor",
    "UNKNOWN_COUNT",
    "check_engine_mode",
    "count_within_to",
    "default_workers",
    "knn_distances",
    "knn_to",
    "nearest_distances_to",
    "supports_sharding",
]
