"""Metric and spatial indexes plus the similarity joins built on them.

The paper's *using-index principle* (Sec. IV-G): every join leverages a
tree.  Every index also answers the batched multi-radius query
``count_within_many`` that :mod:`repro.engine` schedules McCatch's
workloads onto — the metric trees with a single level-synchronous
walk, the rest with stacked per-radius passes.  Available trees:

- :class:`~repro.index.vptree.VPTree` — default for nondimensional data;
- :class:`~repro.index.mtree.MTree` / :class:`~repro.index.slimtree.SlimTree`
  — the metric access methods the paper names [35], [36];
- :class:`~repro.index.kdtree.KDTree` (pure Python) and
  :class:`~repro.index.ckdtree.CKDTreeIndex` (scipy fast path) — vectors
  in main memory;
- :class:`~repro.index.rtree.RTree` — STR-packed, the disk-based option;
- :class:`~repro.index.covertree.CoverTree` /
  :class:`~repro.index.balltree.BallTree` — alternative metric trees for
  the index ablation;
- :class:`~repro.index.laesa.LAESAIndex` — pivot-table filtering for
  expensive metrics (tree edit distance, long strings);
- :class:`~repro.index.bruteforce.BruteForceIndex` — correctness oracle.

The metric trees all store their structure as a
:class:`~repro.index.base.FlatTree` (struct-of-arrays, one element
permutation, CSR children), bulk-loaded level-synchronously and walked
by one shared walk, :func:`~repro.index.base.count_walk`: the compiled
C kernel (:mod:`repro.index.ckernel`) where a compiler is available,
else the depth-major numpy
:func:`~repro.index.base.level_count_walk` (O(depth) numpy dispatches,
float32-bracketed leaf kernels, virtual leaves) — bit-identical counts
either way.  A fitted tree can be persisted with
:func:`repro.io.save_index` and served as a
:class:`~repro.index.base.FrozenIndex`.
"""

from repro.index.balltree import BallTree
from repro.index.base import (
    UNKNOWN_COUNT,
    FlatTree,
    FrozenIndex,
    MetricIndex,
    count_walk,
    level_count_walk,
)
from repro.index.bruteforce import BruteForceIndex
from repro.index.bulk import bulk_build_covertree, bulk_build_mtree, slim_down_flat
from repro.index.ckdtree import CKDTreeIndex
from repro.index.covertree import CoverTree
from repro.index.factory import available_index_kinds, build_index
from repro.index.joins import join_counts, self_join_counts, self_join_pairs
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.mtree import MTree
from repro.index.rtree import RTree
from repro.index.slimtree import SlimTree
from repro.index.vptree import VPTree

__all__ = [
    "MetricIndex",
    "FlatTree",
    "FrozenIndex",
    "count_walk",
    "level_count_walk",
    "BruteForceIndex",
    "VPTree",
    "KDTree",
    "CKDTreeIndex",
    "MTree",
    "SlimTree",
    "RTree",
    "CoverTree",
    "BallTree",
    "LAESAIndex",
    "build_index",
    "available_index_kinds",
    "bulk_build_mtree",
    "bulk_build_covertree",
    "slim_down_flat",
    "self_join_counts",
    "join_counts",
    "self_join_pairs",
    "UNKNOWN_COUNT",
]
