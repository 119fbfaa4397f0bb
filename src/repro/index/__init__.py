"""Metric and spatial indexes for McCatch's joins.

The paper's *using-index principle* (Sec. IV-G): every join leverages a
tree.  Every index also answers the batched multi-radius query
``count_within_many`` that :mod:`repro.engine` schedules McCatch's
workloads onto — the metric trees with a single level-synchronous
walk, the rest with stacked per-radius passes.  Available indexes
(:func:`~repro.index.factory.available_index_kinds`):

- :class:`~repro.index.vptree.VPTree` — default for nondimensional data;
- :class:`~repro.index.mtree.MTree` / :class:`~repro.index.slimtree.SlimTree`
  — the metric access methods the paper names [35], [36];
- :class:`~repro.index.ckdtree.CKDTreeIndex` — scipy's compiled kd-tree,
  default for Euclidean vectors in main memory;
- :class:`~repro.index.covertree.CoverTree` /
  :class:`~repro.index.balltree.BallTree` — alternative metric trees for
  the index ablation;
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
:class:`~repro.index.base.FrozenIndex`.  The joins themselves run on
:class:`repro.engine.BatchQueryEngine`.
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
from repro.index.mtree import MTree
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
    "CKDTreeIndex",
    "MTree",
    "SlimTree",
    "CoverTree",
    "BallTree",
    "build_index",
    "available_index_kinds",
    "bulk_build_mtree",
    "bulk_build_covertree",
    "slim_down_flat",
    "UNKNOWN_COUNT",
]
