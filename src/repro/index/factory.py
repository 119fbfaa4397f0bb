"""Index selection: pick the right tree for the data at hand.

Mirrors the paper's footnote 4: metric trees for non-vector data,
kd-trees (scipy's compiled one by default) for main-memory vectors,
R-trees for the disk-based flavour.  ``"auto"`` chooses the fastest
correct option.
"""

from __future__ import annotations

from typing import Callable

from repro.index.balltree import BallTree
from repro.index.base import MetricIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.ckdtree import CKDTreeIndex
from repro.index.covertree import CoverTree
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.mtree import MTree
from repro.index.rtree import RTree
from repro.index.slimtree import SlimTree
from repro.index.vptree import VPTree
from repro.metric.base import MetricSpace

_VECTOR_ONLY = {"kdtree", "ckdtree", "rtree"}

_BUILDERS: dict[str, Callable[..., MetricIndex]] = {
    "brute": BruteForceIndex,
    "vptree": VPTree,
    "kdtree": KDTree,
    "ckdtree": CKDTreeIndex,
    "mtree": MTree,
    "rtree": RTree,
    "slimtree": SlimTree,
    "covertree": CoverTree,
    "balltree": BallTree,
    "laesa": LAESAIndex,
}


def available_index_kinds() -> list[str]:
    """Names accepted by :func:`build_index` (besides ``"auto"``)."""
    return sorted(_BUILDERS)


def build_index(space: MetricSpace, ids=None, *, kind: str = "auto", **kwargs) -> MetricIndex:
    """Build an index over ``space`` (optionally restricted to ``ids``).

    ``kind="auto"`` selects scipy's cKDTree for Euclidean vector data
    and a VP-tree otherwise.  Explicit kinds: ``brute``, ``vptree``,
    ``kdtree``, ``ckdtree``, ``mtree``, ``slimtree``, ``rtree``.
    Extra keyword arguments are forwarded to the index constructor.
    """
    if kind == "auto":
        if space.is_vector and getattr(space.metric, "p", None) == 2.0:
            kind = "ckdtree"
        else:
            kind = "vptree"
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from {available_index_kinds()} or 'auto'"
        ) from None
    if kind in _VECTOR_ONLY and not space.is_vector:
        raise TypeError(f"index kind {kind!r} requires vector data; use 'vptree' or 'mtree'")
    return builder(space, ids, **kwargs)
