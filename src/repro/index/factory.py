"""Index selection: pick the right tree for the data at hand.

Mirrors the paper's footnote 4: metric trees for non-vector data and a
kd-tree (scipy's compiled cKDTree) for main-memory Euclidean vectors.
``"auto"`` chooses the fastest correct option.
"""

from __future__ import annotations

from typing import Callable

from repro.index.balltree import BallTree
from repro.index.base import MetricIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.ckdtree import CKDTreeIndex, is_euclidean_vectors
from repro.index.covertree import CoverTree
from repro.index.mtree import MTree
from repro.index.slimtree import SlimTree
from repro.index.vptree import VPTree
from repro.metric.base import MetricSpace

_BUILDERS: dict[str, Callable[..., MetricIndex]] = {
    "brute": BruteForceIndex,
    "vptree": VPTree,
    "ckdtree": CKDTreeIndex,
    "mtree": MTree,
    "slimtree": SlimTree,
    "covertree": CoverTree,
    "balltree": BallTree,
}


def available_index_kinds() -> list[str]:
    """Names accepted by :func:`build_index` (besides ``"auto"``)."""
    return sorted(_BUILDERS)


def build_index(space: MetricSpace, ids=None, *, kind: str = "auto", **kwargs) -> MetricIndex:
    """Build an index over ``space`` (optionally restricted to ``ids``).

    ``kind="auto"`` selects scipy's cKDTree for Euclidean vector data
    and a VP-tree otherwise; any name from :func:`available_index_kinds`
    selects that index explicitly.  Extra keyword arguments are
    forwarded to the index constructor.
    """
    if kind == "auto":
        kind = "ckdtree" if is_euclidean_vectors(space) else "vptree"
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from {available_index_kinds()} or 'auto'"
        ) from None
    return builder(space, ids, **kwargs)
