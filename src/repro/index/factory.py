"""Index selection: pick the tree for the joins.

The paper's footnote 4 pairs a kd-tree with Euclidean vectors; here
``"auto"`` is the VP-tree for every space.  Its compiled count walk beat
scipy's cKDTree on every vector input measured, and its diameter rule
uses distances alone, so the radius ladder (Alg. 1 line 2) is rotation
invariant.  The kd-tree stays available by name.
"""

from __future__ import annotations

from typing import Callable

from repro.index.balltree import BallTree
from repro.index.base import MetricIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.ckdtree import CKDTreeIndex
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

    ``kind="auto"`` selects a VP-tree for every space, so a default fit
    equals an ``index="vptree"`` fit bit for bit; any name from
    :func:`available_index_kinds` selects that index explicitly.  Extra
    keyword arguments are forwarded to the index constructor.
    """
    try:
        builder = _BUILDERS["vptree" if kind == "auto" else kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from {available_index_kinds()} or 'auto'"
        ) from None
    return builder(space, ids, **kwargs)
