"""Fitted-index persistence: flat tree arrays to a single ``.npz`` and back.

Because every metric tree stores its structure as a
:class:`~repro.index.base.FlatTree` — a handful of primitive NumPy
arrays — a fitted index serializes losslessly to one ``np.savez``
archive: the node arrays, the element permutation, the indexed ids,
and the diameter estimate recorded at save time.  For vector spaces
the data matrix and the L_p metric order ride along, so
:func:`load_index` can stand the index back up with no other inputs;
object spaces (strings, trees, custom metrics) save structure only and
take the :class:`~repro.metric.base.MetricSpace` at load time.

A loaded index is a :class:`~repro.index.base.FrozenIndex`: it answers
every :class:`~repro.index.base.MetricIndex` query — bit-for-bit
identically to the index that was saved — without construction logic,
node objects, or RNG state.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.index.base import FlatTree, FrozenIndex, MetricIndex
from repro.metric.base import MetricSpace
from repro.metric.vector import minkowski

#: Schema tag written into every serialized index.
INDEX_FORMAT = "repro.flat-index.v1"

#: FlatTree array fields, in payload order.
_TREE_KEYS = (
    "center", "threshold", "radius", "size",
    "child_lo", "child_hi", "elem_lo", "elem_hi", "elems",
)


def index_payload(index: MetricIndex, *, include_data: bool = True) -> dict:
    """The ``np.savez`` payload for a flat-backed index.

    Shared by :func:`save_index` and the model persistence in
    :mod:`repro.io.models`.  Raises ``TypeError`` for indexes without
    flat storage (brute force, cKDTree).
    """
    flat = getattr(index, "flat", None)
    if not isinstance(flat, FlatTree):
        raise TypeError(
            f"{type(index).__name__} has no FlatTree storage; only the metric "
            "trees (vptree, balltree, covertree, mtree, slimtree) and "
            "FrozenIndex can be persisted"
        )
    from repro.index.ckernel import kernel_info

    ck = kernel_info()
    payload: dict = {
        "format": np.str_(INDEX_FORMAT),
        "kind": np.str_(getattr(index, "kind", type(index).__name__.lower())),
        "ids": index.ids,
        "diameter": np.float64(index.diameter_estimate()),
        # Provenance only — what the saving environment had.  The walk
        # is chosen by the machine that loads the archive.
        "ckernel_available": np.bool_(bool(ck["available"])),
        "ckernel_key": np.str_(ck.get("key") or ""),
        "ckernel_compiler": np.str_(ck.get("compiler") or ""),
    }
    for key, value in flat.to_arrays().items():
        payload[f"tree_{key}"] = value
    space = index.space
    if include_data and space.is_vector:
        payload["data"] = space.data
        payload["metric_p"] = np.float64(space.metric.p)
    return payload


def save_index(index: MetricIndex, path: str | Path, *, compressed: bool = False) -> Path:
    """Persist a flat-backed index to a single ``.npz`` archive.

    Vector spaces embed their data matrix and metric order; object
    spaces save structure only (pass the space to :func:`load_index`).
    The default is an *uncompressed* container so the arrays can be
    memory-mapped at load time (``load_index(..., mmap=True)``);
    ``compressed=True`` trades that away for a smaller archive.
    Returns the written path.
    """
    path = Path(path)
    save = np.savez_compressed if compressed else np.savez
    with open(path, "wb") as f:
        save(f, **index_payload(index))
    return path


def frozen_from_payload(payload, space: MetricSpace | None = None) -> FrozenIndex:
    """Stand a :class:`FrozenIndex` back up from :func:`index_payload` arrays."""
    fmt = str(payload["format"][()]) if "format" in payload else None
    if fmt != INDEX_FORMAT:
        raise ValueError(f"unsupported index format: {fmt!r}")
    if space is None:
        if "data" not in payload:
            raise ValueError(
                "index was saved without its data (object space); pass the "
                "MetricSpace it was built over"
            )
        space = MetricSpace(
            np.asarray(payload["data"], dtype=np.float64),
            minkowski(float(payload["metric_p"][()])),
        )
    ids = np.asarray(payload["ids"], dtype=np.intp)
    if ids.size and int(ids.max()) >= len(space):
        raise ValueError(
            f"index covers element id {int(ids.max())} but the space has only "
            f"{len(space)} elements — wrong space for this archive?"
        )
    arrays = {key: payload[f"tree_{key}"] for key in _TREE_KEYS}
    arrays["vp_split"] = payload["tree_vp_split"][()]
    if "tree_d_parent" in payload:
        arrays["d_parent"] = payload["tree_d_parent"]
    if "tree_d_elem" in payload:
        arrays["d_elem"] = payload["tree_d_elem"]
    return FrozenIndex(
        space,
        ids,
        FlatTree.from_arrays(arrays),
        kind=str(payload["kind"][()]),
        diameter=float(payload["diameter"][()]),
    )


def load_index(
    path: str | Path, space: MetricSpace | None = None, *, mmap: bool = False
) -> FrozenIndex:
    """Load an index saved by :func:`save_index`.

    ``space`` is required when the archive was saved without data (an
    object space); when given it takes precedence over any embedded
    data, which lets callers share one in-memory space across several
    loaded indexes.

    ``mmap=True`` maps the tree arrays and the embedded data matrix
    read-only straight off the archive (see :mod:`repro.io.mmap`), so
    many scoring processes share one on-disk index through the page
    cache instead of materializing a copy each.  Only uncompressed
    archives (the :func:`save_index` default) can be mapped; compressed
    ones raise ``ValueError`` rather than silently materializing.
    """
    if mmap:
        from repro.io.mmap import open_npz_mmap

        return frozen_from_payload(open_npz_mmap(path), space)
    with np.load(Path(path), allow_pickle=False) as payload:
        return frozen_from_payload(payload, space)
