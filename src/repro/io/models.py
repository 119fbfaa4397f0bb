"""Fitted McCatch model persistence: fit once, serve many.

A :class:`~repro.core.mccatch.McCatchModel` bundles the fitted space,
the VP-tree over its inliers that serves held-out scores, and the
result.  All three serialize to one ``np.savez`` archive: the tree
payload of :mod:`repro.io.indexes` (which already embeds the vector
data and metric), plus the result as the same JSON document
:func:`repro.io.results.save_result_json` writes — so a loaded model
answers :meth:`~repro.core.mccatch.McCatchModel.score_batch`
identically to the one that was saved.  Every fitted vector model
saves, whatever index its fit used.

Archives of the first format (:data:`MODEL_FORMAT_V1`) hold the fit
tree over all elements instead; they still load, and the inlier tree
is rebuilt from their data.  The walk is exact, so their scores do not
change.

Vector spaces only: a custom object metric (strings, trees) is a
Python callable and cannot be serialized; persist those fits as
results (:mod:`repro.io.results`) and refit to serve.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.mccatch import McCatchModel
from repro.io.indexes import INDEX_FORMAT, frozen_from_payload, index_payload
from repro.io.results import result_from_dict, result_to_dict

#: Schema tag written into every serialized model.
MODEL_FORMAT = "repro.mccatch-model.v2"
#: The first format, which stored the fit tree; loadable, no longer written.
MODEL_FORMAT_V1 = "repro.mccatch-model.v1"
#: Every model format :func:`model_from_payload` reads.
MODEL_FORMATS = (MODEL_FORMAT, MODEL_FORMAT_V1)


def save_model(model: McCatchModel, path: str | Path) -> Path:
    """Persist a fitted model, with its inlier tree, to one ``.npz``.

    Requires a vector space (see module docstring).
    """
    if not model.space.is_vector:
        raise TypeError(
            "only vector-space models can be saved: a custom object metric "
            "is a Python callable and cannot be serialized"
        )
    payload = index_payload(model.index, include_data=True)
    payload["format"] = np.str_(MODEL_FORMAT)
    payload["index_format"] = np.str_(INDEX_FORMAT)
    payload["result_json"] = np.str_(json.dumps(result_to_dict(model.result)))
    if getattr(model, "spec", None) is not None:
        payload["spec"] = np.str_(model.spec)
    path = Path(path)
    with open(path, "wb") as f:
        np.savez(f, **payload)
    return path


def model_from_payload(payload) -> McCatchModel:
    """Stand a :class:`McCatchModel` back up from :func:`save_model` arrays.

    ``payload`` is anything mapping member names to arrays with an
    ``NpzFile``-style ``files`` attribute — a live ``np.load`` handle
    or a :class:`repro.io.mmap.MappedArchive`.
    """
    fmt = str(payload["format"][()]) if "format" in payload else None
    if fmt not in MODEL_FORMATS:
        raise ValueError(f"unsupported model format: {fmt!r}")
    index_arrays = {
        k: payload[k] for k in payload.files if k not in ("format", "spec")
    }
    index_arrays["format"] = payload["index_format"]
    index = frozen_from_payload(index_arrays)
    result = result_from_dict(json.loads(str(payload["result_json"][()])))
    spec = str(payload["spec"][()]) if "spec" in payload else None
    if fmt == MODEL_FORMAT_V1:
        # The stored tree is the fit tree over all elements; the model
        # builds its inlier tree from the same data.
        return McCatchModel(index.space, None, result, spec=spec)
    return McCatchModel(index.space, index, result, spec=spec)


def load_model(path: str | Path, *, mmap: bool = False) -> McCatchModel:
    """Load a model saved by :func:`save_model`.

    ``mmap=True`` serves the tree arrays and data matrix as read-only
    memory maps of the archive (uncompressed containers only — see
    :func:`repro.io.mmap.open_npz_mmap`), so concurrent scoring
    processes share one on-disk model instead of materializing copies.
    """
    if mmap:
        from repro.io.mmap import open_npz_mmap

        return model_from_payload(open_npz_mmap(path))
    with np.load(Path(path), allow_pickle=False) as payload:
        return model_from_payload(payload)
