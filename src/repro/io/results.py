"""JSON round-tripping and Markdown rendering of McCatch results.

``result_to_dict`` / ``result_from_dict`` preserve everything a result
carries — the ranked microclusters with scores, the per-point scores W,
the full 'Oracle' plot arrays, and the cutoff provenance — so archived
runs can be reloaded, compared, and re-rendered without access to the
original data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.core.result import CutoffInfo, McCatchResult, Microcluster, OraclePlot

#: Schema tag written into every serialized result.
FORMAT_VERSION = 1


def result_to_dict(result: McCatchResult) -> dict:
    """Serialize a result to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "n": result.n,
        "cutoff": {
            "value": _json_float(result.cutoff.value),
            "index": int(result.cutoff.index),
            "histogram": [int(h) for h in result.cutoff.histogram],
            "peak_index": int(result.cutoff.peak_index),
            "split_cost": _json_float(result.cutoff.split_cost),
        },
        "microclusters": [
            {
                "indices": [int(i) for i in mc.indices],
                "score": float(mc.score),
                "bridge_length": float(mc.bridge_length),
                "mean_1nn_distance": float(mc.mean_1nn_distance),
            }
            for mc in result.microclusters
        ],
        "point_scores": [float(w) for w in result.point_scores],
        "oracle": {
            "x": [float(v) for v in result.oracle.x],
            "y": [float(v) for v in result.oracle.y],
            "first_end_index": [int(v) for v in result.oracle.first_end_index],
            "middle_end_index": [int(v) for v in result.oracle.middle_end_index],
            "radii": [float(v) for v in result.oracle.radii],
            "counts": [[int(c) for c in row] for row in result.oracle.counts],
            "max_slope": float(result.oracle.max_slope),
            "max_cardinality": int(result.oracle.max_cardinality),
        },
    }


def result_from_dict(payload: dict) -> McCatchResult:
    """Rebuild a :class:`McCatchResult` from :func:`result_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")
    n = int(payload["n"])
    plot = payload["oracle"]
    oracle = OraclePlot(
        x=np.asarray(plot["x"], dtype=np.float64),
        y=np.asarray(plot["y"], dtype=np.float64),
        first_end_index=np.asarray(plot["first_end_index"], dtype=np.intp),
        middle_end_index=np.asarray(plot["middle_end_index"], dtype=np.intp),
        radii=np.asarray(plot["radii"], dtype=np.float64),
        counts=np.asarray(plot["counts"], dtype=np.int64),
        # Documents written before b and c were recorded carry the
        # defaults they were explained with: b = 0.1, c = ceil(0.1 n).
        max_slope=float(plot.get("max_slope", 0.1)),
        max_cardinality=int(plot.get("max_cardinality", max(1, math.ceil(0.1 * n)))),
    )
    cut = payload["cutoff"]
    cutoff = CutoffInfo(
        value=_parse_float(cut["value"]),
        index=int(cut["index"]),
        histogram=np.asarray(cut["histogram"], dtype=np.intp),
        peak_index=int(cut["peak_index"]),
        split_cost=_parse_float(cut["split_cost"]),
    )
    microclusters = [
        Microcluster(
            indices=np.asarray(mc["indices"], dtype=np.intp),
            score=float(mc["score"]),
            bridge_length=float(mc["bridge_length"]),
            mean_1nn_distance=float(mc["mean_1nn_distance"]),
        )
        for mc in payload["microclusters"]
    ]
    return McCatchResult(
        microclusters=microclusters,
        point_scores=np.asarray(payload["point_scores"], dtype=np.float64),
        oracle=oracle,
        cutoff=cutoff,
        n=n,
    )


def save_result_json(result: McCatchResult, path, *, indent: int = 2) -> Path:
    """Write a result to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=indent), encoding="utf-8")
    return path


def load_result_json(path) -> McCatchResult:
    """Load a result previously written by :func:`save_result_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return result_from_dict(payload)


def result_to_markdown(result: McCatchResult, *, max_rows: int = 15) -> str:
    """Render the ranked microcluster table as GitHub-flavored Markdown."""
    lines = [
        f"# McCatch result — n={result.n}, "
        f"{len(result.microclusters)} microclusters, cutoff d={result.cutoff.value:.4g}",
        "",
        "| rank | cardinality | score (bits/member) | bridge length | members |",
        "|---:|---:|---:|---:|:---|",
    ]
    for rank, mc in enumerate(result.microclusters[:max_rows]):
        members = ", ".join(str(int(i)) for i in sorted(mc.indices)[:10])
        if mc.cardinality > 10:
            members += f", … ({mc.cardinality} total)"
        lines.append(
            f"| {rank} | {mc.cardinality} | {mc.score:.2f} | "
            f"{mc.bridge_length:.4g} | {members} |"
        )
    if len(result.microclusters) > max_rows:
        lines.append("")
        lines.append(f"… and {len(result.microclusters) - max_rows} more microclusters.")
    return "\n".join(lines)


# -- float <-> JSON helpers (inf survives the trip) ---------------------------

def _json_float(v: float) -> float | str:
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _parse_float(v) -> float:
    if isinstance(v, str):
        return float(v)
    return float(v)
