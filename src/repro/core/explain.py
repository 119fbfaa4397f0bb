"""Explainability helpers (Sec. II-B: "explainable results thanks to
the plateaus of our 'Oracle' plot").

Every McCatch verdict traces back to observable quantities: a point's
neighbor-count curve, its plateaus, its position in the 'Oracle' plot,
and the MDL cutoff.  These helpers turn a result into human-readable
explanations and ASCII renderings — useful in terminals and logs where
no plotting stack exists.
"""

from __future__ import annotations

import numpy as np

from repro.core.plateaus import find_plateaus
from repro.core.result import McCatchResult
from repro.index.base import UNKNOWN_COUNT


def explain_point(result: McCatchResult, index: int, *, max_cardinality: int | None = None) -> str:
    """A prose explanation of why point ``index`` was (or wasn't) flagged.

    Reconstructs the point's plateaus from the stored counts and relates
    its 1NN / Group-1NN rungs to the cutoff.
    """
    o = result.oracle
    if not 0 <= index < result.n:
        raise IndexError(f"point index {index} out of range for n={result.n}")
    c = max_cardinality if max_cardinality is not None else max(1, int(np.ceil(0.1 * result.n)))
    plateaus = find_plateaus(o.counts[index], o.radii, max_slope=0.1, max_cardinality=c)
    cut = result.cutoff.index
    lines = [f"point {index}:"]
    counts_str = " ".join("?" if v == UNKNOWN_COUNT else str(v) for v in o.counts[index])
    lines.append(f"  neighbor counts over radii: {counts_str}")
    if plateaus:
        for p in plateaus:
            kind = "first" if p.height == 1 else "middle/last"
            lines.append(
                f"  {kind} plateau: radii[{p.start}..{p.end}], height {p.height}, "
                f"length {p.length:.4g}"
            )
    else:
        lines.append("  no plateaus uncovered at this radius resolution")
    x_rung, y_rung = int(o.first_end_index[index]), int(o.middle_end_index[index])
    lines.append(
        f"  1NN rung {x_rung if x_rung >= 0 else '-'} vs cutoff rung {cut}; "
        f"Group-1NN rung {y_rung if y_rung >= 0 else '-'}"
    )
    rank = int(result.labels[index])
    if rank < 0:
        lines.append("  verdict: inlier (both rungs below the cutoff)")
    else:
        mc = result.microclusters[rank]
        why = "1NN distance" if x_rung >= cut else "Group 1NN distance"
        kind = "a one-off outlier" if mc.is_singleton else (
            f"part of a {mc.cardinality}-elements microcluster"
        )
        lines.append(
            f"  verdict: {kind} (rank #{rank}, score {mc.score:.2f}) — "
            f"its {why} reaches the cutoff"
        )
    return "\n".join(lines)


def ascii_oracle_plot(
    result: McCatchResult, *, width: int = 64, height: int = 20
) -> str:
    """ASCII rendering of the 'Oracle' plot (Fig. 3(ii)).

    ``.`` inliers, ``o`` detected outliers, ``#`` members of
    nonsingleton microclusters; the cutoff is drawn on both axes.
    """
    o = result.oracle
    x = np.maximum(o.x, 0.0)
    y = np.maximum(o.y, 0.0)
    x_max = float(x.max()) or 1.0
    y_max = float(y.max()) or 1.0
    grid = [[" "] * width for _ in range(height)]
    labels = result.labels
    order = np.argsort([0 if labels[i] < 0 else 1 for i in range(result.n)])
    for i in order:
        col = min(width - 1, int(x[i] / x_max * (width - 1)))
        row = height - 1 - min(height - 1, int(y[i] / y_max * (height - 1)))
        if labels[i] < 0:
            mark = "."
        elif result.microclusters[labels[i]].is_singleton:
            mark = "o"
        else:
            mark = "#"
        grid[row][col] = mark
    d = result.cutoff.value
    if np.isfinite(d):
        col = min(width - 1, int(d / x_max * (width - 1)))
        for row in range(height):
            if grid[row][col] == " ":
                grid[row][col] = "|"
        row = height - 1 - min(height - 1, int(d / y_max * (height - 1)))
        for col2 in range(width):
            if grid[row][col2] == " ":
                grid[row][col2] = "-"
    lines = ["Y: Group 1NN Distance   (. inlier, o one-off, # microcluster, |/- cutoff)"]
    lines.extend("".join(row) for row in grid)
    lines.append(f"X: 1NN Distance (0 .. {x_max:.4g});  d = {d:.4g}")
    return "\n".join(lines)


def ascii_histogram(result: McCatchResult, *, max_bar: int = 50) -> str:
    """ASCII Histogram of 1NN Distances with the MDL cutoff (Fig. 4)."""
    hist = result.cutoff.histogram
    peak, cut = result.cutoff.peak_index, result.cutoff.index
    top = max(1, int(hist.max()))
    lines = ["Histogram of 1NN Distances (Def. 4):"]
    for e, h in enumerate(hist):
        bar = "#" * int(round(h / top * max_bar))
        note = " <= peak" if e == peak else (" <= cutoff d" if e == cut else "")
        lines.append(f"  r[{e:2d}]={result.oracle.radii[e]:<10.4g} |{bar:<{max_bar}} {h}{note}")
    return "\n".join(lines)


def explain_microcluster(result: McCatchResult, rank: int) -> str:
    """A prose explanation of microcluster ``rank``'s score (Def. 7).

    Decomposes the score into the four compression items of Fig. 5 —
    cardinality ①, nearest-inlier id ②, Bridge's Length ③, average 1NN
    distance ④ — so an analyst can see *which* property makes the
    group anomalous.
    """
    if not 0 <= rank < len(result.microclusters):
        raise IndexError(
            f"rank {rank} out of range for {len(result.microclusters)} microclusters"
        )
    from repro.core.mdl import universal_code_length
    from repro.core.scoring import _ceil_ratio

    mc = result.microclusters[rank]
    r1 = float(result.oracle.radii[0])
    members = ", ".join(str(int(i)) for i in sorted(mc.indices)[:10])
    if mc.cardinality > 10:
        members += ", ..."
    item1 = universal_code_length(mc.cardinality)
    item2 = universal_code_length(result.n)
    bridge_units = _ceil_ratio(mc.bridge_length, r1) if r1 > 0 else 0
    lines = [
        f"microcluster #{rank}: {{{members}}}",
        f"  cardinality |M| = {mc.cardinality}"
        + (" (a one-off outlier)" if mc.is_singleton else ""),
        f"  Bridge's Length = {mc.bridge_length:.4g} "
        f"({bridge_units} units of r1 = {r1:.4g}) — the gap to the nearest inlier",
        f"  average member 1NN distance = {mc.mean_1nn_distance:.4g}",
        "  score decomposition (bits, before dividing by |M|):",
        f"    (1) store the cardinality:        {item1:.2f}",
        f"    (2) store the nearest inlier id:  {item2:.2f}",
        "    (3) describe the bridge and (4) the member chain scale with the",
        "        distances above times the space's Transformation Cost t",
        f"  => score s = {mc.score:.2f} bits per member "
        "(higher = cheaper to single out = more anomalous)",
    ]
    if not mc.is_singleton:
        lines.append(
            "  the members sit close together but far from everything else —"
            " the signature of coalition/repetition the paper targets"
        )
    return "\n".join(lines)


def compare_results(a: McCatchResult, b: McCatchResult, *, top: int = 10) -> str:
    """Diff two results over the same dataset (e.g. two hyperparameter
    settings, or a streaming refit vs a batch run).

    Reports outlier-set agreement (Jaccard), rank movements among the
    top microclusters, and the cutoff shift.  Raises if the results
    cover different dataset sizes.
    """
    if a.n != b.n:
        raise ValueError(f"results cover different datasets: n={a.n} vs n={b.n}")
    set_a = set(map(int, a.outlier_indices))
    set_b = set(map(int, b.outlier_indices))
    union = len(set_a | set_b)
    jaccard = (len(set_a & set_b) / union) if union else 1.0
    lines = [
        f"comparing two results over n={a.n}:",
        f"  outliers: {len(set_a)} vs {len(set_b)}; agreement (Jaccard) = {jaccard:.3f}",
        f"  cutoff d: {a.cutoff.value:.4g} vs {b.cutoff.value:.4g}",
        f"  microclusters: {len(a.microclusters)} vs {len(b.microclusters)}",
    ]
    only_a = sorted(set_a - set_b)
    only_b = sorted(set_b - set_a)
    if only_a:
        lines.append(f"  flagged only by the first:  {only_a[:top]}")
    if only_b:
        lines.append(f"  flagged only by the second: {only_b[:top]}")
    # Rank movements: match microclusters by member sets.
    index_b = {frozenset(map(int, mc.indices)): r for r, mc in enumerate(b.microclusters)}
    moves = []
    for r, mc in enumerate(a.microclusters[:top]):
        key = frozenset(map(int, mc.indices))
        if key in index_b and index_b[key] != r:
            moves.append(f"    {sorted(key)[:4]}...: rank {r} -> {index_b[key]}")
    if moves:
        lines.append("  rank movements among matched microclusters:")
        lines.extend(moves)
    return "\n".join(lines)
