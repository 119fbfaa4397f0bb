"""Plateau analysis: Definitions 1-3 of the paper.

A *plateau* of a point is a maximal range of radii over which its
neighbor count stays quasi-unaltered (log-log slope <= b).  The *first
plateau* (height 1) yields the 1NN Distance ``x_i``; the largest
non-excused *middle plateau* (height in (1, c], not touching the last
radius) yields the Group 1NN Distance ``y_i``.

Counts skipped by the sparse-focused principle are
:data:`~repro.index.base.UNKNOWN_COUNT`; any slope touching an unknown
count is treated as "steep" (> b), which is safe because unknown counts
only occur after the count already exceeded the Maximum Microcluster
Cardinality ``c`` — i.e. in excused territory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.index.base import UNKNOWN_COUNT


@dataclass(frozen=True)
class Plateau:
    """A maximal quasi-flat range ``[radii[start], radii[end]]`` of one point.

    ``height`` is the neighbor count at the plateau's smallest radius;
    ``length`` is ``radii[end] - radii[start]`` (Def. 1).
    """

    start: int
    end: int
    height: int
    length: float


def find_plateaus(
    counts_row: np.ndarray,
    radii: np.ndarray,
    *,
    max_slope: float,
    max_cardinality: int,
) -> list[Plateau]:
    """All (nonexcused) plateaus of one point, per Definition 1.

    Parameters
    ----------
    counts_row:
        Neighbor counts of the point at each radius (``UNKNOWN_COUNT``
        allowed).
    radii:
        The increasing radius ladder.
    max_slope:
        Maximum Plateau Slope ``b``.
    max_cardinality:
        Maximum Microcluster Cardinality ``c``; plateaus taller than
        this are *excused* (not returned).
    """
    a = len(radii)
    if counts_row.shape != (a,):
        raise ValueError(f"counts_row must have shape ({a},), got {counts_row.shape}")
    log_r = np.log2(radii)
    flat = np.zeros(a - 1, dtype=bool)
    for e in range(a - 1):
        q0, q1 = counts_row[e], counts_row[e + 1]
        if q0 == UNKNOWN_COUNT or q1 == UNKNOWN_COUNT:
            continue  # steep by convention (excused territory)
        slope = (math.log2(q1) - math.log2(q0)) / (log_r[e + 1] - log_r[e])
        flat[e] = slope <= max_slope

    plateaus: list[Plateau] = []
    e = 0
    while e < a - 1:
        if not flat[e]:
            e += 1
            continue
        start = e
        while e < a - 1 and flat[e]:
            e += 1
        end = e  # run covers radii[start..end], end > start (maximality)
        height = int(counts_row[start])
        if 1 <= height <= max_cardinality:
            plateaus.append(
                Plateau(start, end, height, float(radii[end] - radii[start]))
            )
    return plateaus


def first_plateau(plateaus: list[Plateau]) -> Plateau | None:
    """The unique height-1 plateau (Def. 2), or None if not uncovered."""
    for p in plateaus:
        if p.height == 1:
            return p
    return None


def middle_plateau(plateaus: list[Plateau], n_radii: int) -> Plateau | None:
    """The longest plateau with height > 1 not touching the last radius (Def. 3).

    Ties on length are broken towards the larger end radius (the more
    isolated cluster).
    """
    best: Plateau | None = None
    for p in plateaus:
        if p.height <= 1 or p.end == n_radii - 1:
            continue
        if best is None or (p.length, p.end) > (best.length, best.end):
            best = p
    return best


def analyze_counts(
    counts: np.ndarray,
    radii: np.ndarray,
    *,
    max_slope: float,
    max_cardinality: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-point (x_i, y_i, first-plateau end, middle-plateau end).

    This is the "Find the plateaus" half of Alg. 2 (lines 4-7):
    ``x[i]`` is the 1NN Distance (0 if the radius ladder cannot uncover
    the first plateau, e.g. duplicated points), ``y[i]`` the Group 1NN
    Distance (0 if no middle plateau).  The end *indices* (-1 if the
    plateau does not exist) identify each plateau value with its end
    radius, the approximation of footnotes 1-2 that Def. 4 relies on
    for binning and that the Cutoff comparisons reuse.

    Runs :func:`find_plateaus`, :func:`first_plateau` and
    :func:`middle_plateau` for every row at once, one radius column at
    a time, with the same arithmetic: ``math.log2`` of each distinct
    count, so every value equals the per-row functions' bit for bit.
    """
    counts = np.asarray(counts)
    n = counts.shape[0]
    a = len(radii)
    x = np.zeros(n, dtype=np.float64)
    y = np.zeros(n, dtype=np.float64)
    first_end = np.full(n, -1, dtype=np.intp)
    middle_end = np.full(n, -1, dtype=np.intp)
    if n == 0 or a < 2:
        return x, y, first_end, middle_end
    radii = np.asarray(radii)
    log_r = np.log2(radii)
    # log2 of each distinct count, indexed by count + 1; an unknown
    # count stays NaN, so every slope touching it fails ``<= b`` (steep
    # by convention).
    log_q = np.full(int(counts.max()) + 2, np.nan)
    seen = np.zeros(log_q.size, dtype=bool)
    seen[counts + 1] = True
    for v in np.nonzero(seen[1:])[0]:
        log_q[v + 1] = math.log2(v)
    run_start = np.full(n, -1, dtype=np.intp)
    middle_len = np.zeros(n, dtype=np.float64)
    left = log_q[counts[:, 0] + 1]
    for e in range(a):
        if e < a - 1:
            right = log_q[counts[:, e + 1] + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                flat = (right - left) / (log_r[e + 1] - log_r[e]) <= max_slope
            left = right
        else:
            flat = np.zeros(n, dtype=bool)
        # Maximal runs of flat slopes close at radius e (Def. 1).
        rows = np.nonzero((run_start >= 0) & ~flat)[0]
        run_start[flat & (run_start < 0)] = e
        if rows.size == 0:
            continue
        start = run_start[rows]
        run_start[rows] = -1
        height = counts[rows, start]
        length = radii[e] - radii[start]
        kept = (height >= 1) & (height <= max_cardinality)
        # Def. 2: the first height-1 plateau.
        first = kept & (height == 1) & (first_end[rows] < 0)
        x[rows[first]] = length[first]
        first_end[rows[first]] = e
        # Def. 3: the longest taller plateau not touching the last
        # radius; a later run ends further out, so it wins length ties.
        if e < a - 1:
            mid = kept & (height > 1) & (
                (middle_end[rows] < 0) | (length >= middle_len[rows])
            )
            middle_len[rows[mid]] = length[mid]
            middle_end[rows[mid]] = e
    y[middle_end >= 0] = middle_len[middle_end >= 0]
    return x, y, first_end, middle_end
