"""Minimum Description Length primitives (Definitions 5-6 substrate).

McCatch is "hands-off" because both its Cutoff (Def. 6) and its anomaly
scores (Def. 7) come from compression arguments.  The building block is
Rissanen's universal code length for positive integers,

    <z> ~= log2(z) + log2(log2(z)) + ...   (positive terms only),

which is the optimal prefix-code length when the range of ``z`` is
unknown a priori [38], [39].
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np


def universal_code_length(z: int | float) -> float:
    """Rissanen's universal code length ⟨z⟩ for an integer ``z >= 1``.

    Sums ``log2(z) + log2(log2(z)) + ...`` while the terms stay
    positive.  ``z`` below 1 is clamped to 1 (⟨1⟩ = 0), matching the
    paper's "+1 to account for zeros" convention at call sites.  NaN
    and ±inf raise ``ValueError`` (``log2(inf)`` never reaches 0).
    """
    z = float(z)
    if math.isnan(z):
        raise ValueError("universal_code_length requires a number, got NaN")
    if math.isinf(z):
        raise ValueError(f"universal_code_length requires a finite number, got {z}")
    if z < 1.0:
        z = 1.0
    total = 0.0
    term = math.log2(z) if z > 1.0 else 0.0
    while term > 0.0:
        total += term
        term = math.log2(term) if term > 1.0 else 0.0
    return total


#: Largest integer the process-wide ⟨z⟩ table of
#: :func:`universal_code_lengths` covers.  The table grows lazily (by
#: doubling) to the largest value asked for, up to this cap, so one far
#: value costs at most a 16,384-entry fill (about 12 ms of Python, once
#: per process); larger values take the per-distinct path.
CODE_TABLE_CAP = 1 << 14

_code_table = np.zeros(2)  # _code_table[z] = ⟨z⟩; ⟨0⟩ = ⟨1⟩ = 0
_code_table_lock = threading.Lock()


def _code_table_upto(z_max: int) -> np.ndarray:
    """The ⟨z⟩ table covering ``0..z_max`` (``z_max <= CODE_TABLE_CAP``).

    A grown table is a new array swapped in under the lock, so a reader
    holding the old one never sees a partial fill.
    """
    global _code_table
    table = _code_table
    if table.size > z_max:
        return table
    with _code_table_lock:
        table = _code_table
        if table.size <= z_max:
            size = min(CODE_TABLE_CAP + 1, max(2 * table.size, z_max + 1))
            grown = np.empty(size)
            grown[: table.size] = table
            grown[table.size :] = [universal_code_length(z) for z in range(table.size, size)]
            _code_table = table = grown
    return table


def universal_code_lengths(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Vectorized ⟨z⟩ over an array of values (clamped to >= 1).

    Integers up to :data:`CODE_TABLE_CAP` are looked up in a
    process-wide table of :func:`universal_code_length` values, so they
    are bit-identical to the scalar function; any other value (larger,
    fractional, NaN, ±inf) runs :func:`universal_code_length` once per
    distinct value, so NaN and ±inf raise ``ValueError`` as there.
    """
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    z = np.maximum(flat, 1.0)  # -inf stays out of the table: the scalar rejects it
    tabled = (z <= CODE_TABLE_CAP) & (z == np.floor(z)) & (flat > -np.inf)
    if tabled.all():
        idx = z.astype(np.intp)
        top = int(idx.max()) if idx.size else 0
        return _code_table_upto(top).take(idx).reshape(arr.shape)
    out = np.empty(z.size)
    if tabled.any():
        idx = z[tabled].astype(np.intp)
        out[tabled] = _code_table_upto(int(idx.max())).take(idx)
    rest = ~tabled
    uniq, inverse = np.unique(flat[rest], return_inverse=True)
    table = np.array([universal_code_length(v) for v in uniq.tolist()], dtype=np.float64)
    out[rest] = table[inverse]
    return out.reshape(arr.shape)


def cost_of_compression(values: Sequence[int] | np.ndarray) -> float:
    """Cost of describing a nonempty integer set ``V`` (Definition 5).

    COST(V) = ⟨|V|⟩ + ⟨1 + ⌈avg(V)⌉⟩ + Σ_v ⟨1 + ⌈|v − avg(V)|⌉⟩.

    The set is described by its cardinality, its average, and each
    value's deviation from the average; homogeneous sets compress well
    because small deviations need few bits.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cost_of_compression requires a nonempty set")
    mean = float(arr.mean())
    cost = universal_code_length(arr.size)
    cost += universal_code_length(1.0 + math.ceil(mean))
    for v in arr:
        cost += universal_code_length(1.0 + math.ceil(abs(float(v) - mean)))
    return cost


def best_split(values: Sequence[int] | np.ndarray, *, start: int = 0) -> tuple[int, float]:
    """Best MDL two-way split of ``values[start:]`` (Definition 6 core).

    Evaluates every cut position ``e`` with ``start < e < len(values)``,
    scoring COST(values[start:e]) + COST(values[e:]), and returns
    ``(argmin_e, min_cost)``.  Raises if fewer than two elements remain
    after ``start`` (no split exists).
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n - start < 2:
        raise ValueError("best_split needs at least two values after `start`")
    best_e = -1
    best_cost = math.inf
    for e in range(start + 1, n):
        cost = cost_of_compression(arr[start:e]) + cost_of_compression(arr[e:])
        if cost < best_cost:
            best_cost = cost
            best_e = e
    return best_e, best_cost
