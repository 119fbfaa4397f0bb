"""Input validation helpers used across the library.

The public entry points of the library accept either NumPy arrays of
vectors or arbitrary Python sequences of metric objects (strings,
trees, ...).  These helpers centralize the checks so error messages are
consistent everywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_float_array(X, *, name: str = "X") -> np.ndarray:
    """Coerce ``X`` to a 2-d float64 array, validating shape and finiteness."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one row")
    return check_finite(arr, name=name)


def check_finite(arr: np.ndarray, *, name: str = "X") -> np.ndarray:
    """Reject NaN or infinite entries; returns ``arr`` unchanged."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_dataset(data) -> int:
    """Validate a dataset (array or object sequence) and return its size."""
    if isinstance(data, np.ndarray):
        if data.ndim not in (1, 2):
            raise ValueError(f"array dataset must be 1-d or 2-d, got shape {data.shape}")
        n = int(data.shape[0])
    elif isinstance(data, Sequence):
        n = len(data)
    else:
        try:
            n = len(data)  # type: ignore[arg-type]
        except TypeError:
            raise TypeError(
                "dataset must be a numpy array or a sized sequence of metric objects"
            ) from None
    if n == 0:
        raise ValueError("dataset must not be empty")
    return n


def check_positive_int(value, *, name: str, minimum: int = 1) -> int:
    """Validate an integer hyperparameter with a lower bound."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_probability(value, *, name: str, allow_zero: bool = True) -> float:
    """Validate a float hyperparameter in [0, 1]."""
    value = float(value)
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (low_ok and value <= 1.0):
        raise ValueError(f"{name} must be in {'[0, 1]' if allow_zero else '(0, 1]'}, got {value}")
    return value


def as_batch_rows(batch, dimensionality: int) -> np.ndarray:
    """A held-out batch as ``(b, d)`` float64 rows, ``d`` pinned.

    The shared serving-boundary guard: NumPy would happily *broadcast*
    a width-1 batch against d-dimensional fitted data and produce
    plausible-looking garbage scores, so the width is checked, not
    assumed.  A 1-d input is one point for ``d > 1`` and a column of
    points for ``d == 1``.
    """
    rows = np.asarray(batch, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1) if dimensionality > 1 else rows.reshape(-1, 1)
    if rows.ndim != 2 or rows.shape[1] != dimensionality:
        raise ValueError(
            f"batch has shape {rows.shape}; the model was fitted on "
            f"{dimensionality}-dimensional data"
        )
    return rows
