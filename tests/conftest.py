"""Shared fixtures: small, fast datasets reused across the suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

# The example smoke tests run scripts in subprocesses with cwd=tmp_path.
# A relative PYTHONPATH entry like "src" (the common way to run this
# suite from the repo root) silently stops resolving there, so make the
# src/ layout importable by absolute path for every child process — and
# for this process too, in case the package is neither installed nor on
# the inherited path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _parts:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _parts)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.metric.base import MetricSpace  # noqa: E402


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def blob_with_mc():
    """500 Gaussian inliers + 8-point microcluster + 2 singletons.

    Returns (X, labels) with labels 0 = inlier, 1 = mc, 2 = singleton.
    """
    rng = np.random.default_rng(0)
    inliers = rng.normal(0.0, 1.0, (500, 2))
    mc = rng.normal(0.0, 0.03, (8, 2)) + [10.0, 10.0]
    singles = np.array([[18.0, -4.0], [-14.0, 15.0]])
    X = np.vstack([inliers, mc, singles])
    labels = np.zeros(X.shape[0], dtype=int)
    labels[500:508] = 1
    labels[508:] = 2
    return X, labels


@pytest.fixture(scope="session")
def vector_space(blob_with_mc):
    X, _ = blob_with_mc
    return MetricSpace(X)


@pytest.fixture(scope="session")
def small_points():
    """60 well-spread 3-d points for index agreement tests."""
    rng = np.random.default_rng(7)
    return np.vstack(
        [
            rng.normal(0, 1, (30, 3)),
            rng.normal(5, 0.5, (20, 3)),
            rng.uniform(-8, 8, (10, 3)),
        ]
    )


@pytest.fixture(scope="session")
def string_space():
    words = ["SMITH", "SMYTH", "JOHNSON", "JONSON", "BRAUN", "BROWN",
             "XKRZQW", "GARCIA", "GARZIA", "MILLER"]
    from repro.metric.strings import levenshtein

    return MetricSpace(words, levenshtein)


@pytest.fixture
def shard_small_inputs(monkeypatch):
    """Shard even the small query sets tests use: the executor runs
    thread-backed sets below ``MIN_SHARD_QUERIES`` inline."""
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "MIN_SHARD_QUERIES", 1)
