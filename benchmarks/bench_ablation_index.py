"""Ablation: index choice and the sparse-focused principle (Sec. IV-G).

Not a paper table — this quantifies two design choices: (i) which index
backs the joins (scipy's cKDTree vs the flat VP-tree and ball tree vs
brute force), and (ii) the sparse-focused principle that skips neighbor
counts already known to exceed c.  The sparse-focused principle must
leave the detected outliers unchanged.  The index kinds are only timed:
each family still estimates the diameter its own way, so their radius
ladders may differ.
"""

from __future__ import annotations

import time

from _common import format_table, scaled, write_result
from repro import McCatch
from repro.datasets import make_http_like

N = int(scaled(1.0, lo=0.1, hi=20.0) * 8_000)
KINDS = ["ckdtree", "vptree", "balltree", "brute"]


def bench_ablation_index_kind(benchmark):
    X, _ = make_http_like(n=N, random_state=0)
    timings: dict[str, float] = {}

    def run():
        for kind in KINDS:
            t0 = time.perf_counter()
            McCatch(index=kind).fit(X)
            timings[kind] = time.perf_counter() - t0
        return timings

    benchmark.pedantic(run, rounds=1, iterations=1)
    base = timings["ckdtree"]
    rows = [[k, f"{timings[k]:.2f}s", f"{timings[k] / base:.1f}x"] for k in KINDS]
    write_result(
        "ablation_index",
        format_table(["index", "runtime", "vs ckdtree"], rows,
                     title=f"Index ablation on http-like (n={N:,})"),
    )


def bench_ablation_sparse_focused(benchmark):
    X, _ = make_http_like(n=N, random_state=0)
    timings: dict[str, float] = {}
    outputs: dict[str, frozenset] = {}

    def run():
        for label, flag in (("sparse-focused", True), ("exhaustive", False)):
            t0 = time.perf_counter()
            res = McCatch(sparse_focused=flag).fit(X)
            timings[label] = time.perf_counter() - t0
            outputs[label] = frozenset(map(int, res.outlier_indices))
        return timings

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, f"{v:.2f}s"] for k, v in timings.items()]
    write_result(
        "ablation_sparse_focused",
        format_table(["join strategy", "runtime"], rows,
                     title=f"Sparse-focused principle ablation (n={N:,})"),
    )
    assert outputs["sparse-focused"] == outputs["exhaustive"], (
        "the sparse-focused principle must not change the detected outliers"
    )
