"""Ablation: which metric tree backs the joins on nondimensional data.

Extends the index ablation to the metric-tree family (VP-tree, M-tree,
Slim-tree, cover tree, ball tree) on a string workload under
Levenshtein distance — the regime footnote 4 of the paper assigns to
metric access methods.

Detection output must be identical for every index whose diameter
estimate uses the shared two-scan rule (brute, covertree, balltree);
the others may differ only through the radius ladder.
"""

from __future__ import annotations

import time

import numpy as np

from _common import format_table, scaled, write_result
from repro import McCatch
from repro.metric.strings import levenshtein

# Pure-Python Levenshtein joins price every distance call; 500 strings
# keeps the 6-way comparison to minutes at scale 1 (REPRO_BENCH_SCALE
# raises it toward the paper's 5k Last Names).
N = int(scaled(1.0, lo=0.1, hi=20.0) * 500)
KINDS = ["vptree", "mtree", "slimtree", "covertree", "balltree", "brute"]


def _string_workload(n: int) -> list[str]:
    """US-style surnames plus a planted pair of foreign names."""
    rng = np.random.default_rng(0)
    syllables = ["son", "ton", "ley", "field", "smith", "er", "man", "well", "ford"]
    names = [
        "".join(rng.choice(syllables, size=rng.integers(2, 4)))
        for _ in range(n - 2)
    ]
    return names + ["xochiquetzal", "xochiquetzai"]


def bench_ablation_metric_tree_choice(benchmark):
    words = _string_workload(N)
    timings: dict[str, float] = {}
    outputs: dict[str, frozenset] = {}

    def run():
        for kind in KINDS:
            t0 = time.perf_counter()
            res = McCatch(index=kind).fit(words, metric=levenshtein)
            timings[kind] = time.perf_counter() - t0
            outputs[kind] = frozenset(map(int, res.outlier_indices))
        return timings

    benchmark.pedantic(run, rounds=1, iterations=1)
    base = timings["brute"]
    rows = [[k, f"{timings[k]:.2f}s", f"{base / timings[k]:.1f}x"] for k in KINDS]
    write_result(
        "ablation_metric_trees",
        format_table(
            ["index", "runtime", "speedup vs brute"],
            rows,
            title=f"Metric-tree ablation on {N:,} surnames (Levenshtein)",
        ),
    )
    # Two-scan-diameter kinds share the radius ladder => identical output.
    assert outputs["covertree"] == outputs["balltree"] == outputs["brute"]
    # Every configuration catches the planted near-duplicate pair.
    for kind in KINDS:
        assert {N - 2, N - 1} <= outputs[kind], kind

