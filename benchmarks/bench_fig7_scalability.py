"""Fig. 7 (Q3, 'Scalable'): runtime vs data size, measured vs Lemma 1.

Paper: McCatch scales subquadratically on Uniform and Diagonal in 2-50
dimensions; the log-log slope matches 2 - 1/u where u is the intrinsic
(correlation fractal) dimension — slope 1.0 for Diagonal (u = 1),
1.5 / 1.95 / 1.98 for Uniform in 2 / 20 / 50 dims.

Index note: Lemma 1 assumes the *count-only principle* — the tree
counts whole subtrees inside a query ball in O(1).  The flat metric
trees implement that shortcut: their walk credits a node the query ball
swallows with its stored ``size``.  scipy's cKDTree (an explicit
index kind) enumerates neighbors on its count queries, which is
quadratic when counts are Θ(n) as on the Diagonal.  The low-fractal-
dimension cases therefore run on the count-only VP-tree, while the
Uniform cases (whose expected slope is ~2 − 1/50 ≈ 1.98 at 50-d
anyway) keep cKDTree.
"""

from __future__ import annotations

from _common import format_table, machine_info, scaled, write_result
from bench_parallel_walk import merge_into_results
from repro import McCatch
from repro.datasets import diagonal_line, uniform_cube
from repro.engine import default_workers
from repro.eval import runtime_sweep
from repro.metric.fractal import correlation_dimension, expected_runtime_slope


def _sizes(max_n: int) -> list[int]:
    return [max(250, max_n // 8), max(500, max_n // 4), max(1000, max_n // 2), max_n]


BOOST = scaled(1.0, lo=0.05, hi=50.0)

#: (label, generator, index kind, max n)  — paper sweeps up to 1M.
CASES = [
    ("uniform-2d", lambda n: uniform_cube(n, 2, random_state=0), "ckdtree",
     int(16_000 * BOOST)),
    ("uniform-20d", lambda n: uniform_cube(n, 20, random_state=0), "ckdtree",
     int(8_000 * BOOST)),
    ("uniform-50d", lambda n: uniform_cube(n, 50, random_state=0), "ckdtree",
     int(6_000 * BOOST)),
    ("diagonal-2d", lambda n: diagonal_line(n, 2, random_state=0), "vptree",
     int(8_000 * BOOST)),
    ("diagonal-50d", lambda n: diagonal_line(n, 50, random_state=0), "vptree",
     int(8_000 * BOOST)),
]


#: Worker count of the sharded sweep (capped by what the machine has).
PARALLEL_WORKERS = min(4, default_workers())


def _parallel_sweep_records() -> dict:
    """Serial vs sharded full-fit runtime on the uniform-2d sweep.

    The same Fig. 7 size ladder, fitted once with the serial batched
    engine and once with ``engine_mode="parallel"`` over a flat-backed
    VP-tree (cKDTree has no arrays to share), recorded into
    ``BENCH_parallel.json`` next to the machine block so the
    serial-vs-sharded curve rides with the scalability artifact.
    """
    gen = CASES[0][1]  # uniform-2d
    sizes = _sizes(CASES[0][3])
    serial = runtime_sweep(
        "uniform-2d-vptree-serial",
        lambda n: McCatch(index="vptree").fit(gen(n)),
        sizes,
    )
    sharded = runtime_sweep(
        f"uniform-2d-vptree-parallel-{PARALLEL_WORKERS}w",
        lambda n: McCatch(
            index="vptree", engine_mode="parallel", workers=PARALLEL_WORKERS
        ).fit(gen(n)),
        sizes,
    )
    return {
        "workers": PARALLEL_WORKERS,
        "machine": machine_info(),
        "serial_slope": round(serial.slope, 3),
        "parallel_slope": round(sharded.slope, 3),
        "points": [
            {
                "n": ps.n,
                "serial_s": round(ps.seconds, 3),
                "parallel_s": round(pp.seconds, 3),
                "speedup": round(ps.seconds / pp.seconds, 2) if pp.seconds else None,
            }
            for ps, pp in zip(serial.points, sharded.points)
        ],
    }


def bench_fig7_scalability(benchmark):
    sweeps = {}
    parallel_record = {}

    def run():
        for label, gen, kind, max_n in CASES:
            u = correlation_dimension(gen(min(2000, max_n)), random_state=0)
            sweeps[label] = runtime_sweep(
                label,
                lambda n, gen=gen, kind=kind: McCatch(index=kind).fit(gen(n)),
                _sizes(max_n),
                expected_slope=expected_runtime_slope(u),
            )
        parallel_record.update(_parallel_sweep_records())
        return sweeps

    benchmark.pedantic(run, rounds=1, iterations=1)
    merge_into_results({"fig7_parallel_sweep": parallel_record})

    rows = []
    for (label, _, kind, _), sweep in zip(CASES, sweeps.values()):
        rows.append(
            [
                label,
                kind,
                " / ".join(f"{p.n}:{p.seconds:.2f}s" for p in sweep.points),
                f"{sweep.slope:.2f}",
                f"{sweep.expected_slope:.2f}",
            ]
        )
    write_result(
        "fig7_scalability",
        format_table(
            ["dataset", "index", "runtime by n", "measured slope", "expected 2-1/u"],
            rows,
            title="Fig. 7 - runtime vs size",
        ),
    )

    for label, sweep in sweeps.items():
        # Subquadratic within measurement noise of the Lemma 1 expectation.
        assert sweep.slope < max(1.9, sweep.expected_slope + 0.15), (
            f"{label}: slope {sweep.slope:.2f} vs expected {sweep.expected_slope:.2f}"
        )
    # The u=1 Diagonal must scale visibly better than quadratic.
    assert sweeps["diagonal-2d"].slope < 1.6
    assert sweeps["diagonal-50d"].slope < 1.7
