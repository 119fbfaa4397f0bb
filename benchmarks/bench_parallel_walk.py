"""Parallel sharded walks: serial vs multi-worker SELFJOINC wall-clock.

Measures the workload the paper's scalability claim rests on — every
point range-counted at every radius of the ladder (SELFJOINC, Alg. 2)
— executed serially (``BatchQueryEngine(mode="batched")``) and sharded
across worker pools of increasing size
(:class:`repro.engine.ShardedWalkExecutor` via ``mode="parallel"``).
Counts are asserted bit-identical at every configuration before any
time is recorded; the speedup curves land in
``benchmarks/results/BENCH_parallel.json`` (plus a text table)
together with the machine block (:func:`_common.machine_info`), since
a speedup is only interpretable next to the core count that produced
it.  The acceptance target — >=3x at n=10k on SELFJOINC — needs 4+
usable cores; on fewer cores the recorded curve documents exactly
that.

Run:  python benchmarks/bench_parallel_walk.py [--n N ...]
          [--workers W ...] [--repeats K] [--index KIND]
(the CI smoke step runs one tiny 2-worker configuration;
REPRO_BENCH_SCALE multiplies the default sizes as usual.)
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from _common import format_table, machine_info, results_path, scaled, write_result
from repro.core.radii import define_radii
from repro.engine import BatchQueryEngine, default_workers
from repro.index import build_index
from repro.metric.base import MetricSpace

BOOST = scaled(1.0, lo=0.02, hi=20.0)

DEFAULT_SIZES = [int(2_000 * BOOST), int(10_000 * BOOST)]
DEFAULT_WORKERS = [1, 2, 4, 8]
N_RADII = 15


def _dataset(n: int) -> MetricSpace:
    rng = np.random.default_rng(0)
    return MetricSpace(rng.normal(size=(n, 2)))


def _best(f, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)


def run(sizes: list[int], worker_counts: list[int], repeats: int, kind: str) -> dict:
    records = []
    for n in sizes:
        space = _dataset(n)
        index = build_index(space, kind=kind)
        radii = define_radii(index, N_RADII)
        c = math.ceil(0.1 * n)
        serial_engine = BatchQueryEngine(index)
        expected = serial_engine.self_join_counts(radii, max_cardinality=c)
        serial_s = _best(
            lambda: serial_engine.self_join_counts(radii, max_cardinality=c), repeats
        )
        for workers in worker_counts:
            engine = BatchQueryEngine(index, mode="parallel", workers=workers)
            counts = engine.self_join_counts(radii, max_cardinality=c)
            assert np.array_equal(counts, expected), (
                f"parallel counts diverged at n={n}, workers={workers}"
            )
            parallel_s = _best(
                lambda e=engine: e.self_join_counts(radii, max_cardinality=c), repeats
            )
            records.append(
                {
                    "n": n,
                    "index": kind,
                    "workers": workers,
                    "serial_s": round(serial_s, 4),
                    "parallel_s": round(parallel_s, 4),
                    "speedup": round(serial_s / parallel_s, 2)
                    if parallel_s > 0
                    else None,
                }
            )
    return {
        "bench": "parallel_walk",
        "workload": "SELFJOINC",
        "n_radii": N_RADII,
        "dataset": "uniform-2d",
        "backend": "thread",  # vector data shards on threads
        "repeats": repeats,
        "machine": machine_info(),
        "records": records,
    }


def merge_into_results(payload: dict) -> None:
    """Write BENCH_parallel.json, preserving any sections other benches
    (fig. 7's parallel sweep) already recorded there."""
    path = results_path("BENCH_parallel.json")
    merged = {}
    if path.is_file():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="*", default=None,
                        help=f"dataset sizes (default {DEFAULT_SIZES})")
    parser.add_argument("--workers", type=int, nargs="*", default=None,
                        help=f"worker counts to sweep (default {DEFAULT_WORKERS})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--index", default="vptree",
                        help="flat-backed index kind (default vptree)")
    args = parser.parse_args()

    payload = run(
        args.n or DEFAULT_SIZES, args.workers or DEFAULT_WORKERS, args.repeats, args.index
    )
    merge_into_results({"parallel_walk": payload})
    rows = [
        [
            r["n"],
            r["workers"],
            f"{r['serial_s'] * 1000:.1f}",
            f"{r['parallel_s'] * 1000:.1f}",
            f"{r['speedup']:.2f}x" if r["speedup"] is not None else "n/a",
        ]
        for r in payload["records"]
    ]
    cores = payload["machine"]["usable_cpus"] or payload["machine"]["cpu_count"]
    write_result(
        "parallel_walk",
        format_table(
            ["n", "workers", "serial ms", "sharded ms", "speedup"],
            rows,
            title=(
                "Parallel sharded walks - SELFJOINC wall-clock "
                f"({cores} usable core(s), workers={default_workers()} default)"
            ),
        ),
    )


if __name__ == "__main__":
    main()
