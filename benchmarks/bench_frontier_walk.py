"""Compiled vs level-synchronous walk: SELFJOINC.

Measures the compiled count walk
(:func:`repro.index.ckernel.compiled_count_walk`: one GIL-free
``repro_count`` call per radius, each query walking the tree depth
first in C, the margin band re-measured through numpy) against the
numpy level walk (:func:`repro.index.base.level_count_walk`, one grouped
set of NumPy dispatches per tree depth), on the multi-radius
range-counting workload (every point counted at every radius of the
ladder, no drops — SELFJOINC, Alg. 2).

An identity gate runs before any time is recorded: the level walk
against brute force on a query sample, and the compiled walk against
the level walk on every query.  The walk counters ride along in the
JSON: for the level walk ``steps`` is the depth steps walked, for the
compiled walk the kernel calls (one per radius), with ``entries`` its
node visits and ``leaf_entries_total`` / ``leaf_entries_filtered`` the
members it scanned and settled in C.  A query-sharding sweep
(:class:`repro.engine.parallel.ShardedWalkExecutor`, which shards
vector data on threads) rides along for the compiled walk, whose kernel
drops the GIL for each whole call.

Results land in ``benchmarks/results/BENCH_walk.json`` (the
level-vs-compiled records) and
``benchmarks/results/BENCH_ckernel.json`` (compiled-kernel
acceptance: >=1.5x single-core over level at n=50k on 2-d vptree, with
the machine block and kernel provenance embedded).

Run:  python benchmarks/bench_frontier_walk.py [--n N ...]
          [--repeats K] [--index KIND] [--workers W ...]
(the CI smoke step runs one tiny configuration; REPRO_BENCH_SCALE
multiplies the default sizes as usual.  Without a C compiler the
compiled columns are recorded as null and the acceptance section says
why.)
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from _common import format_table, machine_info, results_path, scaled, write_result
from repro.core.radii import define_radii
from repro.engine.parallel import ShardedWalkExecutor
from repro.index import BruteForceIndex, build_index
from repro.index.base import level_count_walk
from repro.index.ckernel import compiled_count_walk, kernel_available, kernel_info
from repro.metric.base import MetricSpace

BOOST = scaled(1.0, lo=0.02, hi=20.0)

DEFAULT_SIZES = [int(10_000 * BOOST), int(50_000 * BOOST)]
DEFAULT_WORKERS = [1, 2, 4]
N_RADII = 15

#: Dispatch counters the level walk accumulates (see ``_WALK_STAT_KEYS``).
OP_KEYS = ("steps", "entries", "distance_calls", "searchsorted_calls", "scatter_calls")

#: Counters the compiled walk reports.
COMPILED_OP_KEYS = (
    "steps", "entries", "distance_calls", "leaf_entries_total", "leaf_entries_filtered",
)

#: Queries of the brute-force spot check run before timing.
ORACLE_SAMPLE = 256


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


def run(sizes: list[int], repeats: int, kind: str, workers: list[int]) -> dict:
    compiled_ok = kernel_available()
    records = []
    shard_records = []
    for n in sizes:
        space = _dataset(n)
        index = build_index(space, kind=kind)
        radii = define_radii(index, N_RADII)
        flat, ids = index.flat, index.ids

        level_ops: dict = {}
        expected = level_count_walk(space, ids, radii, flat, stats=level_ops)
        sample = np.random.default_rng(1).choice(n, size=min(n, ORACLE_SAMPLE), replace=False)
        assert np.array_equal(
            expected[sample], BruteForceIndex(space).count_within_many(ids[sample], radii)
        ), f"level walk diverged from brute force at n={n}"
        compiled_s = None
        compiled_ops: dict = {}
        if compiled_ok:
            compiled = compiled_count_walk(space, ids, radii, flat, stats=compiled_ops)
            assert np.array_equal(compiled, expected), (
                f"compiled walk diverged from the level walk at n={n}"
            )
            compiled_s = _best(
                lambda: compiled_count_walk(space, ids, radii, flat), repeats
            )

        level_s = _best(lambda: level_count_walk(space, ids, radii, flat), repeats)
        records.append(
            {
                "n": n,
                "index": kind,
                "level_s": round(level_s, 4),
                "compiled_s": None if compiled_s is None else round(compiled_s, 4),
                "compiled_speedup": (
                    round(level_s / compiled_s, 2)
                    if compiled_s and compiled_s > 0 else None
                ),
                "level_ops": {k: level_ops[k] for k in OP_KEYS},
                "compiled_ops": (
                    {k: compiled_ops[k] for k in COMPILED_OP_KEYS}
                    if compiled_ok else None
                ),
            }
        )

        if compiled_ok and n == max(sizes):
            # Sharding sweep on the largest size only: the thread pool's
            # win is throughput at scale, not tiny-n dispatch.  The
            # executor runs the compiled walk, since the kernel builds.
            for w in workers:
                executor = ShardedWalkExecutor(index, workers=w)
                sharded = executor.count_within_many(ids, radii)
                assert np.array_equal(sharded, expected), (
                    f"sharded compiled walk diverged at n={n}, workers={w}"
                )
                shard_s = _best(
                    lambda: executor.count_within_many(ids, radii), repeats
                )
                shard_records.append(
                    {
                        "n": n,
                        "workers": w,
                        "backend": executor.backend,
                        "walk": "compiled",
                        "wall_s": round(shard_s, 4),
                    }
                )

    return {
        "bench": "frontier_walk",
        "workload": "SELFJOINC",
        "n_radii": N_RADII,
        "dataset": "gaussian-2d",
        "repeats": repeats,
        "machine": machine_info(),
        "kernel": kernel_info(),
        "records": records,
        "sharding": shard_records,
    }


def merge_into_results(payload: dict, name: str = "BENCH_walk.json") -> None:
    """Write a results JSON, preserving sections other runs recorded."""
    path = results_path(name)
    merged = {}
    if path.is_file():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def ckernel_payload(payload: dict) -> dict:
    """The compiled-kernel acceptance record for BENCH_ckernel.json."""
    best = None
    for r in payload["records"]:
        if r["compiled_speedup"] is not None and (
            best is None or r["n"] > best["n"]
        ):
            best = r
    return {
        "bench": "ckernel",
        "workload": payload["workload"],
        "n_radii": payload["n_radii"],
        "dataset": payload["dataset"],
        "repeats": payload["repeats"],
        "machine": payload["machine"],
        "kernel": payload["kernel"],
        "acceptance": {
            "target": "compiled >= 1.5x single-core over level at the largest n",
            "n": None if best is None else best["n"],
            "level_s": None if best is None else best["level_s"],
            "compiled_s": None if best is None else best["compiled_s"],
            "compiled_speedup": None if best is None else best["compiled_speedup"],
            "met": bool(best and best["compiled_speedup"] >= 1.5),
        },
        "records": payload["records"],
        "sharding": payload["sharding"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="*", default=None,
                        help=f"dataset sizes (default {DEFAULT_SIZES})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--index", default="vptree",
                        help="flat-backed index kind (default vptree)")
    parser.add_argument("--workers", type=int, nargs="*", default=None,
                        help=f"query-sharding sweep (default {DEFAULT_WORKERS})")
    args = parser.parse_args()

    payload = run(
        args.n or DEFAULT_SIZES, args.repeats, args.index,
        args.workers or DEFAULT_WORKERS,
    )
    merge_into_results({"frontier_walk": payload})
    merge_into_results({"ckernel": ckernel_payload(payload)}, "BENCH_ckernel.json")
    rows = [
        [
            r["n"],
            f"{r['level_s'] * 1000:.1f}",
            "n/a" if r["compiled_s"] is None else f"{r['compiled_s'] * 1000:.1f}",
            (
                f"{r['compiled_speedup']:.2f}x"
                if r["compiled_speedup"] is not None else "n/a"
            ),
        ]
        for r in payload["records"]
    ]
    write_result(
        "frontier_walk",
        format_table(
            ["n", "level ms", "compiled ms", "compiled/level"],
            rows,
            title="Frontier walks - SELFJOINC single-core wall-clock",
        ),
    )
    if payload["sharding"]:
        write_result(
            "ckernel_sharding",
            format_table(
                ["n", "workers", "wall ms"],
                [
                    [s["n"], s["workers"], f"{s['wall_s'] * 1000:.1f}"]
                    for s in payload["sharding"]
                ],
                title="Compiled walk - query sharding on threads",
            ),
        )


if __name__ == "__main__":
    main()
