"""Index construction bench: level-synchronous build times per flat family.

Every flat-backed tree (VP-, ball, cover, M- and Slim-tree) is built one
way: level-synchronously, straight into
:class:`~repro.index.base.FlatTree` arrays.  This bench records the
absolute build wall-clock and node count of each family across sizes,
after asserting each tree's counts bit-identical to brute force on a
boundary-radii ladder.

Results land in ``benchmarks/results/BENCH_index_build.json`` (plus a
text table).  That JSON is tracked in git as the build-time record.

Run:  python benchmarks/bench_index_build.py [--n N ...] [--repeats K]
(the CI smoke step runs one tiny configuration; REPRO_BENCH_SCALE
multiplies the default sizes as usual).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from _common import format_table, machine_info, results_path, scaled, write_result
from repro.index import BallTree, BruteForceIndex, CoverTree, MTree, SlimTree, VPTree
from repro.metric.base import MetricSpace

BOOST = scaled(1.0, lo=0.02, hi=20.0)

DEFAULT_SIZES = [int(1_000 * BOOST), int(10_000 * BOOST), int(50_000 * BOOST)]

FAMILIES = [
    ("vptree", VPTree),
    ("balltree", BallTree),
    ("covertree", CoverTree),
    ("mtree", MTree),
    ("slimtree", SlimTree),
]


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


def _assert_counts_exact(space: MetricSpace, tree, name: str) -> None:
    """A tree must agree with brute force bit for bit before it is timed."""
    n = len(space)
    rng = np.random.default_rng(1)
    q = np.sort(rng.choice(n, size=min(n, 256), replace=False))
    d = space.distances(0, np.arange(min(n, 16)))
    ties = sorted(float(v) for v in d if v > 0)[:3]
    radii = np.sort(np.array([0.0] + ties + [1.0, 4.0], dtype=np.float64))
    expected = BruteForceIndex(space).count_within_many(q, radii)
    if not np.array_equal(tree.count_within_many(q, radii), expected):
        raise AssertionError(f"{name} counts diverge from brute force")


def run(sizes: list[int], repeats: int) -> dict:
    records = []
    for n in sizes:
        space = _dataset(n)
        for name, cls in FAMILIES:
            tree = cls(space)
            _assert_counts_exact(space, tree, name)
            records.append({
                "index": name,
                "n": n,
                "build_s": _best(lambda: cls(space), repeats),
                "nodes": int(tree.flat.n_nodes),
            })
    return {
        "bench": "index_build",
        "repeats": repeats,
        "machine": machine_info(),
        "records": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="*", default=None,
                        help=f"dataset sizes (default {DEFAULT_SIZES})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    args = parser.parse_args()
    sizes = args.n if args.n else DEFAULT_SIZES

    payload = run(sizes, args.repeats)
    results_path("BENCH_index_build.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    rows = [
        [r["index"], r["n"], f"{r['build_s'] * 1000:.1f}", r["nodes"]]
        for r in payload["records"]
    ]
    write_result(
        "index_build",
        format_table(
            ["index", "n", "build ms", "nodes"],
            rows,
            title="Index construction: level-synchronous builds per flat family",
        ),
    )


if __name__ == "__main__":
    main()
