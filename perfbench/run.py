"""McCatch fit and serve, end to end: the repository's benchmark command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect-http --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``detect-http``: ``McCatch()`` defaults on ``make_http_like`` (cKDTree).
- ``fit-http-sharded``: the same data, ``mccatch?index=vptree&engine=parallel&workers=2``.
- ``serve-http``: a published model behind ``repro serve``, loaded over HTTP.

The program is used only through its public surfaces (``McCatch``,
``make_estimator``, ``ModelRegistry``, ``load_model`` and ``repro
serve``), built from the checkout's ``src/``.  ``--trace 0`` prints
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the
same workload with per-layer spans and counters and prints every
per-layer metric (0 for a layer the workload does not reach, listed
under ``not_exercised`` in the report).  The line before the last is a
JSON report with the raw samples, the checks, and a machine and
provenance block; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the failure fraction: a fit or a run's
detection quality that fails its output check, a request that does not
get a 200 with the offline scores, and a shed (429) request each count
as one failure.  Everything written goes under ``.bench_build/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from mcbench.common import Checkout  # noqa: E402
from mcbench.workloads import NAMES  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: one cold set-up (imports, inputs, kernel load)")
    return parser.parse_args(argv)


def probe(workload, seed: int) -> None:
    from repro.index.ckernel import get_kernel

    workload.fit_input(seed, 0)
    workload.queries(seed)
    get_kernel()


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the finally blocks stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checkout = Checkout(ROOT)
    if not checkout.has_program():
        print(f"error: no program sources at {checkout.src}/repro", file=sys.stderr)
        return 2
    checkout.prepare()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(checkout.src.resolve()):
        print(f"error: imported repro from {repro.__file__}, not {checkout.src}",
              file=sys.stderr)
        return 2
    from mcbench.workloads import workloads

    workload = workloads()[args.workload]
    if args.probe:
        probe(workload, args.seed)
        return 0

    from mcbench import fitrun, serverun
    from mcbench.common import machine_block
    from repro.index.ckernel import kernel_available

    kernel_available()  # builds the kernel on a checkout's first run (not timed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = serverun if workload.serves else fitrun
    run = module.run_traced if args.trace else module.run_untraced
    tally, measured, details = run(workload, args.seed, args.seconds, checkout)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if not args.trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "not_exercised": missing,
        "wrong": tally.wrong,
        "details": details,
        "machine": machine_block(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
