"""The ``serve-http`` workload: a published model served by ``repro serve``.

Set-up fits the model through ``make_estimator`` (the spec ``repro
fit --spec mccatch --registry`` runs), publishes it with
``ModelRegistry`` and starts ``repro serve`` in its own process with
its defaults, up to the first 200 on ``/healthz``.  Load comes from
this process over two keep-alive connections, using held-out rows of a
separate seed.  Before timing, a probe block scored over HTTP must be
bit-identical to offline ``score_batch`` on the published artifact;
every later response is checked against the same offline scores.

Untraced phases, in alternating bursts each after one more timed fit:
``interactive`` (single rows, open loop at :data:`RATE` req/s, timed
from when each request was due) and ``bulk`` (256-row requests, closed
loop).  The traced run serves the same model twice: once plainly for a
bulk baseline, then at ``--log-level info`` for every phase (100 and
250 req/s, a closed-loop capacity pass, bulk), reading the access-log
spans and ``/metrics`` deltas per phase.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from mcbench.common import SETUP_REPS, Tally, cold_setup, mean, median, percentile
from mcbench.fitrun import TracedFits, warm_up
from mcbench.load import (
    Connection,
    Phase,
    ServerError,
    ServerProcess,
    closed_loop,
    http_requests,
    metric_sum,
    open_loop,
)

RATE = 100.0
BURSTS = 6
PROBE_ROWS = 64
#: Open-loop runs whose generator lag p99 exceeds this share of the
#: send interval are flagged as behind schedule.
LATE_SHARE = 0.2
SPAN_NAMES = ("parse", "queue_wait", "engine_batch", "walk", "respond")


def offline_reference(artifact: Path, pool: np.ndarray) -> np.ndarray:
    from repro.api import load_model

    return np.asarray(load_model(artifact).score_batch(pool), dtype=np.float64)


def probe(conn: Connection, pool: np.ndarray, reference: np.ndarray, tally: Tally) -> None:
    body = json.dumps({"rows": pool[:PROBE_ROWS].tolist()}).encode()
    try:
        scores = np.asarray(conn.score(body), dtype=np.float64)
        failures = [] if np.array_equal(scores, reference[:PROBE_ROWS]) else [
            "served scores differ from offline score_batch on the artifact"]
    except ServerError as exc:
        failures = [f"probe answered {exc.kind}"]
    tally.operation(failures, "probe block")


def late_flag(phase, rate: float) -> dict:
    late_p99_ms = percentile(phase.late_s, 99) * 1e3
    behind = late_p99_ms > LATE_SHARE * 1e3 / rate
    if behind:
        print(f"warning: the {rate:g} req/s generator ran behind schedule "
              f"(lag p99 {late_p99_ms:.2f} ms); its latencies include that lag",
              file=sys.stderr)
    return {"late_p99_ms": late_p99_ms, "behind_schedule": behind}


def run_untraced(workload, seed: int, seconds: float, checkout) -> tuple[Tally, dict, dict]:
    from repro.api import ModelRegistry

    tally = Tally()
    warm_up(workload, seed)
    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=checkout.tmp))
    server = None
    conns: list[Connection] = []
    try:
        setups, fit_times, qualities = [], [], []

        def fit(j: int):
            data, labels = workload.fit_input(seed, j)
            t0 = time.perf_counter()
            fitted = workload.fit(data)
            fit_times.append(time.perf_counter() - t0)
            tally.operation([], f"fit of input {j}")
            qualities.append(workload.quality(fitted.result, labels))
            return fitted

        for r in range(SETUP_REPS):
            probe_s = cold_setup(checkout, workload.name, seed)
            fitted = fit(r)
            t0 = time.perf_counter()
            record = ModelRegistry(scratch / f"registry-{r}").publish(fitted.model)
            publish_s = time.perf_counter() - t0
            if server is not None:
                server.stop()
            server = ServerProcess(checkout, scratch / f"registry-{r}")
            setups.append(probe_s + fit_times[-1] + publish_s + server.wait_ready())

        pool = workload.queries(seed)
        reference = offline_reference(record.path, pool)
        conns = [Connection(server.port) for _ in range(2)]
        senders = [conn.score for conn in conns]
        probe(conns[0], pool, reference, tally)
        singles = http_requests(pool, reference, 1)
        blocks = http_requests(pool, reference, workload.block)
        tally.phase("warm-up", closed_loop(senders, singles, 0.5))
        # Alternating bursts, with a fit (of a further input, while the
        # server idles) before each pair, spread every metric over the
        # whole run: a slow spell of the machine touches a share of each.
        interactive, bulk = Phase(), Phase()
        for b in range(BURSTS):
            fit(SETUP_REPS + b)
            open_loop(senders, singles, RATE, 0.5 * seconds / BURSTS, interactive)
            closed_loop(senders, blocks, 0.5 * seconds / BURSTS, bulk)
        tally.operation(workload.judge(qualities),
                        f"detection quality over {len(qualities)} fits")
        tally.phase("interactive", interactive)
        tally.phase("bulk", bulk)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {
        "setup_s": median(setups),
        "fit_s": median(fit_times),
        "peak_rss_mb": peak_rss_mb,
        "bulk.rows_per_s": bulk.rows / bulk.elapsed,
    }
    details = {
        "setup_s": setups,
        "fit_s": fit_times,
        "quality": qualities,
        "phases": {"interactive": interactive.summary(), "bulk": bulk.summary()},
        "load": late_flag(interactive, RATE),
    }
    return tally, metrics, details


def span_means(records: list[dict], rows: int, since: float) -> dict[str, float]:
    """Mean span milliseconds of the ``rows``-row requests logged since ``since``."""
    chosen = [r for r in records if r.get("rows") == rows and r.get("ts", 0) >= since - 1e-3]
    out = {"requests": float(len(chosen))}
    for name in SPAN_NAMES:
        out[name] = mean([r["spans"].get(name, {}).get("dur_ms", 0.0) for r in chosen])
    out["engine_batch_self"] = mean([
        r["spans"].get("engine_batch", {}).get("dur_ms", 0.0)
        - r["spans"].get("walk", {}).get("dur_ms", 0.0)
        for r in chosen
    ])
    out["batch_rows"] = mean([r.get("batched_rows", 0) for r in chosen])
    return out


def server_mean_ms(before: dict, after: dict) -> float:
    """Mean ``/score`` request seconds the server saw between two scrapes, in ms."""
    total = (metric_sum(after, "repro_http_request_seconds_sum", route="/score")
             - metric_sum(before, "repro_http_request_seconds_sum", route="/score"))
    count = (metric_sum(after, "repro_http_request_seconds_count", route="/score")
             - metric_sum(before, "repro_http_request_seconds_count", route="/score"))
    return total / count * 1e3 if count else 0.0


def phase_layers(prefix: str, spans: dict, client_ms: float, server_ms: float) -> dict:
    return {
        f"serve.{prefix}.parse_ms": spans["parse"],
        f"serve.{prefix}.queue_wait_ms": spans["queue_wait"],
        f"serve.{prefix}.engine_batch_self_ms": spans["engine_batch_self"],
        f"serve.{prefix}.walk_ms": spans["walk"],
        f"serve.{prefix}.respond_ms": spans["respond"],
        f"serve.{prefix}.batch_rows": spans["batch_rows"],
        f"serve.{prefix}.client_gap_ms": client_ms - server_ms,
    }


def run_traced(workload, seed: int, seconds: float, checkout) -> tuple[Tally, dict, dict]:
    from repro.api import ModelRegistry

    tally = Tally()
    warm_up(workload, seed)
    data, _ = workload.fit_input(seed, 0)
    fits = TracedFits(workload)
    plain, _ = fits.pair(data, tally, "fit of input 0", traced_first=False)
    metrics = fits.metrics()
    fit_overhead = metrics.pop("trace.overhead")

    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=checkout.tmp))
    servers: list[ServerProcess] = []
    conns: list[Connection] = []
    try:
        t0 = time.perf_counter()
        record = ModelRegistry(scratch / "registry").publish(plain.model)
        metrics["io.publish_s"] = time.perf_counter() - t0
        metrics["io.artifact_mb"] = record.path.stat().st_size / 2**20
        pool = workload.queries(seed)
        reference = offline_reference(record.path, pool)
        singles = http_requests(pool, reference, 1)
        blocks = http_requests(pool, reference, workload.block)

        # Plain server: the bulk baseline for the tracing overhead.
        servers.append(ServerProcess(checkout, scratch / "registry"))
        metrics["serve.ready_s"] = servers[-1].wait_ready()
        conns = [Connection(servers[-1].port) for _ in range(2)]
        senders = [conn.score for conn in conns]
        probe(conns[0], pool, reference, tally)
        tally.phase("warm-up", closed_loop(senders, singles, 0.5))
        baseline = closed_loop(senders, blocks, 0.15 * seconds)
        tally.phase("baseline bulk", baseline)
        for conn in conns:
            conn.close()
        servers[-1].stop()

        server = ServerProcess(checkout, scratch / "registry", access_log=True)
        servers.append(server)
        server.wait_ready()
        conns = [Connection(server.port) for _ in range(2)]
        senders = [conn.score for conn in conns]
        probe(conns[0], pool, reference, tally)
        tally.phase("warm-up", closed_loop(senders, singles, 0.5))
        m0 = server.metrics()
        r100 = open_loop(senders, singles, RATE, 0.25 * seconds)
        r250 = open_loop(senders, singles, 250.0, 0.15 * seconds)
        capacity = closed_loop(senders, singles, 0.1 * seconds)
        m1 = server.metrics()
        bulk = closed_loop(senders, blocks, 0.2 * seconds)
        m2 = server.metrics()
        for name, phase in (("r100", r100), ("r250", r250), ("capacity", capacity),
                            ("bulk", bulk)):
            tally.phase(name, phase)
        time.sleep(0.2)  # the server logs a request just after answering it
        records = list(server.records)
    finally:
        for conn in conns:
            conn.close()
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    interactive_client = mean(r100.service_s + r250.service_s + capacity.service_s) * 1e3
    metrics.update(phase_layers(
        "interactive", span_means(records, 1, r100.wall_start),
        interactive_client, server_mean_ms(m0, m1)))
    metrics.update(phase_layers(
        "bulk", span_means(records, workload.block, bulk.wall_start),
        mean(bulk.service_s) * 1e3, server_mean_ms(m1, m2)))

    def delta(name: str) -> float:
        return metric_sum(m2, name) - metric_sum(m0, name)

    rows = delta("repro_batcher_rows_scored_total")
    metrics["serve.distance_evals_per_row"] = (
        delta("repro_distance_evaluations_total") / rows if rows else 0.0)
    metrics["serve.walk_calls"] = delta("repro_walk_calls_total")
    metrics["serve.shed"] = delta("repro_batcher_requests_shed_total")
    late = {"r100": late_flag(r100, RATE), "r250": late_flag(r250, 250.0)}
    metrics["load.late_p99_ms"] = max(flag["late_p99_ms"] for flag in late.values())
    metrics["trace.overhead"] = (percentile(bulk.service_s, 50)
                                 / percentile(baseline.service_s, 50) - 1.0)
    details = {
        "fit_trace_overhead": fit_overhead,
        "phases": {
            "baseline_bulk": baseline.summary(),
            "r100": r100.summary(),
            "r250": r250.summary(),
            "capacity": capacity.summary(),
            "bulk": bulk.summary(),
        },
        "load": late,
        "access_log_records": len(records),
    }
    return tally, metrics, details
