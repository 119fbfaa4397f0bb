"""Fit workloads: timed fits on fresh inputs, each followed by held-out scoring.

The untraced run times each fit on a plain input with no sinks
installed.  After each fit it scores blocks of held-out rows the way a
library caller does (``score_batch``, one caller, closed loop), cycling
over the models of the first fits, for ``bulk.rows_per_s``.

The traced run fits each input twice, plain and traced (alternating
which goes first), checks that both give bit-identical verdicts, and
reports the traced fits' per-layer means plus the tracing overhead.
Detection quality is judged on untraced runs only.
"""

from __future__ import annotations

import time

import numpy as np

from mcbench.common import SETUP_REPS, Tally, cold_setup, median, peak_rss_mb_self
from mcbench.layers import LayerLog, TimedCountingSpace, fit_layer_metrics, traced_fit_layers
from mcbench.load import Phase, Request, closed_loop
from mcbench.workloads import same_verdict

#: After each fit, held-out scoring runs for this share of the fit's
#: time: a run spends about 75% fitting and 25% scoring.
BURST_SHARE = 1.0 / 3.0
MIN_FITS = 3
#: Held-out scoring cycles over the models of this many fits.
SCORING_MODELS = 8


def warm_up(workload, seed: int) -> None:
    """One small fit and score, so lazy set-up (kernel load, thread
    pools, first-call caches) is not timed."""
    data, _ = workload.warmup_input(seed)
    fitted = workload.fit(data)
    fitted.score(data[:2])


def reference_scores(score, pool, block: int) -> np.ndarray:
    return np.concatenate([
        np.asarray(score(pool[i:i + block]), dtype=np.float64)
        for i in range(0, len(pool), block)
    ])


def scoring_requests(models, pool, references, rows: int) -> list[Request]:
    """Requests of ``rows`` pool rows that cycle over the models, so a
    phase's cost averages over several fitted inputs."""
    return [
        Request((k, pool[i:i + rows]), references[k][i:i + rows], rows)
        for i in range(0, len(pool) - rows + 1, rows)
        for k in range(len(models))
    ]


def model_sender(models):
    return lambda payload: models[payload[0]].score(payload[1])


def run_untraced(workload, seed: int, seconds: float, checkout) -> tuple[Tally, dict, dict]:
    tally = Tally()
    setups = [cold_setup(checkout, workload.name, seed) for _ in range(SETUP_REPS)]
    warm_up(workload, seed)
    pool = workload.queries(seed)

    # Each fit is followed by a scoring burst, so a slow spell of the
    # machine touches a share of both metrics' samples instead of all
    # samples of one.
    fit_times, qualities, models, references = [], [], [], []
    bulk = Phase()
    send = [model_sender(models)]
    deadline = time.perf_counter() + seconds
    j = 0
    while j < MIN_FITS or time.perf_counter() < deadline:
        data, labels = workload.fit_input(seed, j)
        t0 = time.perf_counter()
        fitted = workload.fit(data)
        fit_times.append(time.perf_counter() - t0)
        tally.operation([], f"fit of input {j}")
        qualities.append(workload.quality(fitted.result, labels))
        if j == 0:
            plan_input = data
        if len(models) < SCORING_MODELS:
            models.append(fitted)
            references.append(reference_scores(fitted.score, pool, workload.block))
        closed_loop(send, scoring_requests(models, pool, references, workload.block),
                    BURST_SHARE * fit_times[-1], bulk)
        j += 1
    tally.operation(workload.judge(qualities), f"detection quality over {j} fits")
    plan = workload.plan_check(plan_input, models[0])
    if plan is not None:
        tally.operation(plan, "plan check of input 0")
    tally.phase("bulk", bulk)

    metrics = {
        "setup_s": median(setups),
        "fit_s": median(fit_times),
        "peak_rss_mb": peak_rss_mb_self(),
        "bulk.rows_per_s": bulk.rows / bulk.elapsed,
    }
    details = {
        "setup_s": setups,
        "fit_s": fit_times,
        "quality": qualities,
        "phases": {"bulk": bulk.summary()},
    }
    return tally, metrics, details


def traced_fit(workload, data, log: LayerLog):
    """One fit on a counting proxy with every layer wrapper installed.

    Returns ``(fitted, seconds, space)``.
    """
    from repro.metric.base import MetricSpace

    space = TimedCountingSpace(MetricSpace(data))
    with traced_fit_layers(log):
        t0 = time.perf_counter()
        fitted = workload.fit(space)
        elapsed = time.perf_counter() - t0
    return fitted, elapsed, space


class TracedFits:
    """Accumulates paired plain/traced fits into per-layer metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.log = LayerLog()
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.fits = 0
        self.points = 0.0
        self.outliers = 0.0
        self.evals = 0.0
        self.distance_s = 0.0

    def pair(self, data, tally: Tally, what: str, traced_first: bool):
        """Fit ``data`` plain and traced; returns ``(plain, traced)``."""
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                traced_model, elapsed, space = traced_fit(self.workload, data, self.log)
                self.traced_s.append(elapsed)
                self.evals += space.counter.total
                self.distance_s += space.counter.seconds
            else:
                t0 = time.perf_counter()
                plain_model = self.workload.fit(data)
                self.plain_s.append(time.perf_counter() - t0)
        same = same_verdict(plain_model.result, traced_model.result)
        tally.operation([] if same else ["traced fit differs from the untraced fit"], what)
        self.fits += 1
        self.points += len(data)
        self.outliers += traced_model.result.n_outliers
        return plain_model, traced_model

    def metrics(self) -> dict[str, float]:
        out = fit_layer_metrics(
            self.log, self.fits, self.points / self.fits, self.outliers / self.fits,
            self.evals, self.distance_s,
        )
        out["trace.overhead"] = median(self.traced_s) / median(self.plain_s) - 1.0
        return out


def run_traced(workload, seed: int, seconds: float, checkout) -> tuple[Tally, dict, dict]:
    tally = Tally()
    warm_up(workload, seed)
    fits = TracedFits(workload)
    deadline = time.perf_counter() + 0.8 * seconds
    first = None
    j = 0
    while j < 2 or time.perf_counter() < deadline:
        data, _ = workload.fit_input(seed, j)
        pair = fits.pair(data, tally, f"fit of input {j}", traced_first=bool(j % 2))
        first = first or pair
        j += 1

    # Held-out scoring on the traced model counts the distances per row.
    plain, traced = first
    pool = workload.queries(seed)[: 4 * workload.block]
    reference = reference_scores(plain.score, pool, workload.block)
    counter = traced.core.space.counter
    before = counter.total
    served = reference_scores(traced.score, pool, workload.block)
    tally.operation(
        [] if np.array_equal(served, reference) else ["traced model scores differ"],
        "held-out scoring",
    )
    metrics = fits.metrics()
    metrics["serve.distance_evals_per_row"] = (counter.total - before) / len(pool)
    details = {"plain_fit_s": fits.plain_s, "traced_fit_s": fits.traced_s}
    return tally, metrics, details
