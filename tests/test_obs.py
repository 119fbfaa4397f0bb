"""repro.obs: registry semantics, exposition format, sinks, tracing, /metrics.

The contracts pinned here:

- instrument semantics (counters only go up, histograms keep fixed
  buckets, conflicting re-registration fails loudly),
- the ``/metrics`` exposition stays valid Prometheus text 0.0.4 while
  concurrent traffic mutates it, and counters read monotonically
  across scrapes,
- the process sinks merge walk stats without double-counting a reused
  stats dict, and disabling them restores the untouched hot path
  bit for bit,
- request traces land in the access log with every span present and
  mutually ordered,
- ``/healthz`` and ``/metrics`` report the same served-traffic truth,
- telemetry on vs off never changes a score.
"""

import asyncio
import io
import json
import logging
import threading

import numpy as np
import pytest

from repro.api import make_estimator
from repro.cli import main
from repro import McCatch
from repro.core.radii import define_radii
from repro.engine import BatchQueryEngine
from repro.index import build_index
from repro.index import ckernel
from repro.index.base import UNKNOWN_COUNT, count_walk, nearest_walk
from repro.index.ckernel import kernel_available
from repro.metric.base import MetricSpace
from repro.metric.instrumentation import CountingMetricSpace
from repro.obs import (
    MetricsRegistry,
    RequestTrace,
    configure_logging,
    disable_process_telemetry,
    enable_process_telemetry,
    parse_exposition,
    process_sinks_snapshot,
    telemetry_enabled,
    validate_exposition,
)
from repro.obs import hooks
from repro.obs.tracing import SPAN_ORDER, JsonLineFormatter
from repro.serve import MicroBatcher, ScoreClient, ScoringServer

SPEC = "mccatch?index=vptree"


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(3)
    return np.vstack([rng.normal(0.0, 1.0, (150, 3)), [[9.0, 9.0, 9.0]]])


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    return np.vstack([rng.normal(0.0, 1.0, (24, 3)), [[40.0, -40.0, 1.0]]])


@pytest.fixture(scope="module")
def model(dataset):
    return make_estimator(SPEC).fit(dataset)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# registry instruments


class TestRegistryInstruments:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge", "help")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        child = h.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(6.05)
        cumulative = child.cumulative()
        assert [c for _, c in cumulative] == [1, 3, 4]
        assert cumulative[-1][0] == float("inf")

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("t_bad", "help", buckets=(1.0, 0.5))

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_routes_total", "help", labelnames=("route",))
        fam.labels("/score").inc(3)
        fam.labels(route="/healthz").inc()
        assert fam.labels("/score").value == 3.0
        assert fam.labels("/healthz").value == 1.0
        with pytest.raises(ValueError):
            fam.labels("/a", "/b")  # wrong arity
        with pytest.raises(ValueError):
            fam.inc()  # labelled family has no solo child

    def test_reregistration_is_idempotent_but_conflicts_raise(self):
        reg = MetricsRegistry()
        first = reg.counter("t_total", "help")
        assert reg.counter("t_total", "help") is first
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("t_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("t_total", "help", labelnames=("x",))

    def test_callbacks_read_at_collection_time(self):
        reg = MetricsRegistry()
        box = {"n": 0, "by": {}}
        reg.register_callback("t_cb_total", "counter", "help", lambda: box["n"])
        reg.register_callback(
            "t_cb_labelled_total", "counter", "help",
            lambda: box["by"], labelnames=("kind",),
        )
        box["n"] = 7
        box["by"] = {("a",): 2.0, ("b",): 3.0}
        assert reg.read("t_cb_total") == 7.0
        assert reg.read("t_cb_labelled_total") == 5.0
        assert reg.read("t_cb_labelled_total", match={"kind": "b"}) == 3.0
        with pytest.raises(ValueError, match="counter or gauge"):
            reg.register_callback("t_cb_h", "histogram", "help", lambda: 0)

    def test_read_guards(self):
        reg = MetricsRegistry()
        reg.histogram("t_h", "help")
        with pytest.raises(KeyError):
            reg.read("t_missing")
        with pytest.raises(ValueError, match="histogram"):
            reg.read("t_h")


class TestExposition:
    def test_render_parse_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("t_requests_total", "reqs", labelnames=("route",)) \
            .labels("/score").inc(5)
        reg.gauge("t_depth", "queue depth").set(2.0)
        h = reg.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render()
        families = validate_exposition(
            text, require=("t_requests_total", "t_depth", "t_seconds")
        )
        assert families["t_requests_total"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["t_requests_total"]["samples"]
        }
        assert samples[("t_requests_total", (("route", "/score"),))] == 5.0
        hist = {
            (name, labels.get("le")): value
            for name, labels, value in families["t_seconds"]["samples"]
        }
        assert hist[("t_seconds_count", None)] == 2.0
        assert hist[("t_seconds_bucket", "+Inf")] == 2.0

    def test_label_values_escape_and_roundtrip(self):
        reg = MetricsRegistry()
        tricky = 'quo"te\\slash\nnewline'
        reg.counter("t_esc_total", "help", labelnames=("v",)).labels(tricky).inc()
        families = parse_exposition(reg.render())
        (_, labels, value), = families["t_esc_total"]["samples"]
        assert labels["v"] == tricky
        assert value == 1.0

    def test_validator_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="_total"):
            validate_exposition("# TYPE t_x counter\nt_x 1\n")
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_exposition("t_y 1\n")
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("t_z 1 2 3 4\n")
        with pytest.raises(ValueError, match="missing"):
            validate_exposition("# TYPE a_total counter\na_total 1\n",
                                require=("b_total",))

    def test_scrapes_stay_valid_and_monotonic_under_concurrent_writes(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_hits_total", "help", labelnames=("w",))
        hist = reg.histogram("t_obs_seconds", "help")
        stop = threading.Event()

        def hammer(w: str):
            child = fam.labels(w)
            while not stop.is_set():
                child.inc()
                hist.observe(0.01)

        threads = [threading.Thread(target=hammer, args=(str(i),)) for i in range(4)]
        for t in threads:
            t.start()
        try:
            last = -1.0
            for _ in range(25):
                families = validate_exposition(
                    reg.render(), require=("t_hits_total", "t_obs_seconds")
                )
                total = sum(
                    v for name, _, v in families["t_hits_total"]["samples"]
                )
                assert total >= last
                last = total
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert last > 0


# ---------------------------------------------------------------------------
# process sinks (walk + engine hot paths)


@pytest.fixture()
def sinks():
    """Fresh process sinks for one test; restores the prior state after."""
    was_on = telemetry_enabled()
    disable_process_telemetry()
    walk, engine = enable_process_telemetry()
    yield walk, engine
    disable_process_telemetry()
    if was_on:
        enable_process_telemetry()


@pytest.fixture(scope="module")
def walk_setup():
    rng = np.random.default_rng(17)
    space = MetricSpace(rng.normal(size=(80, 3)))
    tree = build_index(space, kind="vptree").flat
    radii = np.array([0.4, 0.9, 1.7])
    qids = np.arange(20)
    return space, tree, radii, qids

class TestProcessSinks:
    def test_walks_merge_into_the_sink(self, sinks, walk_setup):
        walk, _ = sinks
        space, tree, radii, qids = walk_setup
        stats = {}
        count_walk(space, qids, radii, tree, stats=stats)
        merged = walk.as_dict()
        assert merged["walks"] == 1.0
        assert merged["seconds"] > 0.0
        for key, value in stats.items():
            assert merged[key] == float(value)

    def test_nearest_walks_merge_into_the_sink(self, sinks, walk_setup):
        """The serving walk feeds the same sink, so the walk families
        move while a server scores."""
        walk, _ = sinks
        space, tree, _, _ = walk_setup
        rows = np.random.default_rng(3).normal(size=(15, 3))
        stats = {}
        nearest_walk(space, rows, tree, stats=stats)
        merged = walk.as_dict()
        assert merged["walks"] == 1.0
        assert merged["seconds"] > 0.0
        for key in ("steps", "entries", "distance_calls"):
            assert merged[key] == float(stats[key]) > 0

    def test_reused_stats_dict_is_not_double_counted(self, sinks, walk_setup):
        walk, _ = sinks
        space, tree, radii, qids = walk_setup
        # callers may reuse one stats dict across calls; the
        # sink must receive each call's delta, not the running total again
        stats = {}
        count_walk(space, qids, radii, tree, stats=stats)
        count_walk(space, qids, radii, tree, stats=stats)
        merged = walk.as_dict()
        assert merged["walks"] == 2.0
        for key, value in stats.items():
            assert merged[key] == float(value)

    def test_disabled_sinks_change_nothing(self, walk_setup):
        space, tree, radii, qids = walk_setup
        disable_process_telemetry()
        try:
            assert hooks.WALK is None and not telemetry_enabled()
            baseline = count_walk(space, qids, radii, tree)
            assert process_sinks_snapshot() == {}
        finally:
            enable_process_telemetry()
        with_sink = count_walk(space, qids, radii, tree)
        assert np.array_equal(baseline, with_sink)

    def test_fit_populates_walk_and_engine_sinks(self, sinks, dataset):
        walk, engine = sinks
        make_estimator(SPEC).fit(dataset)
        assert walk.get("walks") > 0
        assert engine.get("count_calls") > 0
        assert engine.get("count_queries") >= len(dataset)

    @pytest.mark.parametrize("kwargs", [
        {"index": "ckdtree"},  # scipy's kd-tree: one count call per rung
        {"index": "vptree"},  # flat tree over 3-d Euclidean: one rung per walk
        {"index": "vptree", "engine_mode": "per_point"},
        {"index": "vptree", "engine_mode": "parallel", "workers": 2},
    ])
    def test_every_fit_reports_the_cells_it_computed(self, sinks, dataset, kwargs, monkeypatch):
        """Every plan here walks one rung at a time, so SELFJOINC tallies
        exactly the cells it kept — also when shards run its schedule."""
        _, engine = sinks
        self_join = BatchQueryEngine.self_join_counts
        tallied = []

        def spy(eng, radii, **kw):
            before = engine.get("count_entries")
            counts = self_join(eng, radii, **kw)
            tallied.append(engine.get("count_entries") - before)
            return counts

        monkeypatch.setattr(BatchQueryEngine, "self_join_counts", spy)
        result = McCatch(**kwargs).fit(dataset)
        joined = result.oracle.counts[:, :-1]  # the top rung is never joined
        known = int(np.count_nonzero(joined != UNKNOWN_COUNT))
        assert engine.get("count_calls") > 0
        assert engine.get("count_queries") >= len(dataset)
        assert tallied == [known]

    def test_per_rung_counts_tally_each_computed_cell(self, sinks, dataset):
        """The per-rung plan bumps once per count call, so a SELFJOINC
        over cKDTree reports exactly the cells it computed."""
        _, engine = sinks
        index = build_index(MetricSpace(dataset), kind="ckdtree")
        radii = define_radii(index, 8)
        counts = BatchQueryEngine(index).self_join_counts(radii, max_cardinality=15)
        known = int(np.count_nonzero(counts[:, :-1] != UNKNOWN_COUNT))
        assert engine.get("count_entries") == known
        assert 0 < engine.get("count_calls") <= radii.size - 1

    @pytest.mark.skipif(not kernel_available(), reason="C kernel unavailable")
    def test_traced_vector_fit_moves_the_compiled_walk_counters(
        self, sinks, dataset, monkeypatch
    ):
        """A vector fit counts through the compiled walk: its kernel
        calls, node visits, scanned and settled members reach the walk
        sink, and its distance evaluations reach the counting proxy."""
        walk, _ = sinks
        calls = []
        real = ckernel.compiled_count_walk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ckernel, "compiled_count_walk", spy)
        space = CountingMetricSpace(MetricSpace(dataset))
        McCatch(index="vptree").fit(space)
        assert calls and walk.get("walks") >= len(calls)
        for key in ("steps", "entries", "distance_calls", "leaf_entries_total",
                    "leaf_entries_filtered"):
            assert walk.get(key) > 0, key
        assert walk.get("leaf_entries_filtered") <= walk.get("leaf_entries_total")
        # Every node visit and scanned member is one kernel evaluation.
        assert space.counter.total >= walk.get("entries") + walk.get("leaf_entries_total")

    def test_bound_registry_reads_the_sinks(self, sinks, walk_setup):
        walk, _ = sinks
        space, tree, radii, qids = walk_setup
        reg = MetricsRegistry()
        hooks.bind_process_sinks(reg)
        count_walk(space, qids, radii, tree)
        assert reg.read("repro_walk_calls_total") == walk.get("walks")
        assert reg.read("repro_walk_seconds_total") > 0.0
        validate_exposition(reg.render(), require=(
            "repro_walk_calls_total", "repro_engine_count_calls_total",
        ))


# ---------------------------------------------------------------------------
# tracing


class TestTracing:
    def test_record_orders_spans_by_start(self):
        trace = RequestTrace(request_id="rid-1")
        t0 = trace.t0
        trace.mark("engine_batch", t0 + 0.002, t0 + 0.005)
        trace.mark("parse", t0, t0 + 0.001)
        trace.mark("queue_wait", t0 + 0.001, t0 + 0.002)
        trace.annotate(rows=1)
        record = trace.record(status=200)
        assert record["request_id"] == "rid-1"
        assert record["rows"] == 1 and record["status"] == 200
        assert list(record["spans"]) == ["parse", "queue_wait", "engine_batch"]
        starts = [s["start_ms"] for s in record["spans"].values()]
        assert starts == sorted(starts)

    def test_json_line_formatter(self):
        formatter = JsonLineFormatter()
        record = logging.LogRecord(
            "repro.serve.access", logging.INFO, __file__, 1,
            {"request_id": "x", "spans": {}}, None, None,
        )
        payload = json.loads(formatter.format(record))
        assert payload["request_id"] == "x"
        assert payload["level"] == "info"
        plain = logging.LogRecord(
            "repro.serve", logging.WARNING, __file__, 1, "plain %s", ("msg",), None
        )
        assert json.loads(formatter.format(plain))["msg"] == "plain msg"

    def test_configure_logging_is_idempotent_and_validates(self):
        parent = logging.getLogger("repro.serve")
        before = list(parent.handlers)
        try:
            configure_logging("info", stream=io.StringIO())
            configure_logging("warning", stream=io.StringIO())
            ours = [h for h in parent.handlers
                    if getattr(h, "_repro_obs_handler", False)]
            assert len(ours) == 1
            with pytest.raises(ValueError, match="unknown log level"):
                configure_logging("verbose")
        finally:
            for h in list(parent.handlers):
                if getattr(h, "_repro_obs_handler", False):
                    parent.removeHandler(h)
            parent.handlers.extend(h for h in before if h not in parent.handlers)
            parent.setLevel(logging.NOTSET)


# ---------------------------------------------------------------------------
# the serving tier end to end


async def _score_concurrently(server, rows) -> np.ndarray:
    async def one(i):
        client = await ScoreClient.connect("127.0.0.1", server.port)
        try:
            return await client.score_row(rows[i])
        finally:
            await client.close()

    return np.asarray(
        await asyncio.gather(*(one(i) for i in range(len(rows)))),
        dtype=np.float64,
    )


class TestServerTelemetry:
    def test_metrics_endpoint_is_valid_and_monotonic_under_traffic(
        self, model, batch
    ):
        async def inner():
            server = await ScoringServer(model, port=0, window_s=0.002).start()
            try:
                await _score_concurrently(server, batch)
                client = await ScoreClient.connect("127.0.0.1", server.port)
                try:
                    status, text1 = await client.request("GET", "/metrics")
                    assert status == 200
                    await _score_concurrently(server, batch)
                    status, text2 = await client.request("GET", "/metrics")
                    assert status == 200
                finally:
                    await client.close()
            finally:
                await server.stop()
            return text1, text2

        text1, text2 = run(inner())
        required = (
            "repro_http_requests_total", "repro_http_request_seconds",
            "repro_batcher_batches_total", "repro_batch_rows",
            "repro_batch_queue_wait_seconds", "repro_batch_service_seconds",
            "repro_distance_evaluations_total", "repro_model_generation",
            "repro_server_uptime_seconds", "repro_walk_calls_total",
        )
        first = validate_exposition(text1, require=required)
        second = validate_exposition(text2, require=required)

        def total(families, name):
            return sum(v for sample, _, v in families[name]["samples"]
                       if sample == name)

        served1 = total(first, "repro_http_requests_total")
        served2 = total(second, "repro_http_requests_total")
        assert served1 >= len(batch)
        # monotonic across scrapes: the second saw strictly more traffic
        assert served2 >= served1 + len(batch)
        # the instrumented metric space saw the actual scoring traffic
        assert total(second, "repro_distance_evaluations_total") > 0

    def test_healthz_reports_registry_truth_and_identity(self, model, batch):
        async def inner():
            server = await ScoringServer(model, port=0, window_s=0.002).start()
            try:
                await _score_concurrently(server, batch)
                client = await ScoreClient.connect("127.0.0.1", server.port)
                try:
                    _, health = await client.request("GET", "/healthz")
                    _, text = await client.request("GET", "/metrics")
                finally:
                    await client.close()
            finally:
                await server.stop()
            return health, text

        health, text = run(inner())
        for key in ("model_version", "generation", "uptime_s"):
            assert key in health
        assert health["generation"] == 0
        assert health["uptime_s"] > 0
        families = parse_exposition(text)
        scored = sum(
            v for name, _, v in families["repro_batcher_rows_scored_total"]["samples"]
        )
        # /healthz counters are registry reads: the two views agree
        # (the /healthz request itself is not a scored row)
        assert health["rows_scored"] == scored
        assert health["requests_served"] >= len(batch)

    def test_telemetry_off_scores_identically_and_hides_metrics(self, model, batch):
        async def inner():
            on = await ScoringServer(model, port=0, window_s=0.002).start()
            off = await ScoringServer(
                model, port=0, window_s=0.002, metrics=False
            ).start()
            try:
                scores_on = await _score_concurrently(on, batch)
                scores_off = await _score_concurrently(off, batch)
                client = await ScoreClient.connect("127.0.0.1", off.port)
                try:
                    status, body = await client.request("GET", "/metrics")
                finally:
                    await client.close()
            finally:
                await on.stop()
                await off.stop()
            return scores_on, scores_off, status, body

        scores_on, scores_off, status, body = run(inner())
        assert np.array_equal(scores_on, scores_off)
        assert status == 404
        assert body["error"]["code"] == "metrics_disabled"

    def test_access_log_carries_ordered_spans(self, model, batch):
        stream = io.StringIO()
        parent = logging.getLogger("repro.serve")
        configure_logging("info", stream=stream)
        try:
            async def inner():
                server = await ScoringServer(model, port=0, window_s=0.002).start()
                try:
                    await _score_concurrently(server, batch[:8])
                finally:
                    await server.stop()

            run(inner())
        finally:
            for h in list(parent.handlers):
                if getattr(h, "_repro_obs_handler", False):
                    parent.removeHandler(h)
            parent.setLevel(logging.NOTSET)
        lines = [ln for ln in stream.getvalue().splitlines() if ln.strip()]
        records = [json.loads(ln) for ln in lines]
        scores = [r for r in records if r.get("path") == "/score"]
        assert len(scores) == 8
        assert len({r["request_id"] for r in scores}) == 8
        for record in scores:
            assert record["status"] == 200
            assert record["rows"] == 1
            assert record["batched_rows"] >= 1
            assert record["generation"] == 0
            spans = record["spans"]
            assert set(SPAN_ORDER) <= set(spans)
            # one clock, one origin: rendered offsets are mutually ordered
            starts = [spans[name]["start_ms"] for name in SPAN_ORDER]
            assert starts == sorted(starts)
            assert all(s["dur_ms"] >= 0.0 for s in spans.values())

    def test_shed_requests_warn_with_retry_after(self, caplog):
        async def inner():
            release = asyncio.Event()

            async def slow(rows):
                await release.wait()
                return rows.sum(axis=1)

            batcher = MicroBatcher(slow, window_s=0.0, max_pending=1)
            first = asyncio.ensure_future(batcher.submit(np.ones((1, 2))))
            await asyncio.sleep(0.01)  # head is being scored (blocked)
            second = asyncio.ensure_future(batcher.submit(np.ones((1, 2))))
            await asyncio.sleep(0.01)  # second now occupies the queue
            with pytest.raises(Exception) as excinfo:
                await batcher.submit(np.ones((3, 2)))
            release.set()
            await asyncio.gather(first, second)
            await batcher.drain()
            return excinfo.value

        with caplog.at_level(logging.WARNING, logger="repro.serve.batcher"):
            exc = run(inner())
        assert exc.retry_after >= 1.0
        shed = [r.msg for r in caplog.records
                if isinstance(r.msg, dict) and r.msg.get("event") == "request_shed"]
        assert len(shed) == 1
        event = shed[0]
        assert event["max_pending"] == 1
        assert event["rows"] == 3
        assert event["retry_after_s"] >= 1.0
        assert event["requests_shed"] == 1


# ---------------------------------------------------------------------------
# the stats CLI against a live server


@pytest.fixture()
def live_server(model, batch):
    """A telemetry-on server running in a background thread's loop."""
    loop = asyncio.new_event_loop()
    server = ScoringServer(model, port=0, window_s=0.002)
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        loop.run_until_complete(_score_concurrently(server, batch[:4]))
        started.set()
        loop.run_forever()
        loop.run_until_complete(server.stop())
        loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(20), "server thread failed to start"
    yield server
    loop.call_soon_threadsafe(loop.stop)
    thread.join(20)


class TestStatsCommand:
    def test_stats_scrapes_and_summarises(self, live_server, capsys):
        url = f"http://127.0.0.1:{live_server.port}"
        assert main(["stats", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "repro_http_requests_total" in out
        assert "repro_batcher_rows_scored_total" in out

    def test_stats_raw_dumps_the_exposition(self, live_server, capsys):
        url = f"http://127.0.0.1:{live_server.port}"
        assert main(["stats", "--url", url, "--raw"]) == 0
        out = capsys.readouterr().out
        validate_exposition(out, require=("repro_http_requests_total",))

    def test_stats_unreachable_server_fails_loudly(self):
        with pytest.raises(SystemExit, match="could not scrape"):
            main(["stats", "--url", "http://127.0.0.1:9", "--timeout", "0.5"])
