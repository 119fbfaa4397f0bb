"""repro.serve: micro-batching, the HTTP boundary, hot swap."""

import asyncio
import json

import numpy as np
import pytest

from repro.api import ModelRegistry, make_estimator
from repro.cli import main
from repro.serve import (
    BatcherClosed,
    BatcherOverloaded,
    MicroBatcher,
    RegistryWatcher,
    ScoreClient,
    ScoringServer,
)

SPEC = "mccatch?index=vptree"


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    return np.vstack([rng.normal(0.0, 1.0, (150, 3)), [[9.0, 9.0, 9.0]]])


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    return np.vstack([rng.normal(0.0, 1.0, (40, 3)), [[55.0, -55.0, 0.0]]])


@pytest.fixture(scope="module")
def published(dataset, tmp_path_factory):
    """(registry, record, model): one published McCatch artifact."""
    registry = ModelRegistry(tmp_path_factory.mktemp("serve-registry"))
    model = make_estimator(SPEC).fit(dataset)
    record = registry.publish(model)
    return registry, record, model


def run(coro):
    return asyncio.run(coro)


async def _started(model, record=None, **kwargs):
    """A bound server on a free port (record wires registry metadata)."""
    meta = {}
    if record is not None:
        meta = dict(
            spec=record.spec,
            version=record.version,
            fingerprint=record.fingerprint,
        )
    server = ScoringServer(model, port=0, **meta, **kwargs)
    await server.start()
    return server


class TestMicroBatcher:
    def test_coalesces_concurrent_rows_into_one_engine_call(self):
        calls = []

        async def score(rows):
            calls.append(rows.shape[0])
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(score, window_s=0.05, max_batch=256)
            rows = [np.array([[float(i), 1.0]]) for i in range(32)]
            results = await asyncio.gather(*(batcher.submit(r) for r in rows))
            for i, (scores, batched) in enumerate(results):
                assert scores[0] == float(i) + 1.0
            await batcher.drain()
            return results

        results = run(inner())
        # everything submitted inside one window coalesced: far fewer
        # engine calls than requests, and requests observed their batch
        assert len(calls) < 32
        assert max(calls) > 1
        assert max(batched for _, batched in results) == max(calls)

    def test_window_zero_serves_per_request(self):
        calls = []

        async def score(rows):
            calls.append(rows.shape[0])
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(score, window_s=0.0, max_batch=256)
            await asyncio.gather(*(
                batcher.submit(np.array([[float(i)]])) for i in range(16)
            ))
            await batcher.drain()

        run(inner())
        assert calls == [1] * 16

    def test_max_batch_caps_every_engine_call(self):
        calls = []

        async def score(rows):
            calls.append(rows.shape[0])
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(score, window_s=0.05, max_batch=8)
            await asyncio.gather(*(
                batcher.submit(np.array([[float(i)]])) for i in range(32)
            ))
            await batcher.drain()

        run(inner())
        assert sum(calls) == 32
        assert max(calls) <= 8

    def test_scoring_error_reaches_every_coalesced_waiter(self):
        async def score(rows):
            raise RuntimeError("engine exploded")

        async def inner():
            batcher = MicroBatcher(score, window_s=0.05, max_batch=256)
            results = await asyncio.gather(
                *(batcher.submit(np.array([[1.0]])) for _ in range(5)),
                return_exceptions=True,
            )
            await batcher.drain()
            return results

        results = run(inner())
        assert len(results) == 5
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_submit_after_drain_is_refused(self):
        async def score(rows):
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(score, window_s=0.0)
            await batcher.submit(np.array([[1.0]]))
            await batcher.drain()
            with pytest.raises(BatcherClosed):
                await batcher.submit(np.array([[2.0]]))

        run(inner())

    def test_knob_validation(self):
        async def score(rows):
            return rows

        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(score, window_s=-0.1)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(score, max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(score, max_pending=0)


class TestBackpressure:
    def test_submit_past_max_pending_is_shed_not_enqueued(self):
        release = asyncio.Event()

        async def slow_score(rows):
            await release.wait()
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(
                slow_score, window_s=0.0, max_batch=256, max_pending=4
            )
            accepted = [
                asyncio.ensure_future(batcher.submit(np.array([[0.0]])))
            ]
            await asyncio.sleep(0.05)  # collector holds the head in-dispatch
            for i in range(4):  # fill the queue exactly to max_pending
                accepted.append(
                    asyncio.ensure_future(batcher.submit(np.array([[float(i)]])))
                )
                await asyncio.sleep(0)
            assert batcher.pending == batcher.max_pending
            shed = []
            for _ in range(3):
                with pytest.raises(BatcherOverloaded) as err:
                    await batcher.submit(np.array([[42.0]]))
                shed.append(err.value)
            release.set()  # overload over: everything accepted still answers
            results = await asyncio.gather(*accepted)
            await batcher.drain()
            return batcher, shed, results

        batcher, shed, results = run(inner())
        assert batcher.requests_shed == 3
        assert all(exc.retry_after >= 1.0 for exc in shed)
        # every accepted request scored correctly despite the overload
        assert all(scores.shape == (1,) for scores, _ in results)

    def test_unbounded_by_default(self):
        async def score(rows):
            return rows.sum(axis=1)

        async def inner():
            batcher = MicroBatcher(score, window_s=0.0)
            assert batcher.max_pending is None
            await asyncio.gather(*(
                batcher.submit(np.array([[float(i)]])) for i in range(64)
            ))
            await batcher.drain()
            return batcher

        batcher = run(inner())
        assert batcher.requests_shed == 0

    def test_http_overload_sheds_429_with_retry_after_then_drains(
        self, published, batch
    ):
        """Overload at the HTTP boundary: the capped queue sheds with a
        structured 429 + Retry-After while every accepted request still
        scores — and scores bit-identically to the unloaded server."""
        _, record, model = published
        expected = np.asarray(model.score_batch(batch[:1]))

        async def inner():
            server = await _started(
                model, record, window_s=0.05, max_batch=2, max_pending=2
            )
            try:
                row = batch[:1].tolist()[0]
                clients = [
                    await ScoreClient.connect("127.0.0.1", server.port)
                    for _ in range(12)
                ]

                async def one(client):
                    status, payload = await client.request(
                        "POST", "/score", {"row": row}
                    )
                    return status, payload, dict(client.last_headers)

                outcomes = await asyncio.gather(*(one(c) for c in clients))
                health = await clients[0].request("GET", "/healthz")
                for client in clients:
                    await client.close()
                return outcomes, health[1]
            finally:
                await server.stop()

        outcomes, health = run(inner())
        ok = [o for o in outcomes if o[0] == 200]
        shed = [o for o in outcomes if o[0] == 429]
        assert len(ok) + len(shed) == 12
        assert ok, "the accepted side of the overload must still answer"
        for _, payload, _ in ok:
            np.testing.assert_array_equal(
                np.asarray(payload["scores"]), expected
            )
        for _, payload, headers in shed:
            assert payload["error"]["code"] == "overloaded"
            assert int(headers["retry-after"]) >= 1
        assert health["requests_shed"] == len(shed)
        assert health["max_pending"] == 2

    def test_drain_under_overload_answers_all_accepted_requests(
        self, published, batch
    ):
        """Shutdown while the queue is at its cap: every accepted
        request resolves with real scores before the server closes."""
        _, record, model = published

        async def inner():
            server = await _started(
                model, record, window_s=0.02, max_batch=1, max_pending=3
            )
            row = batch[:1].tolist()[0]
            clients = [
                await ScoreClient.connect("127.0.0.1", server.port)
                for _ in range(8)
            ]
            tasks = [
                asyncio.ensure_future(c.request("POST", "/score", {"row": row}))
                for c in clients
            ]
            await asyncio.sleep(0.05)  # let the queue fill / shed
            await server.stop()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            for client in clients:
                await client.close()
            return outcomes

        outcomes = run(inner())
        statuses = [o[0] for o in outcomes if not isinstance(o, Exception)]
        # accepted requests answered 200 with scores; shed ones answered
        # 429; nobody hung or got a torn connection mid-drain
        assert statuses and set(statuses) <= {200, 429}


class TestServerScoring:
    def test_32_concurrent_single_rows_bit_identical(self, published, batch):
        # The PR's acceptance scenario: under >= 32 concurrent
        # single-row clients the coalesced scores equal direct
        # score_batch bit for bit, and coalescing actually happened.
        registry, record, model = published
        direct = model.score_batch(batch)

        async def inner():
            server = await _started(model, record, window_s=0.02)
            try:
                async def one(i):
                    client = await ScoreClient.connect("127.0.0.1", server.port)
                    try:
                        status, payload = await client.request(
                            "POST", "/score", {"row": batch[i].tolist()}
                        )
                    finally:
                        await client.close()
                    return i, status, payload

                results = await asyncio.gather(*(one(i) for i in range(len(batch))))
            finally:
                await server.stop()
            return results, server.batcher.mean_batch_rows

        results, mean_rows = run(inner())
        assert len(results) >= 32
        for i, status, payload in results:
            assert status == 200
            assert payload["scores"] == [direct[i]]  # bit-identical via json
        assert mean_rows > 1.0  # requests really rode shared engine batches
        assert any(p["batched_rows"] > 1 for _, _, p in results)

    def test_multi_row_request_and_counters(self, published, batch):
        registry, record, model = published
        direct = model.score_batch(batch)

        async def inner():
            server = await _started(model, record, window_s=0.005)
            client = await ScoreClient.connect("127.0.0.1", server.port)
            try:
                scores = await client.score_rows(batch)
                status, health = await client.request("GET", "/healthz")
            finally:
                await client.close()
                await server.stop()
            return scores, status, health

        scores, status, health = run(inner())
        assert np.array_equal(scores, direct)
        assert status == 200
        assert health["status"] == "ok"
        assert health["rows_scored"] == len(batch)
        assert health["batches_dispatched"] == 1
        assert "workers" not in health

    def test_model_endpoint_reports_registry_metadata(self, published, dataset):
        registry, record, model = published

        async def inner():
            server = await _started(model, record, window_s=0.0)
            client = await ScoreClient.connect("127.0.0.1", server.port)
            try:
                return await client.request("GET", "/model")
            finally:
                await client.close()
                await server.stop()

        status, meta = run(inner())
        assert status == 200
        assert meta["spec"] == SPEC
        assert meta["version"] == 1
        assert meta["fingerprint"] == record.fingerprint
        assert meta["n_fitted"] == len(dataset)
        assert meta["dimensionality"] == dataset.shape[1]

    def test_window_zero_over_http_is_per_request(self, published, batch):
        registry, record, model = published

        async def inner():
            server = await _started(model, record, window_s=0.0)
            try:
                async def one(i):
                    client = await ScoreClient.connect("127.0.0.1", server.port)
                    try:
                        _, payload = await client.request(
                            "POST", "/score", {"row": batch[i].tolist()}
                        )
                        return payload["batched_rows"]
                    finally:
                        await client.close()

                sizes = await asyncio.gather(*(one(i) for i in range(8)))
            finally:
                await server.stop()
            return sizes

        assert run(inner()) == [1] * 8

    def test_server_requires_vector_training_data(self):
        class NoData:
            training_data = None
            spec = None

            @property
            def n_fitted(self):
                return 0

        with pytest.raises(TypeError, match="training"):
            ScoringServer(NoData())


class TestServingBoundary:
    """Malformed input comes back as structured 4xx, never a 500."""

    @pytest.fixture()
    def client_server(self, published):
        registry, record, model = published
        return model, record

    def _exchange(self, model, record, requests, **server_kwargs):
        """Run several raw exchanges over one keep-alive connection."""

        async def inner():
            server = await _started(model, record, window_s=0.0, **server_kwargs)
            client = await ScoreClient.connect("127.0.0.1", server.port)
            out = []
            try:
                for method, path, payload in requests:
                    out.append(await client.request(method, path, payload))
            finally:
                await client.close()
                await server.stop()
            return out

        return run(inner())

    def test_malformed_json_is_400(self, client_server):
        model, record = client_server

        async def inner():
            server = await _started(model, record, window_s=0.0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                body = b"{not json"
                writer.write(
                    b"POST /score HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                status_line = await reader.readline()
            finally:
                writer.close()
                await server.stop()
            return status_line

        assert b"400" in run(inner())

    def test_wrong_shape_rows_are_400(self, client_server):
        model, record = client_server
        responses = self._exchange(model, record, [
            ("POST", "/score", {"rows": [[1.0]]}),               # wrong width
            ("POST", "/score", {"rows": [[1.0, 2.0], [3.0]]}),   # ragged
            ("POST", "/score", {"rows": []}),                    # empty
            ("POST", "/score", {"rows": [[[1.0, 2.0, 3.0]]]}),   # 3-d
            ("POST", "/score", {"rows": [["a", "b", "c"]]}),     # non-numeric
            ("POST", "/score", {"vector": [1.0, 2.0, 3.0]}),     # wrong key
            ("POST", "/score", {"row": [1.0] * 3,
                                "rows": [[1.0] * 3]}),           # both keys
        ])
        for status, payload in responses:
            assert status == 400
            assert payload["error"]["code"] in ("bad_batch", "bad_request")
        # the width error reuses the shared as_batch_rows message
        assert "3-dimensional data" in responses[0][1]["error"]["message"]

    def test_non_finite_rows_are_400(self, client_server):
        model, record = client_server
        responses = self._exchange(model, record, [
            ("POST", "/score", {"row": [float("nan"), 0.0, 0.0]}),
            ("POST", "/score", {"row": [float("inf"), 0.0, 0.0]}),
            ("POST", "/score", {"rows": [[0.0, 0.0, 0.0],
                                         [0.0, float("-inf"), 0.0]]}),
        ])
        for status, payload in responses:
            assert status == 400
            assert payload["error"]["code"] == "non_finite"

    def test_oversized_batch_is_413(self, client_server):
        model, record = client_server
        rows = [[0.0, 0.0, 0.0]] * 9
        (status, payload), = self._exchange(
            model, record, [("POST", "/score", {"rows": rows})], max_rows=8
        )
        assert status == 413
        assert payload["error"]["code"] == "too_many_rows"

    def test_unknown_route_and_wrong_method(self, client_server):
        model, record = client_server
        responses = self._exchange(model, record, [
            ("GET", "/nope", None),
            ("GET", "/score", None),
            ("POST", "/healthz", None),
            ("POST", "/model", None),
        ])
        assert [s for s, _ in responses] == [404, 405, 405, 405]
        assert responses[0][1]["error"]["code"] == "not_found"
        assert responses[1][1]["error"]["code"] == "method_not_allowed"

    def test_connection_survives_a_4xx(self, client_server, batch):
        # keep-alive: a rejected request must not poison the connection
        model, record = client_server
        direct = model.score_batch(batch[:1])
        responses = self._exchange(model, record, [
            ("POST", "/score", {"rows": [[1.0]]}),
            ("POST", "/score", {"rows": batch[:1].tolist()}),
        ])
        assert responses[0][0] == 400
        assert responses[1][0] == 200
        assert responses[1][1]["scores"] == [direct[0]]

    def _raw(self, model, record, data: bytes) -> bytes:
        """Send raw bytes on a fresh connection; read until the server
        closes it (a connection left open times out)."""

        async def inner():
            server = await _started(model, record, window_s=0.0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(data)
                await writer.drain()
                return await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
                await server.stop()

        return run(inner())

    @pytest.mark.parametrize("data, status", [
        (b"GET /" + b"a" * 100 * 1024 + b" HTTP/1.1\r\nHost: x\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 100 * 1024 + b"\r\n\r\n", 400),
    ], ids=["request-line", "header-line"])
    def test_line_past_the_stream_limit_is_a_structured_4xx(
        self, client_server, data, status
    ):
        # past 64 KiB the stream reader raises instead of returning the
        # line; the answer must match the one for an 8 KiB+ line
        head, _, body = self._raw(*client_server, data).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_connection_close_token_is_case_insensitive(self, client_server):
        response = self._raw(
            *client_server,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: Close\r\n\r\n",
        )
        head = response.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head


class TestHotSwap:
    def test_swap_mid_traffic_is_atomic_per_batch(self, published, dataset, batch):
        registry, record, model = published
        v_old = model.score_batch(batch)
        model2 = make_estimator(SPEC).fit(dataset + 100.0)
        v_new = model2.score_batch(batch)

        async def inner():
            server = await _started(model, record, window_s=0.01)
            watcher = RegistryWatcher(
                server, registry, record.spec, record.fingerprint, poll_s=0.05
            )
            observed = []
            stop_traffic = asyncio.Event()

            async def traffic():
                client = await ScoreClient.connect("127.0.0.1", server.port)
                try:
                    i = 0
                    while not stop_traffic.is_set():
                        scores = await client.score_rows(batch[i % len(batch)][None])
                        observed.append((i % len(batch), float(scores[0])))
                        i += 1
                finally:
                    await client.close()

            try:
                watcher.start()
                drivers = [asyncio.create_task(traffic()) for _ in range(4)]
                await asyncio.sleep(0.2)  # traffic against v1
                # publish v2 of the same key mid-traffic
                registry.publish(model2, fingerprint=record.fingerprint)
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if server.swaps:
                        break
                await asyncio.sleep(0.2)  # traffic against v2
                stop_traffic.set()
                await asyncio.gather(*drivers)
                client = await ScoreClient.connect("127.0.0.1", server.port)
                final = await client.score_rows(batch)
                _, meta = await client.request("GET", "/model")
                await client.close()
            finally:
                await watcher.stop()
                await server.stop()
            return observed, final, meta, server.swaps, watcher.swapped_versions

        observed, final, meta, swaps, swapped = run(inner())
        assert swaps == 1
        assert swapped == [2]
        assert meta["version"] == 2
        assert np.array_equal(final, v_new)  # the new model serves
        # every response came from exactly one generation — bit-identical
        # to v1 or to v2, never a blend (swap lands between batches)
        assert len(observed) > 20
        assert all(score == v_old[i] or score == v_new[i] for i, score in observed)
        assert any(score == v_old[i] for i, score in observed)  # traffic
        assert any(score == v_new[i] for i, score in observed)  # straddled

    def test_watcher_ignores_claimed_but_incomplete_versions(
        self, published, tmp_path
    ):
        # a private registry: other tests publish v2 into the shared one
        _, _, model = published
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(model)

        async def inner():
            server = await _started(model, record, window_s=0.0)
            watcher = RegistryWatcher(
                server, registry, record.spec, record.fingerprint, poll_s=10.0
            )
            try:
                # a concurrent publisher has claimed v9 but not completed
                # it: the watcher must not swap to a half-written artifact
                claimed = record.path.parent.parent / "v0009"
                claimed.mkdir()
                assert await watcher.check_once() is False
                assert server.swaps == 0
                claimed.rmdir()
            finally:
                await server.stop()

        run(inner())

    def test_direct_swap_scores_the_new_model(self, published, dataset, batch):
        # no watcher and no artifact: swap_model alone moves the next
        # batch onto the new model
        registry, record, model = published
        v_old = model.score_batch(batch)
        model2 = make_estimator(SPEC).fit(dataset + 100.0)
        v_new = model2.score_batch(batch)
        assert not np.array_equal(v_old, v_new)

        async def inner():
            server = await _started(model, record, window_s=0.0)
            client = await ScoreClient.connect("127.0.0.1", server.port)
            try:
                before = await client.score_rows(batch)
                server.swap_model(model2)
                after = await client.score_rows(batch)
                _, meta = await client.request("GET", "/model")
            finally:
                await client.close()
                await server.stop()
            return before, after, meta

        before, after, meta = run(inner())
        assert np.array_equal(before, v_old)
        assert np.array_equal(after, v_new)
        assert meta["generation"] == 1

    def test_watcher_validation(self, published):
        registry, record, model = published
        with pytest.raises(ValueError, match="poll_s"):
            RegistryWatcher(object(), registry, record.spec, record.fingerprint,
                            poll_s=0.0)


class TestGracefulShutdown:
    def test_stop_drains_inflight_requests(self, published, batch):
        # requests sitting in the micro-batch window when stop() lands
        # must still be scored and answered before connections close
        registry, record, model = published
        direct = model.score_batch(batch)

        async def inner():
            server = await _started(model, record, window_s=0.25, max_batch=64)

            async def one(i):
                client = await ScoreClient.connect("127.0.0.1", server.port)
                try:
                    status, payload = await client.request(
                        "POST", "/score", {"row": batch[i].tolist()}
                    )
                finally:
                    await client.close()
                return i, status, payload

            tasks = [asyncio.create_task(one(i)) for i in range(8)]
            await asyncio.sleep(0.05)  # let them enqueue inside the window
            assert server.batcher.pending > 0 or server._inflight > 0
            await server.stop()
            return await asyncio.gather(*tasks)

        results = run(inner())
        assert len(results) == 8
        for i, status, payload in results:
            assert status == 200
            assert payload["scores"] == [direct[i]]

    def test_no_new_connections_after_stop(self, published):
        registry, record, model = published

        async def inner():
            server = await _started(model, record, window_s=0.0)
            port = server.port
            await server.stop()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection("127.0.0.1", port)

        run(inner())


class TestServeCli:
    """The serve subcommand's argument validation (the server loop itself
    is exercised above and by the bench's in-process harness)."""

    def test_spec_and_model_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve", "--spec", SPEC, "--registry", str(tmp_path),
                  "--model", "m.npz"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])

    def test_spec_requires_registry(self):
        with pytest.raises(SystemExit, match="needs --registry"):
            main(["serve", "--spec", SPEC])

    def test_model_rejects_registry_selectors(self, tmp_path):
        with pytest.raises(SystemExit, match="go with --spec"):
            main(["serve", "--model", "m.npz", "--model-version", "2"])
        with pytest.raises(SystemExit, match="go with --spec"):
            main(["serve", "--model", "m.npz", "--fingerprint", "ab" * 8])

    def test_unpublished_spec_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no published models"):
            main(["serve", "--spec", SPEC, "--registry", str(tmp_path / "reg")])

    def test_missing_model_file_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(["serve", "--model", str(tmp_path / "missing.npz")])

    @pytest.mark.parametrize("flag", ["--max-pending", "--poll"])
    def test_negative_flag_rejected_before_the_model_loads(self, tmp_path, flag):
        # the missing model would fail too: the flag must be refused first
        with pytest.raises(SystemExit, match=flag.lstrip("-")):
            main(["serve", "--model", str(tmp_path / "missing.npz"), flag, "-1"])
