"""Held-out scoring through the inlier tree: both walks equal brute force.

``McCatchModel.score_batch`` finds each row's nearest inlier with an
exact k=1 walk over a VP-tree of the model's inliers
(:func:`repro.index.base.nearest_walk`): the compiled kernel's walk for
vector spaces when the kernel loads, the numpy walk otherwise.  Its
scores and flagged sets must equal the brute-force oracle — every
inlier scanned by :func:`repro.engine.nearest_distances_to`, scored by
the scalar :func:`repro.core.scoring.point_score` — bit for bit,
whatever index the fit used, for every metric, dimensionality and
degenerate case, and however the model reached the scorer (in memory,
saved, mapped, behind a counting proxy, or from an archive of the first
format).  Every walk class runs twice: as written (the compiled walk
where the kernel loads) and in a ``...NumpyWalk`` subclass whose
fixture forces the numpy fallback.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import McCatch, McCatchModel
from repro.core.scoring import point_score, point_scores
from repro.engine import nearest_distances_to
from repro.index import available_index_kinds, build_index
from repro.index import base as index_base
from repro.index import ckernel
from repro.index.base import nearest_walk
from repro.io import load_model, save_model
from repro.io.indexes import INDEX_FORMAT, index_payload
from repro.io.models import MODEL_FORMAT_V1
from repro.io.results import result_to_dict
from repro.metric.base import MetricSpace
from repro.metric.instrumentation import CountingMetricSpace
from repro.metric.strings import levenshtein
from repro.metric.vector import chebyshev, cityblock, euclidean, minkowski

VECTOR_METRICS = {
    "euclidean": euclidean,
    "cityblock": cityblock,
    "chebyshev": chebyshev,
    "minkowski3": minkowski(3),
}


@pytest.fixture
def numpy_walk(monkeypatch):
    """Force the numpy fallback walk (what ``REPRO_NO_CKERNEL=1`` runs)."""
    monkeypatch.setenv(ckernel.ENV_DISABLE, "1")


class NumpyWalk:
    """Mixin: every inherited test again, on the numpy walk."""

    @pytest.fixture(autouse=True)
    def _force_numpy_walk(self, numpy_walk):
        assert not ckernel.kernel_available()


def inlier_ids(model: McCatchModel) -> np.ndarray:
    ids = np.setdiff1d(np.arange(model.n), model.result.outlier_indices)
    return ids if ids.size else np.arange(model.n)


def brute_force(model: McCatchModel, batch):
    """The oracle: scan every inlier, score each row with point_score."""
    rows = np.asarray(batch, dtype=np.float64) if model.space.is_vector else list(batch)
    r1 = float(model.result.oracle.radii[0])
    if r1 <= 0.0:
        return np.zeros(len(rows)), np.zeros(0, dtype=np.intp)
    g = nearest_distances_to(model.space, rows, inlier_ids(model))
    scores = np.array([point_score(float(gi), r1) for gi in g])
    return scores, np.nonzero(g >= model.result.cutoff.value)[0]


def assert_matches_brute_force(model: McCatchModel, batch) -> None:
    got = model.score_batch(batch)
    scores, flagged = brute_force(model, batch)
    assert np.array_equal(got.scores, scores)
    assert np.array_equal(got.flagged, flagged)


def vector_data(dim: int, shift: float = 0.0) -> np.ndarray:
    """Gaussian inliers with 20 duplicates of one row, a planted
    8-point microcluster and two far singletons."""
    rng = np.random.default_rng(dim)
    X = rng.normal(size=(220, dim))
    X[200:220] = X[7]
    mc = rng.normal(0.0, 0.03, (8, dim)) + 9.0
    far = np.vstack([np.full(dim, -15.0), np.full(dim, 20.0)])
    return np.vstack([X, mc, far]) + shift


def vector_queries(model: McCatchModel) -> np.ndarray:
    """Near rows, rows equal to inliers (g = 0), rows at exact multiples
    of r1 beyond the extreme inlier, and rows spread 50 sigma wide."""
    X = np.asarray(model.space.data)
    dim = X.shape[1]
    centre = np.median(X, axis=0)
    rng = np.random.default_rng(100 + dim)
    ids = inlier_ids(model)
    r1 = float(model.result.oracle.radii[0])
    edge = X[ids[np.argmax(X[ids, 0])]]
    steps = np.zeros((4, dim))
    steps[:, 0] = r1 * np.array([1.0, 2.0, 3.0, 7.0])
    return np.vstack([
        centre + rng.normal(size=(24, dim)),
        X[ids[:6]],
        X[7][None, :],  # one of the duplicated inliers
        edge + steps,
        centre + 50.0 * rng.normal(size=(6, dim)),
    ])


#: Every (fit index, metric) pair a fit accepts: cKDTree is Euclidean only.
KIND_METRICS = [
    (kind, metric)
    for kind in available_index_kinds()
    for metric in sorted(VECTOR_METRICS)
    if kind != "ckdtree" or metric == "euclidean"
]


class TestMatchesBruteForce:
    @pytest.mark.parametrize("dim", [1, 3, 50])
    @pytest.mark.parametrize("kind,metric", KIND_METRICS)
    def test_vector_fits(self, kind, metric, dim):
        model = McCatch(index=kind).fit_model(vector_data(dim), VECTOR_METRICS[metric])
        assert model.result.n_outliers > 0
        assert_matches_brute_force(model, vector_queries(model))

    @pytest.mark.parametrize("dim", [1, 3, 50])
    @pytest.mark.parametrize("kind", ["ckdtree", "vptree"])
    def test_data_shifted_by_a_million(self, kind, dim):
        model = McCatch(index=kind).fit_model(vector_data(dim, shift=1e6))
        assert_matches_brute_force(model, vector_queries(model))

    @pytest.mark.parametrize("kind", [k for k in available_index_kinds() if k != "ckdtree"])
    def test_levenshtein_fits(self, kind):
        rng = np.random.default_rng(5)
        words = ["".join(rng.choice(list("ABCDE"), size=rng.integers(3, 8)))
                 for _ in range(60)]
        words += ["QQQQQQQQQQ", "QQQQQQQQQZ"]
        model = McCatch(index=kind).fit_model(words, levenshtein)
        queries = words[:5] + ["", "ABCDEABCDE", "ZZZZZZZZZZZZZZ", "QQQQQQQQQQQ", "AB"]
        assert_matches_brute_force(model, queries)

    def test_fit_without_outliers(self):
        X = np.arange(40, dtype=np.float64)[:, None]  # an even lattice
        for kind in ("vptree", "ckdtree", "balltree"):
            model = McCatch(index=kind).fit_model(X)
            assert model.result.n_outliers == 0
            assert np.array_equal(np.sort(model.index.ids), np.arange(40))
            assert_matches_brute_force(model, [[-3.0], [0.5], [17.0], [80.0]])

    def test_degenerate_fits(self, tmp_path):
        for X in (np.ones((30, 2)), np.array([[1.0, 2.0]])):
            model = McCatch().fit_model(X)
            assert_matches_brute_force(model, [[1.0, 1.0], [5.0, -5.0]])
            loaded = load_model(save_model(model, tmp_path / "m.npz"))
            assert_matches_brute_force(loaded, [[1.0, 1.0], [5.0, -5.0]])


class TestEveryWayToServe:
    @pytest.fixture(scope="class")
    def fitted(self):
        X = vector_data(3)
        model = McCatch().fit_model(X)  # the cKDTree default
        return model, vector_queries(model)

    def test_in_memory(self, fitted):
        assert_matches_brute_force(*fitted)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_saved_and_loaded(self, fitted, tmp_path, mmap):
        model, queries = fitted
        loaded = load_model(save_model(model, tmp_path / "m.npz"), mmap=mmap)
        assert_matches_brute_force(loaded, queries)
        assert np.array_equal(loaded.index.ids, model.index.ids)

    def test_counting_proxy(self, fitted):
        """The walk measures through the model's space: a counting proxy
        swapped in there (as the server does) sees every distance."""
        model, queries = fitted
        proxy = CountingMetricSpace(model.space)
        got = McCatchModel(proxy, model.index, model.result).score_batch(queries)
        assert 0 < proxy.counter.bulk_pairs < len(queries) * len(model.index)
        scores, flagged = brute_force(model, queries)
        assert np.array_equal(got.scores, scores)
        assert np.array_equal(got.flagged, flagged)

    def test_first_format_archive(self, fitted, tmp_path):
        """An archive of the first format holds the fit tree over all n;
        loading builds the inlier tree, and the scores do not change."""
        model, queries = fitted
        payload = index_payload(build_index(model.space, kind="vptree"))
        payload["format"] = np.str_(MODEL_FORMAT_V1)
        payload["index_format"] = np.str_(INDEX_FORMAT)
        payload["result_json"] = np.str_(json.dumps(result_to_dict(model.result)))
        path = tmp_path / "v1.npz"
        with open(path, "wb") as f:
            np.savez(f, **payload)
        for mmap in (False, True):
            loaded = load_model(path, mmap=mmap)
            assert np.array_equal(loaded.index.ids, model.index.ids)
            assert_matches_brute_force(loaded, queries)


class TestWalkCost:
    def test_evaluations_per_row_stay_small(self):
        """On make_http_like(20_000) a held-out row costs under 2% of the
        inliers in distance evaluations (a scan costs all of them)."""
        from repro.datasets.benchmarks import make_http_like

        X, _ = make_http_like(n=20_000, random_state=0)
        held, _ = make_http_like(n=512, random_state=1)
        model = McCatch().fit_model(X)
        proxy = CountingMetricSpace(model.space)
        served = McCatchModel(proxy, model.index, model.result)
        served.score_batch(held)
        per_row = proxy.counter.total / len(held)
        assert per_row < 0.02 * len(model.index), per_row

    def test_index_nearest_to(self):
        space = MetricSpace(vector_data(3))
        ids = np.arange(0, len(space), 3)
        tree = build_index(space, ids, kind="balltree")
        rows = np.random.default_rng(9).normal(size=(40, 3)) * 4.0
        expected = nearest_distances_to(space, rows, ids)
        assert np.array_equal(tree.nearest_to(rows), expected)
        assert np.array_equal(nearest_walk(space, rows, tree.flat), expected)


class TestPointScores:
    def test_array_form_equals_scalar_form(self):
        """Uniform g, exact multiples of r1 with their 1-ulp neighbours,
        zero and a large value: the array form equals point_score."""
        rng = np.random.default_rng(0)
        for r1 in (0.1, 0.37, 1.0, 3e-4):
            multiples = r1 * np.arange(0, 60, dtype=np.float64)
            g = np.concatenate([
                rng.uniform(0.0, 50.0 * r1, 2000),
                multiples,
                np.nextafter(multiples, np.inf),
                np.nextafter(multiples, -np.inf).clip(0.0),
                [0.0, 1e6],
            ])
            expected = np.array([point_score(float(v), r1) for v in g])
            assert np.array_equal(point_scores(g, r1), expected)


def duplicate_heavy_data() -> np.ndarray:
    """1,000 exact copies of one row among 300 Gaussian rows, plus a
    planted 8-point microcluster."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 3))
    dup = np.repeat([[0.25, -0.5, 0.75]], 1000, axis=0)
    mc = rng.normal(0.0, 0.02, (8, 3)) + 7.0
    return np.vstack([X, dup, mc])


class TestHardCases:
    def test_thousand_tied_inliers(self):
        """Rows whose nearest inliers are 1,000 exact duplicates: every
        one ties for the minimum, so the compiled walk's candidate
        buffer (4 slots a row to start) must grow, never truncate."""
        model = McCatch(index="vptree").fit_model(duplicate_heavy_data())
        dup = np.array([0.25, -0.5, 0.75])
        rng = np.random.default_rng(3)
        queries = np.vstack([
            dup,
            dup + rng.normal(0.0, 0.05, (40, 3)),
            dup + np.array([[0.3, 0.0, 0.0], [0.0, -0.3, 0.0]]),
        ])
        assert_matches_brute_force(model, queries)
        if ckernel.kernel_available():
            rows = queries[1:]
            slack, _ = index_base._nearest_slack(model.space, rows, model.index.flat)
            _, row_end, _ = ckernel.compiled_nearest_candidates(
                model.space, rows, model.index.flat, slack
            )
            g = nearest_distances_to(model.space, rows, inlier_ids(model))
            tied = model.space.distances_to_many(rows, [300])[:, 0] == g  # row 300: a copy
            assert tied.sum() >= 30
            assert np.diff(row_end, prepend=0)[tied].min() >= 1000

    def test_round_off_moves_the_minimiser(self):
        """Unit-spread data shifted by 1e7: the einsum expansion is off
        by about one unit there, so its minimiser is often not the true
        nearest element and can sit in a subtree whose bound is only
        within the slack of the best; both walks must still return the
        einsum minimum."""
        rng = np.random.default_rng(0)
        space = MetricSpace(1e7 + rng.normal(size=(3000, 3)))
        tree = build_index(space, kind="vptree")
        rows = 1e7 + rng.normal(size=(500, 3))
        expected = nearest_distances_to(space, rows, tree.ids)
        exact = np.sqrt(((rows[:, None, :] - space.data[None]) ** 2).sum(axis=2)).min(axis=1)
        assert (expected != exact).all()  # the einsum floats, not the true distances
        assert np.array_equal(nearest_walk(space, rows, tree.flat), expected)

    def test_batch_past_the_numpy_chunk(self):
        """5,000 rows: more than one numpy chunk, one kernel call."""
        model = McCatch(index="vptree").fit_model(vector_data(3))
        rng = np.random.default_rng(17)
        assert index_base._NEAREST_CHUNK < 5000
        assert_matches_brute_force(model, rng.normal(0.0, 3.0, (5000, 3)))

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    def test_hundred_dimensional_rows(self, metric):
        model = McCatch(index="vptree").fit_model(vector_data(100), VECTOR_METRICS[metric])
        assert_matches_brute_force(model, vector_queries(model))

    def test_row_alone_equals_row_in_block(self):
        """A row's score does not depend on the rows batched with it."""
        model = McCatch().fit_model(vector_data(3))
        block = np.random.default_rng(4).normal(0.0, 3.0, (256, 3))
        together = model.score_batch(block).scores
        alone = np.concatenate([model.score_batch(row[None, :]).scores for row in block])
        assert np.array_equal(alone, together)

    def test_two_threads_score_one_model(self):
        """Two threads scoring one model at once (the kernel call
        releases the GIL) return what one thread returns."""
        model = McCatch(index="vptree").fit_model(vector_data(3))
        rng = np.random.default_rng(8)
        blocks = [rng.normal(0.0, 3.0, (256, 3)) for _ in range(16)]
        serial = [model.score_batch(b).scores for b in blocks]
        barrier = threading.Barrier(2)

        def score(half):
            barrier.wait()
            return [model.score_batch(b).scores for b in blocks[half::2] * 4]

        with ThreadPoolExecutor(2) as pool:
            even, odd = pool.map(score, (0, 1))
        for got, want in zip(even, serial[0::2] * 4):
            assert np.array_equal(got, want)
        for got, want in zip(odd, serial[1::2] * 4):
            assert np.array_equal(got, want)


class TestWhichWalk:
    def test_kernel_walks_vector_spaces_only(self, monkeypatch):
        """Vector spaces take the kernel whenever it loads; object
        metrics and ``REPRO_NO_CKERNEL=1`` take the numpy walk."""
        calls = []
        real = ckernel.compiled_nearest_candidates

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ckernel, "compiled_nearest_candidates", spy)
        vec = McCatch(index="vptree").fit_model(vector_data(3))
        vec.score_batch(vector_queries(vec))
        assert len(calls) == int(ckernel.kernel_available())
        words = ["ABC", "ABD", "ABE", "ACE", "BCE", "QQQQQQQ"]
        McCatch(index="vptree").fit_model(words, levenshtein).score_batch(["ABF"])
        assert len(calls) == int(ckernel.kernel_available())
        before = len(calls)
        monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
        vec.score_batch(vector_queries(vec))
        assert len(calls) == before

    def test_kernel_evaluations_reach_the_proxy(self):
        """The kernel measures in C; the proxy still counts its
        evaluations (and the re-measured candidates), and the walk
        sink's stats record one kernel call."""
        if not ckernel.kernel_available():
            pytest.skip("C kernel unavailable")
        model = McCatch(index="vptree").fit_model(vector_data(3))
        queries = vector_queries(model)
        proxy = CountingMetricSpace(model.space, timed=True)
        stats: dict = {}
        g = nearest_walk(proxy, queries, model.index.flat, stats=stats)
        assert np.array_equal(g, nearest_distances_to(model.space, queries, inlier_ids(model)))
        assert stats["steps"] == 1 and stats["distance_calls"] == 2
        assert proxy.counter.bulk_calls == 2
        assert len(queries) <= proxy.counter.total < len(queries) * len(model.index)
        assert proxy.counter.seconds > 0.0


class TestMatchesBruteForceNumpyWalk(NumpyWalk, TestMatchesBruteForce):
    pass


class TestEveryWayToServeNumpyWalk(NumpyWalk, TestEveryWayToServe):
    pass


class TestWalkCostNumpyWalk(NumpyWalk, TestWalkCost):
    pass


class TestHardCasesNumpyWalk(NumpyWalk, TestHardCases):
    pass
