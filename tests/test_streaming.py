"""Streaming McCatch: refit consistency, provisional scoring, windows."""

import numpy as np
import pytest

from repro import McCatch, StreamingMcCatch
from repro.metric.strings import levenshtein


@pytest.fixture()
def gaussian_stream():
    rng = np.random.default_rng(0)
    return [rng.normal(0, 1, (100, 2)) for _ in range(5)]


class TestConstruction:
    def test_invalid_refit_factor(self):
        with pytest.raises(ValueError, match="refit_factor"):
            StreamingMcCatch(refit_factor=1.0)

    def test_invalid_min_fit_size(self):
        with pytest.raises(ValueError, match="min_fit_size"):
            StreamingMcCatch(min_fit_size=1)

    def test_window_smaller_than_min_fit(self):
        with pytest.raises(ValueError, match="max_window"):
            StreamingMcCatch(min_fit_size=64, max_window=32)

    def test_object_stream_requires_metric(self):
        stream = StreamingMcCatch()
        with pytest.raises(ValueError, match="metric"):
            stream.update(["abc", "abd"])


class TestRefitConsistency:
    def test_refit_equals_batch(self, gaussian_stream):
        """After refit, the streaming result is the batch result."""
        stream = StreamingMcCatch(McCatch(index="vptree"))
        for batch in gaussian_stream:
            stream.update(batch)
        streamed = stream.refit()
        X = np.vstack(gaussian_stream)
        batch_result = McCatch(index="vptree").fit(X)
        assert np.array_equal(streamed.point_scores, batch_result.point_scores)
        assert len(streamed.microclusters) == len(batch_result.microclusters)
        for a, b in zip(streamed.microclusters, batch_result.microclusters):
            assert np.array_equal(np.sort(a.indices), np.sort(b.indices))
            assert a.score == pytest.approx(b.score)

    def test_geometric_refit_schedule(self, gaussian_stream):
        stream = StreamingMcCatch(refit_factor=2.0, min_fit_size=100)
        refits = [stream.update(batch).refitted for batch in gaussian_stream]
        # Fit at 100, then not until >= 200, then not until >= 400.
        assert refits == [True, True, False, True, False]


class TestProvisionalScoring:
    def test_obvious_outlier_flagged_between_refits(self, gaussian_stream):
        stream = StreamingMcCatch(refit_factor=10.0)  # no refits after first
        for batch in gaussian_stream:
            stream.update(batch)
        update = stream.update(np.array([[50.0, 50.0]]))
        assert not update.refitted
        assert update.provisional_outliers.size == 1
        assert update.provisional_scores[0] > 1.0

    def test_inlier_not_flagged_between_refits(self, gaussian_stream):
        stream = StreamingMcCatch(refit_factor=10.0)
        for batch in gaussian_stream:
            stream.update(batch)
        update = stream.update(np.array([[0.0, 0.1]]))
        assert not update.refitted
        assert update.provisional_outliers.size == 0

    def test_warmup_returns_zero_scores(self):
        stream = StreamingMcCatch(min_fit_size=100)
        update = stream.update(np.zeros((10, 2)))
        assert not update.refitted
        assert stream.result is None
        assert np.all(update.provisional_scores == 0)

    def test_provisional_monotone_in_distance(self, gaussian_stream):
        """Farther from the inliers -> provisional score no smaller."""
        stream = StreamingMcCatch(refit_factor=10.0)
        for batch in gaussian_stream:
            stream.update(batch)
        probes = np.array([[2.0, 0.0], [5.0, 0.0], [20.0, 0.0], [80.0, 0.0]])
        scores = [stream.update(p[None, :]).provisional_scores[0] for p in probes]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


class TestSlidingWindow:
    def test_eviction_caps_window(self):
        rng = np.random.default_rng(1)
        stream = StreamingMcCatch(max_window=150, min_fit_size=32)
        for _ in range(5):
            stream.update(rng.normal(size=(100, 2)))
        assert len(stream) == 150
        assert stream.n_seen == 500

    def test_refit_covers_only_window(self):
        rng = np.random.default_rng(2)
        stream = StreamingMcCatch(max_window=120, min_fit_size=32)
        for _ in range(4):
            stream.update(rng.normal(size=(100, 2)))
        result = stream.refit()
        assert result.n == 120

    def test_old_regime_forgotten(self):
        """After the window slides past a regime change, the old regime's
        location is anomalous again."""
        rng = np.random.default_rng(3)
        stream = StreamingMcCatch(max_window=200, min_fit_size=64, refit_factor=1.01)
        for _ in range(3):
            stream.update(rng.normal(0, 1, (100, 2)))     # regime A
        for _ in range(3):
            stream.update(rng.normal(50, 1, (100, 2)))    # regime B fills window
        stream.refit()
        update = stream.update(np.array([[0.0, 0.0]]))    # back to regime A
        flagged_positions = set(int(i) for i in update.provisional_outliers) if not update.refitted else set()
        if update.refitted:
            flagged_positions = set(int(i) for i in stream.result.outlier_indices)
        assert len(stream) <= 201
        assert (len(stream) - 1) in flagged_positions or update.provisional_scores[0] > 1.0


class TestObjectStream:
    def test_string_stream(self):
        rng = np.random.default_rng(4)
        vocab = list("abcdef")
        words = ["".join(rng.choice(vocab, size=rng.integers(3, 8))) for _ in range(150)]
        stream = StreamingMcCatch(
            McCatch(index="vptree"), metric=levenshtein, min_fit_size=64
        )
        stream.update(words[:100])
        stream.update(words[100:])
        update = stream.update(["zzzzzzzzzzzzzzzzzzzz"])
        assert update.provisional_scores[0] > 1.0

    def test_type_switch_rejected(self):
        stream = StreamingMcCatch(metric=levenshtein)
        stream.update(["abc", "abd"] * 20)
        with pytest.raises(TypeError, match="object data"):
            stream.update(np.zeros((3, 2)))

    def test_vector_then_object_rejected(self):
        stream = StreamingMcCatch()
        stream.update(np.zeros((40, 2)) + np.arange(40)[:, None])
        with pytest.raises(TypeError, match="vector data"):
            stream.update(["abc"])

    def test_bare_string_batch_rejected(self):
        """A bare string is one element, not a batch of characters: it
        must neither score per character nor enter the window as such."""
        stream = StreamingMcCatch(McCatch(index="vptree"), metric=levenshtein)
        stream.update(["SMITH", "SMYTH", "SMITT", "JONES"] * 10)
        window = list(stream.window_data)
        for bare in ("SMITH", b"SMITH"):
            with pytest.raises(TypeError, match="bare"):
                stream.update(bare)
        assert stream.window_data == window
        assert stream.update(["SMITH"]).n_new == 1


class TestEmptyAndEdge:
    def test_empty_batch_noop(self):
        stream = StreamingMcCatch()
        update = stream.update(np.zeros((0, 2)))
        assert update.n_new == 0
        assert stream.n_seen == 0

    def test_refit_too_early_raises(self):
        stream = StreamingMcCatch()
        with pytest.raises(RuntimeError, match="at least 2"):
            stream.refit()

    def test_doctest_example(self):
        rng = np.random.default_rng(0)
        stream = StreamingMcCatch()
        for _ in range(4):
            stream.update(rng.normal(0, 1, (100, 2)))
        update = stream.update(np.array([[9.0, 9.0], [9.1, 9.0]]))
        assert update.provisional_outliers.size
