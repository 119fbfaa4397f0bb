"""CountingMetricSpace: accounting correctness, and quantitative checks
of the Sec. IV-G join principles (they must *reduce distance calls*,
not just wall-clock time)."""

import numpy as np
import pytest

from repro.core.oracle import build_oracle_plot
from repro.core.radii import define_radii
from repro.index import BruteForceIndex, VPTree
from repro.metric.base import MetricSpace
from repro.metric.instrumentation import CountingMetricSpace
from repro.metric.strings import levenshtein


@pytest.fixture()
def counted_vectors():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (300, 2)), [[9.0, 9.0], [9.1, 9.0]]])
    return CountingMetricSpace(MetricSpace(X))


class TestAccounting:
    def test_scalar_calls_counted(self, counted_vectors):
        counted_vectors.counter.reset()
        counted_vectors.distance(0, 1)
        counted_vectors.distance(2, 3)
        assert counted_vectors.counter.scalar_calls == 2
        assert counted_vectors.counter.total == 2

    def test_bulk_pairs_counted(self, counted_vectors):
        counted_vectors.counter.reset()
        counted_vectors.distances(0, np.arange(50))
        assert counted_vectors.counter.bulk_pairs == 50
        assert counted_vectors.counter.bulk_calls == 1

    def test_distances_among_counts_matrix(self, counted_vectors):
        counted_vectors.counter.reset()
        counted_vectors.distances_among(np.arange(10), np.arange(20))
        assert counted_vectors.counter.bulk_pairs == 200

    def test_values_identical_to_inner(self):
        rng = np.random.default_rng(1)
        inner = MetricSpace(rng.normal(size=(40, 3)))
        proxy = CountingMetricSpace(inner)
        assert np.array_equal(
            proxy.distances(0, np.arange(40)), inner.distances(0, np.arange(40))
        )
        assert proxy.distance(3, 7) == inner.distance(3, 7)

    def test_reset(self, counted_vectors):
        counted_vectors.distance(0, 1)
        counted_vectors.counter.reset()
        assert counted_vectors.counter.total == 0

    def test_subset_shares_counter(self, counted_vectors):
        counted_vectors.counter.reset()
        sub = counted_vectors.subset(np.arange(10))
        sub.distance(0, 1)
        assert counted_vectors.counter.total == 1

    def test_paired_distances_to_counted_and_timed(self, counted_vectors):
        counted_vectors.counter.reset()
        rows = np.zeros((6, 2))
        out = counted_vectors.paired_distances_to(rows, np.arange(6))
        assert np.array_equal(out, counted_vectors._inner.paired_distances_to(rows, np.arange(6)))
        assert counted_vectors.counter.bulk_pairs == 6
        assert counted_vectors.counter.bulk_calls == 1
        assert counted_vectors.counter.seconds == 0.0  # untimed proxy
        timed = CountingMetricSpace(counted_vectors._inner, timed=True)
        timed.paired_distances_to(rows, np.arange(6))
        assert timed.counter.bulk_pairs == 6 and timed.counter.seconds > 0.0

    def test_object_space_wrapping(self):
        words = ["abc", "abd", "xyz", "xyw"] * 5
        proxy = CountingMetricSpace(MetricSpace(words, levenshtein))
        proxy.distances(0, np.arange(20))
        assert proxy.counter.bulk_pairs == 20

    def test_repr_mentions_total(self, counted_vectors):
        counted_vectors.counter.reset()
        counted_vectors.distance(0, 1)
        assert "total=1" in repr(counted_vectors.counter)


class TestJoinPrinciplesQuantified:
    def _oracle_calls(self, space: CountingMetricSpace, *, sparse_focused: bool) -> int:
        space.counter.reset()
        tree = VPTree(space)
        radii = define_radii(tree, 15)
        build_oracle_plot(
            tree,
            radii,
            max_slope=0.1,
            max_cardinality=max(1, int(0.1 * len(space))),
            sparse_focused=sparse_focused,
        )
        return space.counter.total

    def test_sparse_focused_reduces_distance_calls(self):
        """The sparse-focused principle must cut real distance traffic."""
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (400, 2))
        sparse = self._oracle_calls(CountingMetricSpace(MetricSpace(X)), sparse_focused=True)
        dense = self._oracle_calls(CountingMetricSpace(MetricSpace(X)), sparse_focused=False)
        assert sparse < dense

    def test_vptree_beats_bruteforce_on_clustered_data(self):
        """The using-index principle: tree pruning pays on clustered data."""
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(c, 0.3, (150, 2)) for c in ((0, 0), (20, 0), (0, 20))])
        radius = 1.0

        brute_space = CountingMetricSpace(MetricSpace(X))
        BruteForceIndex(brute_space).count_within(np.arange(len(X)), radius)
        brute_calls = brute_space.counter.total

        vp_space = CountingMetricSpace(MetricSpace(X))
        VPTree(vp_space).count_within(np.arange(len(X)), radius)
        vp_calls = vp_space.counter.total

        assert vp_calls < brute_calls

    def test_mccatch_runs_on_counting_space(self):
        """The proxy is a drop-in MetricSpace for the full pipeline."""
        from repro import McCatch

        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (200, 2)), [[9.0, 9.0]]])
        space = CountingMetricSpace(MetricSpace(X))
        result = McCatch(index="vptree").fit(space)
        assert 200 in set(map(int, result.outlier_indices))
        assert space.counter.total > 0
