"""Fitted-index and fitted-model persistence round trips.

A loaded index must answer every query identically to the freshly
built one — counts across the whole boundary-radius ladder, pairs,
diameter — and a loaded McCatch model must score a held-out batch
identically.
"""

import numpy as np
import pytest

from repro import McCatch, McCatchModel
from repro.engine import BatchQueryEngine
from repro.index import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    FrozenIndex,
    MTree,
    SlimTree,
    VPTree,
)
from repro.io import load_index, load_model, save_index, save_model
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]


@pytest.fixture(scope="module")
def vspace():
    rng = np.random.default_rng(3)
    X = np.vstack(
        [rng.normal(0, 1, (120, 3)), np.zeros((4, 3)), [[9.0, 9.0, 9.0], [9.1, 9.0, 9.0]]]
    )
    return MetricSpace(X)


@pytest.fixture(scope="module")
def sspace():
    rng = np.random.default_rng(4)
    words = ["".join(rng.choice(list("ABCDE"), size=rng.integers(2, 8))) for _ in range(40)]
    return MetricSpace(words, levenshtein)


def ladder(space):
    d = space.distances(0, np.arange(min(len(space), 10)))
    ties = sorted(float(v) for v in d if v > 0)[:3]
    diam = float(space.distances(0, np.arange(len(space))).max())
    return np.sort(np.array([0.0] + ties + [0.4 * diam, diam], dtype=np.float64))


@pytest.mark.parametrize("cls", FLAT_KINDS)
class TestIndexRoundTrip:
    def test_vector_counts_identical(self, cls, vspace, tmp_path):
        idx = cls(vspace)
        back = load_index(save_index(idx, tmp_path / "idx.npz"))
        assert isinstance(back, FrozenIndex)
        radii = ladder(vspace)
        q = np.arange(len(vspace))
        assert np.array_equal(
            back.count_within_many(q, radii), idx.count_within_many(q, radii)
        )
        for r in radii:
            assert np.array_equal(
                back.count_within(q, float(r)), idx.count_within(q, float(r))
            )

    def test_vector_pairs_and_diameter(self, cls, vspace, tmp_path):
        idx = cls(vspace)
        back = load_index(save_index(idx, tmp_path / "idx.npz"))
        r = 0.2 * idx.diameter_estimate()
        assert back.pairs_within(r) == idx.pairs_within(r)
        assert back.diameter_estimate() == idx.diameter_estimate()

    def test_object_space_needs_space_at_load(self, cls, sspace, tmp_path):
        idx = cls(sspace)
        path = save_index(idx, tmp_path / "idx.npz")
        with pytest.raises(ValueError, match="saved without its data"):
            load_index(path)
        back = load_index(path, sspace)
        radii = ladder(sspace)
        q = np.arange(len(sspace))
        assert np.array_equal(
            back.count_within_many(q, radii), idx.count_within_many(q, radii)
        )

    def test_subset_index_round_trip(self, cls, vspace, tmp_path):
        ids = np.arange(0, len(vspace), 2)
        idx = cls(vspace, ids)
        back = load_index(save_index(idx, tmp_path / "idx.npz"))
        queries = np.arange(1, len(vspace), 3)
        radii = ladder(vspace)
        assert np.array_equal(
            back.count_within_many(queries, radii), idx.count_within_many(queries, radii)
        )

    def test_loaded_index_drives_engine(self, cls, vspace, tmp_path):
        idx = cls(vspace)
        back = load_index(save_index(idx, tmp_path / "idx.npz"))
        radii = np.sort(np.append(ladder(vspace), 1e-9))[1:]  # strictly increasing
        radii = np.unique(radii)
        if radii.size < 2:  # pragma: no cover - defensive
            pytest.skip("degenerate ladder")
        got = BatchQueryEngine(back).self_join_counts(radii, max_cardinality=13)
        expected = BatchQueryEngine(idx).self_join_counts(radii, max_cardinality=13)
        assert np.array_equal(got, expected)


class TestIndexSaveErrors:
    def test_non_flat_index_rejected(self, vspace, tmp_path):
        with pytest.raises(TypeError, match="no FlatTree storage"):
            save_index(BruteForceIndex(vspace), tmp_path / "idx.npz")

    def test_wrong_space_rejected(self, sspace, tmp_path):
        idx = VPTree(sspace)
        path = save_index(idx, tmp_path / "idx.npz")
        tiny = MetricSpace(["A", "B"], levenshtein)
        with pytest.raises(ValueError, match="wrong space"):
            load_index(path, tiny)

    def test_model_file_rejected_as_index(self, vspace, tmp_path):
        model = McCatch(index="vptree").fit_model(np.asarray(vspace.data))
        path = save_model(model, tmp_path / "m.npz")
        with pytest.raises(ValueError, match="unsupported index format"):
            load_index(path)


class TestModelRoundTrip:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (300, 2)), [[8.0, 8.0], [8.1, 8.0]]])
        held = np.vstack([rng.normal(0, 1, (25, 2)), [[7.9, 8.0], [30.0, 30.0]]])
        return X, held, McCatch(index="vptree").fit_model(X)

    def test_scores_held_out_identically(self, fitted, tmp_path):
        X, held, model = fitted
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        before, after = model.score_batch(held), loaded.score_batch(held)
        assert np.array_equal(before.scores, after.scores)
        assert np.array_equal(before.flagged, after.flagged)

    def test_result_round_trips(self, fitted, tmp_path):
        _, _, model = fitted
        loaded = McCatchModel.load(model.save(tmp_path / "m.npz"))
        assert loaded.n == model.n
        assert np.array_equal(loaded.result.point_scores, model.result.point_scores)
        assert [tuple(m.indices) for m in loaded.result.microclusters] == [
            tuple(m.indices) for m in model.result.microclusters
        ]
        assert loaded.result.cutoff.value == model.result.cutoff.value

    def test_loaded_index_counts_match(self, fitted, tmp_path):
        """The archive holds the inlier tree: its counts are brute
        force's over the inlier ids, before and after the round trip."""
        X, _, model = fitted
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        inliers = np.setdiff1d(np.arange(len(X)), model.result.outlier_indices)
        assert np.array_equal(loaded.index.ids, inliers)
        q = np.arange(len(X))
        radii = model.result.oracle.radii
        expected = BruteForceIndex(model.space, inliers).count_within_many(q, radii)
        assert np.array_equal(loaded.index.count_within_many(q, radii), expected)
        assert np.array_equal(model.index.count_within_many(q, radii), expected)

    def test_flags_the_planted_outlier(self, fitted):
        _, held, model = fitted
        batch = model.score_batch(held)
        assert 26 in set(batch.flagged.tolist())  # the far [30, 30] row

    def test_every_flat_index_kind_saves(self, fitted, tmp_path):
        X, held, _ = fitted
        for kind in ("balltree", "covertree", "mtree", "slimtree"):
            model = McCatch(index=kind).fit_model(X)
            loaded = load_model(save_model(model, tmp_path / f"m_{kind}.npz"))
            assert np.array_equal(
                loaded.score_batch(held).scores, model.score_batch(held).scores
            )

    def test_object_space_model_rejected(self, tmp_path):
        words = ["SMITH", "SMYTH", "SMITT", "JONES"] * 10 + ["XQWZKJY"]
        model = McCatch(index="vptree").fit_model(words, levenshtein)
        with pytest.raises(TypeError, match="vector-space"):
            save_model(model, tmp_path / "m.npz")

    def test_ckdtree_model_round_trip(self, tmp_path):
        """A cKDTree fit (the Euclidean default) saves: the archive holds
        the inlier VP-tree, not the fit tree."""
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(size=(80, 2)), [[9.0, 9.0]]])
        held = np.vstack([rng.normal(size=(20, 2)), [[9.0, 9.1]]])
        model = McCatch().fit_model(X)
        for mmap in (False, True):
            loaded = load_model(save_model(model, tmp_path / "m.npz"), mmap=mmap)
            before, after = model.score_batch(held), loaded.score_batch(held)
            assert np.array_equal(before.scores, after.scores)
            assert np.array_equal(before.flagged, after.flagged)

    def test_streaming_scorer_matches_model_scorer(self, fitted):
        """The streaming provisional scorer is score_batch — same numbers."""
        from repro import StreamingMcCatch

        X, held, model = fitted
        stream = StreamingMcCatch(McCatch(index="vptree"), min_fit_size=32)
        stream.update(X)
        update = stream.update(held)
        assert np.array_equal(update.provisional_scores, model.score_batch(held).scores)
