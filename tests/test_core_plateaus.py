"""Tests for repro.core.plateaus: Definitions 1-3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plateaus import analyze_counts, find_plateaus, first_plateau, middle_plateau
from repro.core.radii import radius_ladder
from repro.index import UNKNOWN_COUNT

RADII = radius_ladder(128.0, 8)  # 1, 2, 4, ..., 128


def plateaus_of(counts, b=0.0, c=100):
    return find_plateaus(np.asarray(counts), RADII, max_slope=b, max_cardinality=c)


class TestFindPlateaus:
    def test_flat_then_jump(self):
        # count 1 for radii 0..3, then jumps to 50, flat to the end.
        p = plateaus_of([1, 1, 1, 1, 50, 50, 50, 50])
        assert len(p) == 2
        first, last = p
        assert (first.start, first.end, first.height) == (0, 3, 1)
        assert (last.start, last.end, last.height) == (4, 7, 50)
        assert first.length == pytest.approx(RADII[3] - RADII[0])

    def test_middle_plateau_exists(self):
        p = plateaus_of([1, 1, 8, 8, 8, 90, 90, 90])
        heights = [q.height for q in p]
        assert heights == [1, 8, 90]

    def test_slope_tolerance_merges_quasi_flat(self):
        # 10 -> 11 across one radius doubling: slope ~0.138.
        strict = plateaus_of([1, 10, 11, 11, 90, 90, 90, 90], b=0.0)
        loose = plateaus_of([1, 10, 11, 11, 90, 90, 90, 90], b=0.15)
        strict_heights = [q.height for q in strict]
        loose_heights = [q.height for q in loose]
        assert 10 in loose_heights  # merged plateau starts at count 10
        assert 10 not in strict_heights or 11 in strict_heights

    def test_excused_plateaus_dropped(self):
        p = plateaus_of([1, 1, 50, 50, 50, 50, 50, 50], c=10)
        assert [q.height for q in p] == [1]

    def test_unknown_counts_break_plateaus(self):
        counts = np.array([1, 1, 30, UNKNOWN_COUNT, UNKNOWN_COUNT, UNKNOWN_COUNT,
                           UNKNOWN_COUNT, UNKNOWN_COUNT])
        p = plateaus_of(counts, c=100)
        assert [q.height for q in p] == [1]

    def test_no_plateaus_when_steadily_growing(self):
        p = plateaus_of([1, 2, 4, 8, 16, 32, 64, 128])
        assert p == []

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            find_plateaus(np.array([1, 2]), RADII, max_slope=0.1, max_cardinality=5)

    @given(
        counts=st.lists(st.integers(1, 100), min_size=8, max_size=8).map(sorted),
        b=st.floats(0.0, 0.5),
    )
    @settings(max_examples=80)
    def test_plateaus_are_disjoint_and_ordered(self, counts, b):
        p = find_plateaus(np.array(counts), RADII, max_slope=b, max_cardinality=1000)
        for q in p:
            assert q.start < q.end
            assert q.length > 0
        # Maximality: consecutive plateaus cannot touch.
        for q1, q2 in zip(p, p[1:]):
            assert q2.start > q1.end


class TestFirstAndMiddle:
    def test_first_is_height_one(self):
        p = plateaus_of([1, 1, 8, 8, 8, 90, 90, 90])
        fp = first_plateau(p)
        assert fp is not None and fp.height == 1

    def test_no_first_when_starting_crowded(self):
        p = plateaus_of([5, 5, 5, 90, 90, 90, 90, 90])
        assert first_plateau(p) is None

    def test_middle_excludes_last_radius(self):
        # The 8-plateau reaching the final radius is a "last" plateau.
        p = plateaus_of([1, 1, 8, 8, 8, 8, 8, 8])
        assert middle_plateau(p, len(RADII)) is None

    def test_middle_picks_longest(self):
        p = plateaus_of([1, 3, 3, 10, 10, 10, 90, 90])
        mp = middle_plateau(p, len(RADII))
        assert mp is not None and mp.height == 10  # 2-rung span beats 1-rung

    def test_middle_tie_broken_to_larger_end(self):
        p = plateaus_of([2, 2, 5, 90, 90, 5, 5, 90])  # artificial; nondecreasing not required here
        # find_plateaus works on any counts row; verify tie-break logic via lengths
        mp = middle_plateau(p, len(RADII))
        if mp is not None:
            others = [q for q in p if q.height > 1 and q.end != len(RADII) - 1]
            assert all((mp.length, mp.end) >= (q.length, q.end) for q in others)


class TestAnalyzeCounts:
    def test_vectorized_outputs(self):
        counts = np.array(
            [
                [1, 1, 1, 1, 90, 90, 90, 90],   # clean singleton-ish point
                [1, 1, 8, 8, 8, 90, 90, 90],    # mc point
                [5, 5, 90, 90, 90, 90, 90, 90],  # crowded point: no first plateau
            ]
        )
        x, y, first_end, middle_end = analyze_counts(
            counts, RADII, max_slope=0.0, max_cardinality=100
        )
        assert x[0] > 0 and first_end[0] == 3
        assert y[0] == 0 and middle_end[0] == -1
        assert x[1] > 0 and y[1] > 0 and middle_end[1] == 4
        assert x[2] == 0 and first_end[2] == -1

    def test_x_zero_for_duplicates(self):
        counts = np.array([[3, 3, 3, 3, 3, 3, 3, 90]])
        x, y, first_end, middle_end = analyze_counts(
            counts, RADII, max_slope=0.0, max_cardinality=100
        )
        assert x[0] == 0.0 and first_end[0] == -1
        assert y[0] > 0.0  # the height-3 plateau is a middle plateau


def scalar_analysis(counts, radii, b, c):
    """The per-row reference: find_plateaus + first/middle_plateau per point."""
    n, a = counts.shape[0], len(radii)
    x, y = np.zeros(n), np.zeros(n)
    first_end = np.full(n, -1, dtype=np.intp)
    middle_end = np.full(n, -1, dtype=np.intp)
    for i in range(n):
        plateaus = find_plateaus(counts[i], radii, max_slope=b, max_cardinality=c)
        fp = first_plateau(plateaus)
        if fp is not None:
            x[i], first_end[i] = fp.length, fp.end
        mp = middle_plateau(plateaus, a)
        if mp is not None:
            y[i], middle_end[i] = mp.length, mp.end
    return x, y, first_end, middle_end


def assert_same_analysis(counts, radii, b, c):
    with np.errstate(divide="ignore", invalid="ignore"):  # tie radii: zero log steps
        expected = scalar_analysis(counts, radii, b, c)
    got = analyze_counts(counts, radii, max_slope=b, max_cardinality=c)
    for want, have in zip(expected, got):
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)


class TestAnalyzeCountsMatchesScalar:
    """The column-wise analysis equals the per-row functions bit for bit."""

    @pytest.mark.parametrize("b", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("sparse_focused", [True, False])
    def test_real_fits(self, b, sparse_focused):
        from repro import McCatch
        from repro.datasets import make_http_like

        X, _ = make_http_like(1500, random_state=0)
        oracle = McCatch(max_slope=b, index="vptree", sparse_focused=sparse_focused).fit(X).oracle
        assert_same_analysis(oracle.counts, oracle.radii, b, oracle.max_cardinality)

    def test_random_count_matrices(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n, a = int(rng.integers(1, 40)), int(rng.integers(2, 16))
            steps = rng.integers(0, 3, (n, a)) * rng.integers(0, 4, (n, a))
            counts = 1 + np.cumsum(steps, axis=1)
            c = int(rng.integers(1, 20))
            for row in counts:  # sparse-focused blanking past the first exceed
                exceed = np.nonzero(row > c)[0]
                if exceed.size and rng.random() < 0.7:
                    row[exceed[0] + 1:] = UNKNOWN_COUNT
            if trial % 3 == 0:
                # Integer radii: equal-length middle plateaus, and repeated
                # (tie) radii with zero log steps.
                radii = np.maximum.accumulate(np.round(np.cumsum(rng.uniform(0.5, 2.0, a))))
            else:
                radii = np.cumsum(rng.uniform(0.1, 2.0, a))
            b = float(rng.choice([0.0, 0.05, 0.1, 0.3, 1.0]))
            assert_same_analysis(counts, radii, b, c)

    def test_equal_length_middle_plateaus_keep_the_later_end(self):
        radii = np.arange(1.0, 10.0)
        counts = np.array([[1, 1, 4, 4, 9, 9, 20, 40, 80]])
        x, y, first_end, middle_end = analyze_counts(
            counts, radii, max_slope=0.0, max_cardinality=30
        )
        assert middle_end[0] == 5 and y[0] == 1.0
        assert_same_analysis(counts, radii, 0.0, 30)
