"""Tests for repro.core.cutoff: Definitions 4-6 and the outlier masks."""

import math

import numpy as np
import pytest

from repro.core.cutoff import (
    compute_cutoff,
    histogram_of_1nn_distances,
    outlier_mask,
    x_outlier_mask,
    y_outlier_mask,
)
from repro.core.radii import radius_ladder
from repro.core.result import OraclePlot

RADII = radius_ladder(128.0, 8)


def make_oracle(first_end, middle_end=None, n=None):
    first_end = np.asarray(first_end, dtype=np.intp)
    n = n or first_end.size
    if middle_end is None:
        middle_end = np.full(n, -1, dtype=np.intp)
    return OraclePlot(
        x=np.zeros(n),
        y=np.zeros(n),
        first_end_index=first_end,
        middle_end_index=np.asarray(middle_end, dtype=np.intp),
        radii=RADII,
        counts=np.zeros((n, RADII.size), dtype=np.int64),
        max_slope=0.1,
        max_cardinality=max(1, n // 10),
    )


class TestHistogram:
    def test_counts_by_bin(self):
        hist = histogram_of_1nn_distances(np.array([0, 0, 1, 3, 3, 3]), 8)
        assert list(hist) == [2, 1, 0, 3, 0, 0, 0, 0]

    def test_ignores_missing_first_plateaus(self):
        hist = histogram_of_1nn_distances(np.array([-1, -1, 2]), 8)
        assert hist.sum() == 1


class TestComputeCutoff:
    def test_clean_bimodal_histogram(self):
        # 100 points at bin 1, 3 outliers at bin 5.
        first_end = np.array([1] * 100 + [5] * 3)
        info = compute_cutoff(first_end, RADII)
        assert info.peak_index == 1
        assert 2 <= info.index <= 5
        assert info.value == pytest.approx(RADII[info.index])

    def test_empty_histogram_gives_inf(self):
        info = compute_cutoff(np.array([-1, -1, -1]), RADII)
        assert math.isinf(info.value) and info.index == -1

    def test_peak_at_last_bin_gives_inf(self):
        info = compute_cutoff(np.array([7, 7, 7]), RADII)
        assert math.isinf(info.value)

    def test_cut_is_after_peak(self):
        first_end = np.array([2] * 50 + [3] * 10 + [6] * 2)
        info = compute_cutoff(first_end, RADII)
        assert info.index > info.peak_index

    def test_single_cluster_histogram_cuts_after_peak(self):
        # All mass in one bin, nothing after: d lands right after the
        # peak, so any Group-1NN rung beyond the mode stays detectable
        # (duplicate-heavy metric data relies on this).
        first_end = np.array([2] * 30)
        info = compute_cutoff(first_end, RADII)
        assert info.index == 3
        assert info.value == pytest.approx(RADII[3])

    def test_trailing_zero_bins_do_not_attract_the_cut(self):
        # Regression: an all-zero right partition compresses to ~0 bits;
        # without restricting the search to the histogram support, a
        # tall outlier bulge (annthyroid-style) pushes the cut past the
        # last real bin and nothing is ever flagged.
        from repro.core.radii import radius_ladder

        wide = radius_ladder(2.0**14, 15)
        first_end = np.array([7] * 1395 + [8] * 400 + [9] * 7 + [10] * 31 + [11] * 75)
        info = compute_cutoff(first_end, wide)
        assert info.index <= 11

    def test_mode_in_last_support_bin_with_room(self):
        first_end = np.array([5] * 50 + [6] * 3)
        info = compute_cutoff(first_end, RADII)
        assert info.index == 6


class TestOutlierMasks:
    def test_x_mask_by_rung(self):
        oracle = make_oracle([1, 4, 5, -1])
        info = compute_cutoff(np.array([1] * 50 + [5]), RADII)
        m = x_outlier_mask(oracle, info)
        assert m[0] == (1 >= info.index)
        assert m[1] == (4 >= info.index)
        assert not m[3]  # no first plateau -> never an X outlier

    def test_y_mask_by_rung(self):
        oracle = make_oracle([1, 1, 1], middle_end=[-1, 6, 2])
        info = compute_cutoff(np.array([1] * 50 + [5]), RADII)
        m = y_outlier_mask(oracle, info)
        assert not m[0]
        assert m[1] == (6 >= info.index)

    def test_union(self):
        oracle = make_oracle([6, 1, 1], middle_end=[-1, 6, -1])
        info = compute_cutoff(np.array([1] * 50 + [6]), RADII)
        m = outlier_mask(oracle, info)
        assert m[0] and m[1] and not m[2]

    def test_inf_cutoff_means_no_outliers(self):
        oracle = make_oracle([-1, -1], middle_end=[5, 6])
        info = compute_cutoff(np.array([-1, -1]), RADII)
        assert not outlier_mask(oracle, info).any()
