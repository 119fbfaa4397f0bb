"""Tests for repro.core.mdl: universal code length, Def. 5 cost, splits."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mdl
from repro.core.mdl import (
    CODE_TABLE_CAP,
    best_split,
    cost_of_compression,
    universal_code_length,
    universal_code_lengths,
)


class TestUniversalCodeLength:
    def test_one_is_free(self):
        assert universal_code_length(1) == 0.0

    def test_two(self):
        # log2(2) = 1; log2(1) = 0 terminates.
        assert universal_code_length(2) == pytest.approx(1.0)

    def test_known_value_16(self):
        # log2(16)=4, log2(4)=2, log2(2)=1, log2(1)=0 -> 7.
        assert universal_code_length(16) == pytest.approx(7.0)

    def test_below_one_clamped(self):
        assert universal_code_length(0) == 0.0
        assert universal_code_length(0.3) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            universal_code_length(float("nan"))

    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_infinity_rejected(self, z):
        # log2(inf) is inf, so the term loop would never end
        with pytest.raises(ValueError, match="finite"):
            universal_code_length(z)
        with pytest.raises(ValueError, match="finite"):
            universal_code_lengths(np.array([[2.0, 7.0], [z, 3.0]]))

    @given(z=st.integers(1, 10**9))
    @settings(max_examples=100)
    def test_nonnegative_and_superlogarithmic(self, z):
        v = universal_code_length(z)
        assert v >= 0.0
        if z > 1:
            assert v >= math.log2(z)

    @given(z=st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_monotone(self, z):
        assert universal_code_length(z + 1) >= universal_code_length(z)

    def test_vectorized_matches_scalar(self):
        values = [1, 2, 5, 100, 1000]
        vec = universal_code_lengths(values)
        assert np.allclose(vec, [universal_code_length(v) for v in values])


class TestCodeLengthTable:
    """The lazily grown ⟨z⟩ table behind :func:`universal_code_lengths`
    is the scalar function, bit for bit, below and above its cap."""

    @pytest.fixture
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(mdl, "_code_table", np.zeros(2))

    def test_every_tabled_integer_equals_the_scalar(self, fresh_table):
        z = np.arange(1, CODE_TABLE_CAP + 1, dtype=np.float64)
        got = universal_code_lengths(z)
        assert mdl._code_table.size == CODE_TABLE_CAP + 1
        assert np.array_equal(got, [universal_code_length(v) for v in z.tolist()])

    def test_values_past_the_table_take_the_scalar(self, fresh_table):
        values = np.array([
            3.0, CODE_TABLE_CAP, CODE_TABLE_CAP + 1, 10.0 * CODE_TABLE_CAP,
            1e12, 2.5, 0.0, -4.0,
        ])
        got = universal_code_lengths(values.reshape(2, 4))
        assert got.shape == (2, 4)
        expected = [universal_code_length(v) for v in values.tolist()]
        assert np.array_equal(got.ravel(), expected)
        assert mdl._code_table.size <= CODE_TABLE_CAP + 1
        with pytest.raises(ValueError, match="NaN"):
            universal_code_lengths([2.0, float("nan")])

    def test_a_far_value_does_not_grow_the_table(self, fresh_table):
        universal_code_lengths([7.0, 1e9])
        assert mdl._code_table.size <= 16  # the table covers the 7 only

    def test_threads_grow_and_agree(self, fresh_table):
        rng = np.random.default_rng(0)
        batches = [rng.integers(1, CODE_TABLE_CAP, size=400).astype(float) for _ in range(40)]
        expected = [
            np.array([universal_code_length(v) for v in b.tolist()]) for b in batches
        ]
        failures: list = []

        def score(order):
            for k in order:
                if not np.array_equal(universal_code_lengths(batches[k]), expected[k]):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=score, args=(order,))
                for order in (range(40), range(39, -1, -1)) * 2
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestCostOfCompression:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cost_of_compression([])

    def test_uniform_set_cheap(self):
        homogeneous = cost_of_compression([5, 5, 5, 5])
        heterogeneous = cost_of_compression([1, 9, 2, 8])
        assert homogeneous < heterogeneous

    def test_single_value(self):
        # <1> + <1 + ceil(v)> + <1 + 0>
        v = cost_of_compression([4])
        assert v == pytest.approx(universal_code_length(1 + 4))

    @given(values=st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_nonnegative(self, values):
        assert cost_of_compression(values) >= 0.0

    @given(values=st.lists(st.integers(0, 100), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_shift_invariance_of_deviation_term_direction(self, values):
        # Adding a constant cannot decrease cost below the deviation part:
        # it only changes the average term.  Sanity: cost stays finite.
        assert math.isfinite(cost_of_compression(values))


class TestBestSplit:
    def test_obvious_two_cluster_split(self):
        values = [100, 100, 100, 0, 0, 0]
        cut, _ = best_split(values)
        assert cut == 3

    def test_respects_start(self):
        values = [5, 100, 100, 0, 0]
        cut, _ = best_split(values, start=1)
        assert cut == 3

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            best_split([1], start=0)
        with pytest.raises(ValueError):
            best_split([1, 2, 3], start=2)

    @given(values=st.lists(st.integers(0, 50), min_size=2, max_size=15))
    @settings(max_examples=60)
    def test_cut_in_valid_range(self, values):
        cut, cost = best_split(values)
        assert 1 <= cut <= len(values) - 1
        assert math.isfinite(cost)

    @given(values=st.lists(st.integers(0, 50), min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_returned_cost_is_minimal(self, values):
        cut, cost = best_split(values)
        arr = np.asarray(values, dtype=float)
        for e in range(1, len(values)):
            alt = cost_of_compression(arr[:e]) + cost_of_compression(arr[e:])
            assert cost <= alt + 1e-9
