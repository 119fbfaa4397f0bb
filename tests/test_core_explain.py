"""Tests for repro.core.explain: prose explanations and ASCII plots."""

import json
import re

import numpy as np
import pytest

from repro import McCatch
from repro.core.explain import ascii_histogram, ascii_oracle_plot, explain_point


@pytest.fixture(scope="module")
def result(blob_with_mc):
    X, _ = blob_with_mc
    return McCatch().fit(X)


class TestExplainPoint:
    def test_inlier_explanation(self, result):
        inlier = int(np.setdiff1d(np.arange(result.n), result.outlier_indices)[0])
        text = explain_point(result, inlier)
        assert "verdict: inlier" in text
        assert "neighbor counts" in text

    def test_outlier_explanation(self, result):
        outlier = int(result.outlier_indices[0])
        text = explain_point(result, outlier)
        assert "verdict:" in text and "inlier (both" not in text
        assert "score" in text

    def test_microcluster_member_explanation(self, result):
        mc = next(m for m in result.microclusters if not m.is_singleton)
        text = explain_point(result, int(mc.indices[0]))
        assert f"{mc.cardinality}-elements microcluster" in text

    def test_out_of_range(self, result):
        with pytest.raises(IndexError):
            explain_point(result, result.n + 5)


_PLATEAU = re.compile(r"plateau: radii\[(\d+)\.\.(\d+)\], height (\d+)")


def explained_ends(result, index):
    """(first, middle) plateau ends implied by the plateaus the
    explanation lists, per Defs. 2-3."""
    radii = result.oracle.radii
    first, middle = -1, None
    for start, end, height in _PLATEAU.findall(explain_point(result, index)):
        start, end, height = int(start), int(end), int(height)
        if height == 1 and first < 0:
            first = end
        if height > 1 and end != radii.size - 1:
            key = (radii[end] - radii[start], end)
            middle = key if middle is None or key > middle else middle
    return first, -1 if middle is None else middle[1]


class TestExplainUsesTheFitsParameters:
    """The listed plateaus agree with the fit's own rungs for any b and c."""

    @pytest.fixture(scope="class")
    def http(self):
        from repro.datasets import make_http_like

        return make_http_like(1200, random_state=0)[0]

    @pytest.mark.parametrize("kwargs", [
        {"max_slope": 0.05},
        {"max_slope": 0.1},
        {"max_slope": 0.3},
        {"max_slope": 0.1, "max_cardinality": 40},
    ])
    def test_plateau_ends_match_the_fit(self, http, kwargs):
        from repro.io.results import result_from_dict, result_to_dict

        fitted = McCatch(**kwargs).fit(http)
        reloaded = result_from_dict(json.loads(json.dumps(result_to_dict(fitted))))
        for result in (fitted, reloaded):
            o = result.oracle
            assert o.max_slope == kwargs["max_slope"]
            for i in range(result.n):
                assert explained_ends(result, i) == (
                    o.first_end_index[i], o.middle_end_index[i]
                ), i

    def test_documents_without_b_and_c_load_the_defaults(self, result):
        from repro.io.results import result_from_dict, result_to_dict

        payload = result_to_dict(result)
        del payload["oracle"]["max_slope"], payload["oracle"]["max_cardinality"]
        oracle = result_from_dict(payload).oracle
        assert oracle.max_slope == 0.1
        assert oracle.max_cardinality == int(np.ceil(0.1 * result.n))


class TestAsciiRenderings:
    def test_oracle_plot_renders(self, result):
        text = ascii_oracle_plot(result)
        assert "1NN Distance" in text
        assert "#" in text  # the planted mc appears
        assert "o" in text  # singletons appear

    def test_histogram_renders(self, result):
        text = ascii_histogram(result)
        assert "peak" in text and "cutoff d" in text
        # One line per radius bin plus the title.
        assert len(text.splitlines()) == result.oracle.radii.size + 1

    def test_dimensions_respected(self, result):
        text = ascii_oracle_plot(result, width=30, height=10)
        body = text.splitlines()[1:-1]
        assert len(body) == 10
        assert all(len(line) == 30 for line in body)
