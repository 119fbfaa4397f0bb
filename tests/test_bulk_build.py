"""The level-synchronous bulk builds of the M-, Slim- and cover trees.

Counts: ``count_within_many`` over a bulk-built
:class:`~repro.index.base.FlatTree` must agree bit for bit with the
brute-force oracle — for M-tree, Slim-tree, and cover tree, on vector,
string, and tree data, under both walks (compiled and level), including
the regression classes: radius 0 with duplicate points, radii tying
exact pairwise distances, and negative radii.

Structure: the bulk trees must be *valid* metric trees, checked on the
flat arrays themselves — the element permutation intact, children
partitioning their parent's slice, covering radii bounding every
member, ``d_parent``/``d_elem`` exact under the metric, cover-tree
separation and nesting, M-tree node capacity, and Slim-down applicable
in place.
"""

import numpy as np
import pytest

from test_flat_trees import walks

from repro.core.mccatch import McCatch
from repro.index import (
    BruteForceIndex,
    CoverTree,
    MTree,
    SlimTree,
)
from repro.index.factory import build_index
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

BULK_KINDS = [MTree, SlimTree, CoverTree]


@pytest.fixture(scope="module")
def vspace():
    """Vector data with duplicates and a tight planted pair."""
    rng = np.random.default_rng(17)
    X = np.vstack(
        [
            rng.normal(0, 1, (120, 2)),
            np.zeros((6, 2)),  # exact duplicates
            [[7.0, 7.0], [7.0, 7.0], [7.2, 7.0]],  # duplicate outlier pair
        ]
    )
    return MetricSpace(X)


@pytest.fixture(scope="module")
def sspace():
    rng = np.random.default_rng(23)
    alphabet = list("ABCD")
    words = ["".join(rng.choice(alphabet, size=rng.integers(1, 8))) for _ in range(40)]
    words += ["AAAA"] * 4  # duplicates for the radius-0 class
    return MetricSpace(words, levenshtein)


@pytest.fixture(scope="module")
def tspace():
    rng = np.random.default_rng(29)

    def random_tree(depth: int) -> LabeledTree:
        label = "abcd"[int(rng.integers(4))]
        if depth == 0:
            return LabeledTree(label)
        children = [random_tree(depth - 1) for _ in range(int(rng.integers(0, 3)))]
        return LabeledTree(label, children)

    trees = [random_tree(2) for _ in range(16)]
    trees += [LabeledTree("a", [LabeledTree("b")])] * 3  # duplicates
    return MetricSpace(trees, tree_edit_distance)


def boundary_radii(space: MetricSpace) -> np.ndarray:
    """Ladder heavy on the regression classes: negative, 0, ties, big."""
    d = space.distances(0, np.arange(min(len(space), 12)))
    ties = [float(v) for v in d if v > 0][:4]
    diam = float(space.distances(0, np.arange(len(space))).max())
    ladder = [-1.0, 0.0, 0.0, 1e-9] + ties + [0.5 * diam, diam, 1.5 * diam + 1.0]
    return np.sort(np.array(ladder, dtype=np.float64))


SPACES = ["vspace", "sspace", "tspace"]


def _make(cls, space, *, small=True):
    kwargs = {}
    if cls is CoverTree:
        kwargs["leaf_size"] = 4 if small else 16
    else:
        kwargs["capacity"] = 4 if small else 16
    return cls(space, **kwargs)


def check_cover_tree(space: MetricSpace, tree: CoverTree) -> None:
    """Cover-tree invariants on the flat arrays.

    At every split node of covering radius ``R`` the children live at
    the separation ``sep = base**(s-1)``, ``s`` the smallest scale with
    ``base**s >= R`` (one scale lower while float fuzz lands ``sep`` on
    or above ``R``).  Nesting: the first child keeps the parent's
    center.  Separation: sibling centers are pairwise more than ``sep``
    apart.  Covering: every child's members lie within ``sep`` of its
    center.
    """
    flat = tree.flat
    base = tree.base
    for node in range(flat.n_nodes):
        lo, hi = int(flat.child_lo[node]), int(flat.child_hi[node])
        if lo == hi:
            continue
        radius = float(flat.radius[node])
        sep = base ** (np.ceil(np.log(radius) / np.log(base)) - 1.0)
        while sep >= radius:
            sep /= base
        assert flat.center[lo] == flat.center[node]
        centers = flat.center[lo:hi]
        for a in range(centers.size - 1):
            d = space.distances(int(centers[a]), centers[a + 1 :])
            assert np.all(d > sep)
        assert np.all(flat.radius[lo:hi] <= sep + 1e-12)


def check_mtree_capacity(tree: MTree) -> None:
    """No node routes to more than ``capacity`` children, and no leaf
    holds more than ``capacity`` members unless they all coincide."""
    flat = tree.flat
    fanout = flat.child_hi - flat.child_lo
    leaf = fanout == 0
    assert np.all(fanout[~leaf] <= tree.capacity)
    over = leaf & (flat.size > tree.capacity)
    assert np.all(flat.radius[over] == 0.0)


@pytest.mark.parametrize("cls", BULK_KINDS)
@pytest.mark.parametrize("fixture", SPACES)
class TestBulkMatchesInsertAndBruteForce:
    """Bulk-built trees count exactly like brute force (the class name
    predates the removal of the insertion builders; brute force is the
    one oracle)."""

    def test_count_within_many_bit_identical(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        expected = BruteForceIndex(space).count_within_many(q, radii)
        for small in (True, False):
            got = _make(cls, space, small=small).count_within_many(q, radii)
            assert np.array_equal(got, expected), small

    def test_both_walks_agree(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        expected = BruteForceIndex(space).count_within_many(q, radii)
        flat = _make(cls, space).flat
        for walk in walks(space):
            got = walk(space, q, radii, flat)
            assert np.array_equal(got, expected), walk.__name__

    def test_single_radius_count_within(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        brute = BruteForceIndex(space)
        tree = _make(cls, space)
        q = np.arange(len(space))
        for r in boundary_radii(space):
            assert np.array_equal(
                tree.count_within(q, float(r)), brute.count_within(q, float(r))
            )


@pytest.mark.parametrize("cls", BULK_KINDS)
@pytest.mark.parametrize("fixture", SPACES)
class TestBulkStructuralInvariants:
    def test_permutation_and_slices(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        flat = _make(cls, space).flat
        assert np.array_equal(np.sort(flat.elems), np.arange(len(space)))
        assert np.all(flat.size == flat.elem_hi - flat.elem_lo)
        # Children partition the parent's element slice contiguously.
        for node in range(flat.n_nodes):
            lo, hi = int(flat.child_lo[node]), int(flat.child_hi[node])
            if hi <= lo:
                continue
            assert flat.elem_lo[lo] == flat.elem_lo[node]
            assert flat.elem_hi[hi - 1] == flat.elem_hi[node]
            assert np.array_equal(flat.elem_lo[lo + 1 : hi], flat.elem_hi[lo : hi - 1])

    def test_covering_radii_bound_members(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        flat = _make(cls, space).flat
        sizes = (flat.elem_hi - flat.elem_lo).astype(np.intp)
        centers = np.repeat(flat.center, sizes)
        members = flat.elems[
            np.concatenate(
                [np.arange(lo, hi) for lo, hi in zip(flat.elem_lo, flat.elem_hi)]
            )
        ]
        d = space.paired_distances(centers, members)
        bound = np.repeat(flat.radius, sizes)
        assert np.all(d <= bound + 1e-12)

    def test_d_parent_and_d_elem_exact(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        flat = _make(cls, space).flat
        if flat.d_parent is not None:
            for node in range(flat.n_nodes):
                lo, hi = int(flat.child_lo[node]), int(flat.child_hi[node])
                for child in range(lo, hi):
                    want = space.distance(
                        int(flat.center[node]), int(flat.center[child])
                    )
                    assert flat.d_parent[child] == pytest.approx(want, abs=1e-12)
        if flat.d_elem is not None:
            leaves = np.flatnonzero(flat.child_hi == flat.child_lo)
            for node in leaves:
                lo, hi = int(flat.elem_lo[node]), int(flat.elem_hi[node])
                want = space.paired_distances(
                    np.full(hi - lo, flat.center[node], dtype=np.intp),
                    flat.elems[lo:hi],
                )
                assert np.allclose(flat.d_elem[lo:hi], want, atol=1e-12)


@pytest.mark.parametrize("fixture", SPACES)
def test_cover_tree_separation_and_nesting(fixture, request):
    space = request.getfixturevalue(fixture)
    for base in (2.0, 3.0):
        check_cover_tree(space, CoverTree(space, leaf_size=4, base=base))


@pytest.mark.parametrize("cls", [MTree, SlimTree])
@pytest.mark.parametrize("fixture", SPACES)
def test_mtree_node_capacity(cls, fixture, request):
    space = request.getfixturevalue(fixture)
    for capacity in (4, 5, 16):
        check_mtree_capacity(cls(space, capacity=capacity))


@pytest.mark.parametrize("fixture", SPACES)
def test_slim_down_valid_on_bulk_trees(fixture, request):
    """Slim-down must run in place on a bulk tree and keep counts exact."""
    space = request.getfixturevalue(fixture)
    radii = boundary_radii(space)
    q = np.arange(len(space))
    expected = BruteForceIndex(space).count_within_many(q, radii)
    tree = SlimTree(space, capacity=4, slim_down=True)
    assert np.array_equal(tree.count_within_many(q, radii), expected)
    flat = tree.flat
    assert np.array_equal(np.sort(flat.elems), np.arange(len(space)))
    sizes = (flat.elem_hi - flat.elem_lo).astype(np.intp)
    centers = np.repeat(flat.center, sizes)
    members = flat.elems[
        np.concatenate(
            [np.arange(lo, hi) for lo, hi in zip(flat.elem_lo, flat.elem_hi)]
        )
    ]
    d = space.paired_distances(centers, members)
    assert np.all(d <= np.repeat(flat.radius, sizes) + 1e-12)


class TestBuildSelection:
    """There is one build per family: no ``build=`` knob anywhere."""

    def test_unknown_build_mode_rejected(self, vspace):
        for build in ("bulk", "insert", "lazy"):
            with pytest.raises(TypeError, match="build"):
                build_index(vspace, kind="mtree", build=build)
            for cls in BULK_KINDS:
                with pytest.raises(TypeError, match="build"):
                    cls(vspace, build=build)

    def test_bulk_native_kinds_reject_insert(self, vspace):
        for kind in ("vptree", "balltree", "mtree", "slimtree", "covertree"):
            with pytest.raises(TypeError, match="build"):
                build_index(vspace, kind=kind, build="insert")

    def test_kinds_without_bulk_fail_loudly(self, vspace):
        for kind in ("brute", "ckdtree"):
            with pytest.raises(TypeError, match="build"):
                build_index(vspace, kind=kind, build="bulk")

    def test_estimator_spec_round_trip(self):
        from repro.api import make_estimator, spec_of

        est = make_estimator("mccatch?index=slimtree")
        assert spec_of(est.detector) == "mccatch?index=slimtree"
        with pytest.raises(ValueError, match="unknown parameter 'build'"):
            make_estimator("mccatch?build=insert&index=slimtree")
        with pytest.raises(TypeError, match="index_build"):
            McCatch(index="slimtree", index_build="bulk")

    def test_cli_rejects_build_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "data.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(20, 2)), delimiter=",")
        for command in ("detect", "fit"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(path), "--build", "bulk"])
            assert exc.value.code == 2  # argparse: unrecognized arguments

    def test_mccatch_end_to_end_on_bulk_trees(self, vspace):
        # The bulk path must run the whole pipeline and flag the
        # planted outlier pair on every bulk-built family.
        n = len(vspace)
        planted = {n - 3, n - 2, n - 1}  # the 7,7-corner pair + neighbor
        for index in ("mtree", "slimtree", "covertree"):
            result = McCatch(index=index).fit(vspace)
            assert result.point_scores.shape == (n,)
            assert np.all(np.isfinite(result.point_scores))
            flagged = {
                int(i) for mc in result.microclusters for i in mc.indices
            }
            assert planted <= flagged, index
