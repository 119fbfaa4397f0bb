"""ModelRegistry: publish/resolve/list, versioning, and the serving CLI."""

import numpy as np
import pytest

from repro.api import (
    ModelRegistry,
    dataset_fingerprint,
    make_estimator,
)
from repro.cli import main


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(3)
    return np.vstack([rng.normal(0.0, 1.0, (150, 2)), [[9.0, 9.0], [9.1, 9.0]]])


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    return np.vstack([rng.normal(0.0, 1.0, (20, 2)), [[55.0, -55.0]]])


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self, dataset):
        a = dataset_fingerprint(dataset)
        assert a == dataset_fingerprint(dataset.copy())
        perturbed = dataset.copy()
        perturbed[0, 0] += 1e-9
        assert a != dataset_fingerprint(perturbed)

    def test_path_escaping_fingerprints_rejected(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("dbout").fit(dataset)
        with pytest.raises(ValueError, match="invalid dataset fingerprint"):
            registry.publish(model, fingerprint="../escape")
        with pytest.raises(ValueError, match="invalid dataset fingerprint"):
            registry.record("dbout", fingerprint="..")

    def test_object_data_supported(self):
        a = dataset_fingerprint(["SMITH", "SMYTH"])
        assert a != dataset_fingerprint(["SMITH", "SMYTX"])
        # length-prefixed: no boundary ambiguity
        assert dataset_fingerprint(["ab", "c"]) != dataset_fingerprint(["a", "bc"])


class TestPublishResolve:
    def test_publish_resolve_mmap_bit_identical(self, dataset, batch, tmp_path):
        # The PR's acceptance scenario: publish a McCatch model, resolve
        # it mmap-loaded, and score a held-out batch bit-identically to
        # the in-memory model.
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("mccatch?index=vptree").fit(dataset)
        record = registry.publish(model)
        assert record.version == 1
        assert record.fingerprint == dataset_fingerprint(dataset)
        served = registry.resolve("mccatch?index=vptree", mmap=True)
        assert np.array_equal(served.score_batch(batch), model.score_batch(batch))

    def test_versions_grow_and_latest_wins(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("knnout?k=3").fit(dataset)
        assert registry.publish(model).version == 1
        assert registry.publish(model).version == 2
        latest = registry.record("knnout?k=3")
        assert latest.version == 2
        pinned = registry.record("knnout?k=3", version=1)
        assert pinned.version == 1
        with pytest.raises(LookupError, match="version 9 not published"):
            registry.record("knnout?k=3", version=9)

    def test_spec_is_canonicalized_for_lookup(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("mccatch?index=vptree&a=10").fit(dataset)
        registry.publish(model)
        # same key, different spelling/order
        record = registry.record("MCCATCH?a=10&index=vptree")
        assert record.spec == "mccatch?a=10&index=vptree"

    def test_ambiguous_fingerprint_requires_disambiguation(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        est = make_estimator("knnout?k=3")
        registry.publish(est.fit(dataset))
        registry.publish(est.fit(dataset * 2.0))
        with pytest.raises(LookupError, match="2 datasets"):
            registry.record("knnout?k=3")
        record = registry.record("knnout?k=3", data=dataset * 2.0)
        assert record.fingerprint == dataset_fingerprint(dataset * 2.0)

    def test_missing_spec_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(LookupError, match="no published models"):
            registry.record("lof?k=5")

    def test_crashed_publish_leftover_is_skipped(self, dataset, tmp_path):
        # an empty version dir (crashed or racing publisher) must be
        # stepped over, not fought over
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("knnout?k=3").fit(dataset)
        first = registry.publish(model)
        leftover = first.path.parent.parent / "v0002"
        leftover.mkdir()  # claimed but never completed
        record = registry.publish(model)
        assert record.version == 3
        assert registry.record("knnout?k=3").version == 3

    def test_spec_less_core_model_cannot_be_published(self, dataset, tmp_path):
        # a core-API archive carries no spec; inventing one would
        # misattribute the configuration, so publish refuses
        from repro import McCatch
        from repro.api import FittedModel

        core = McCatch(n_radii=30, index="vptree").fit_model(dataset)
        path = core.save(tmp_path / "core.npz")
        loaded = FittedModel.load(path)
        assert loaded.spec is None
        with pytest.raises(ValueError, match="without a spec"):
            ModelRegistry(tmp_path / "reg").publish(loaded)

    def test_publish_leaves_no_temp_artifacts(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(make_estimator("dbout").fit(dataset))
        assert record.path.name == "model.npz"
        assert not list(record.path.parent.glob("*.tmp"))

    def test_failed_save_releases_the_claimed_version(self, tmp_path):
        # an object-metric McCatch model cannot be saved (its metric is
        # a Python callable); the claimed version dir must be released,
        # not leaked
        from repro.metric.strings import levenshtein

        registry = ModelRegistry(tmp_path / "reg")
        words = ["SMITH", "SMYTH", "SMITT", "JONES"] * 10 + ["XQWZKJY"]
        bad = make_estimator("mccatch").fit(words, levenshtein)
        with pytest.raises(TypeError, match="vector-space"):
            registry.publish(bad)
        assert not list(registry.root.rglob("v*"))  # claim released
        assert not list(registry.root.rglob("*.tmp"))

    def test_list_filters_by_spec(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(make_estimator("knnout?k=3").fit(dataset))
        registry.publish(make_estimator("dbout").fit(dataset))
        registry.publish(make_estimator("dbout").fit(dataset))
        assert len(registry.list()) == 3
        dbout_records = registry.list(spec="dbout")
        assert [r.version for r in dbout_records] == [1, 2]
        assert all(r.path.is_file() for r in dbout_records)


class TestLatestVersion:
    """The cheap freshness probe the serving watcher polls."""

    def test_none_until_first_publish_then_monotone(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        fp = dataset_fingerprint(dataset)
        assert registry.latest_version("knnout?k=3", fingerprint=fp) is None
        model = make_estimator("knnout?k=3").fit(dataset)
        registry.publish(model)
        assert registry.latest_version("knnout?k=3", fingerprint=fp) == 1
        registry.publish(model)
        assert registry.latest_version("knnout?k=3", fingerprint=fp) == 2

    def test_data_and_bare_spec_resolution(self, dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(make_estimator("knnout?k=3").fit(dataset))
        # data= derives the fingerprint; no pin at all resolves via the
        # sole published key (the expensive path a watcher avoids)
        assert registry.latest_version("knnout?k=3", data=dataset) == 1
        assert registry.latest_version("knnout?k=3") == 1
        assert registry.latest_version("dbout") is None

    def test_concurrent_publish_race_reports_completed_only(
        self, dataset, tmp_path
    ):
        # a racing publisher claims the next version dir first, then
        # streams the artifact, then lands meta.json (the completeness
        # marker).  The probe must never report the claimed-but-
        # incomplete version: a watcher would mmap a half-written file.
        registry = ModelRegistry(tmp_path / "reg")
        model = make_estimator("knnout?k=3").fit(dataset)
        first = registry.publish(model)
        fp = first.fingerprint
        claimed = first.path.parent.parent / "v0002"
        claimed.mkdir()  # the race: mkdir won, nothing written yet
        assert registry.latest_version("knnout?k=3", fingerprint=fp) == 1
        (claimed / "model.npz").write_bytes(b"partial")  # artifact landing
        assert registry.latest_version("knnout?k=3", fingerprint=fp) == 1
        # meta.json lands last (atomically in the real publisher): only
        # now is v2 complete and reported
        (claimed / "meta.json").write_text("{}")
        assert registry.latest_version("knnout?k=3", fingerprint=fp) == 2

    def test_invalid_fingerprint_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ValueError, match="invalid dataset fingerprint"):
            registry.latest_version("knnout?k=3", fingerprint="../escape")


class TestServingCli:
    @pytest.fixture()
    def csv(self, tmp_path, dataset):
        path = tmp_path / "data.csv"
        np.savetxt(path, dataset, delimiter=",")
        return path

    @pytest.fixture()
    def held(self, tmp_path, batch):
        path = tmp_path / "held.csv"
        np.savetxt(path, batch, delimiter=",")
        return path

    def test_fit_spec_publish_then_score_mmap(self, csv, held, tmp_path, capsys):
        reg = tmp_path / "registry"
        assert main(["fit", str(csv), "--spec", "mccatch?index=vptree",
                     "--registry", str(reg)]) == 0
        out = capsys.readouterr().out
        assert "model published to" in out
        assert "version=1" in out
        assert main(["score", "mccatch?index=vptree", str(held),
                     "--registry", str(reg), "--mmap", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "scored rows=21" in out
        assert "yes" in out  # the far [55, -55] row is flagged

    def test_fit_mccatch_spec_without_index_is_persistable(self, csv, tmp_path, capsys):
        # a spec that doesn't pin index= must not fall into the
        # non-persistable "auto" kd-tree: the --index default (vptree)
        # fills the gap
        model_path = tmp_path / "m.npz"
        assert main(["fit", str(csv), "--spec", "mccatch?a=20",
                     "-o", str(model_path)]) == 0
        assert "model saved to" in capsys.readouterr().out
        assert main(["fit", str(csv), "--spec", "mccatch?a=20",
                     "--index", "balltree", "-o", str(model_path)]) == 0
        capsys.readouterr()

    def test_fit_baseline_spec_to_file_and_score(self, csv, held, tmp_path, capsys):
        model_path = tmp_path / "lof.npz"
        assert main(["fit", str(csv), "--spec", "lof?k=10",
                     "-o", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "spec=lof?k=10" in out
        assert main(["score", str(model_path), str(held)]) == 0
        out = capsys.readouterr().out
        assert "scored rows=21" in out

    def test_models_publish_bare_mccatch_spec(self, csv, tmp_path, capsys):
        # publish must apply the same index-default rewrite as fit:
        # a bare "mccatch" spec would otherwise die at save time
        reg = tmp_path / "registry"
        assert main(["models", "publish", str(reg), str(csv),
                     "--spec", "mccatch"]) == 0
        assert "mccatch?index=vptree" in capsys.readouterr().out

    def test_score_falls_back_to_sole_published_detector_spec(
        self, csv, held, tmp_path, capsys
    ):
        # fitted with a non-default index: scoring by the bare spec
        # still resolves the one published mccatch model
        reg = tmp_path / "registry"
        assert main(["fit", str(csv), "--spec", "mccatch", "--index", "balltree",
                     "--registry", str(reg)]) == 0
        capsys.readouterr()
        assert main(["score", "mccatch", str(held),
                     "--registry", str(reg), "--top", "2"]) == 0
        assert "scored rows=21" in capsys.readouterr().out

    def test_score_never_substitutes_different_hyperparameters(
        self, csv, held, tmp_path, capsys
    ):
        # the index-only fallback must NOT serve a model whose other
        # parameters differ from the requested spec
        reg = tmp_path / "registry"
        assert main(["fit", str(csv), "--spec", "mccatch?a=30",
                     "--registry", str(reg)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no published models"):
            main(["score", "mccatch?a=5", str(held), "--registry", str(reg)])

    def test_fit_rejects_spec_plus_conflicting_flags(self, csv, tmp_path):
        with pytest.raises(SystemExit, match="--n-radii cannot be combined"):
            main(["fit", str(csv), "--spec", "mccatch", "--n-radii", "30",
                  "-o", str(tmp_path / "m.npz")])
        with pytest.raises(SystemExit, match="--index cannot be combined"):
            main(["fit", str(csv), "--spec", "mccatch?index=mtree",
                  "--index", "balltree", "-o", str(tmp_path / "m.npz")])
        # an explicitly typed default value still counts as given
        with pytest.raises(SystemExit, match="--index cannot be combined"):
            main(["fit", str(csv), "--spec", "mccatch?index=mtree",
                  "--index", "vptree", "-o", str(tmp_path / "m.npz")])
        with pytest.raises(SystemExit, match="--metric cannot be combined"):
            main(["fit", str(csv), "--spec", "mccatch?metric=manhattan",
                  "--metric", "euclidean", "-o", str(tmp_path / "m.npz")])
        with pytest.raises(SystemExit, match="--index applies only to McCatch"):
            main(["fit", str(csv), "--spec", "lof?k=5",
                  "--index", "balltree", "-o", str(tmp_path / "m.npz")])

    def test_score_spec_without_registry_hints(self, held):
        with pytest.raises(SystemExit, match="needs --registry"):
            main(["score", "mccatch?index=vptree", str(held)])

    def test_silently_dropped_flags_are_rejected(self, csv, held, tmp_path):
        with pytest.raises(SystemExit, match="cannot be combined with --registry"):
            main(["fit", str(csv), "--registry", str(tmp_path / "reg"),
                  "-o", str(tmp_path / "also.npz")])
        # even spelling out the default output path counts as given
        with pytest.raises(SystemExit, match="cannot be combined with --registry"):
            main(["fit", str(csv), "--registry", str(tmp_path / "reg"),
                  "-o", "mccatch_model.npz"])
        with pytest.raises(SystemExit, match="require --registry"):
            main(["score", str(tmp_path / "m.npz"), str(held),
                  "--model-version", "2"])

    def test_metric_is_part_of_the_registry_key(self, csv, held, tmp_path, capsys):
        # same data, different fit metric -> different artifacts; a bare
        # spec must NOT silently serve either one
        reg = tmp_path / "registry"
        assert main(["fit", str(csv), "--spec", "mccatch",
                     "--registry", str(reg)]) == 0
        assert main(["fit", str(csv), "--spec", "mccatch", "--metric", "manhattan",
                     "--registry", str(reg)]) == 0
        out = capsys.readouterr().out
        assert "metric=manhattan" in out
        assert main(["score", "mccatch?index=vptree&metric=manhattan", str(held),
                     "--registry", str(reg), "--top", "1"]) == 0
        capsys.readouterr()
        # euclidean and manhattan artifacts both exist: no unique
        # index-only fallback, so the bare default spec serves euclidean
        assert main(["score", "mccatch", str(held),
                     "--registry", str(reg), "--top", "1"]) == 0
        assert "note:" not in capsys.readouterr().out

    def test_models_publish_list_resolve(self, csv, tmp_path, capsys):
        reg = tmp_path / "registry"
        assert main(["models", "publish", str(reg), str(csv),
                     "--spec", "knnout?k=4"]) == 0
        capsys.readouterr()
        assert main(["models", "list", str(reg)]) == 0
        out = capsys.readouterr().out
        assert "knnout?k=4" in out
        assert main(["models", "resolve", str(reg), "knnout?k=4"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("model.npz")

    def test_models_list_empty_registry(self, tmp_path, capsys):
        assert main(["models", "list", str(tmp_path / "nothing")]) == 0
        assert "no published models" in capsys.readouterr().out

    def test_models_list_bad_spec_filter_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown detector"):
            main(["models", "list", str(tmp_path / "reg"), "--spec", "bogus"])

    def test_fit_and_score_agree_on_unpinned_spec(self, csv, held, tmp_path, capsys):
        # `fit --spec mccatch` and `score mccatch` must land on the same
        # registry key despite the index-default rewrite
        reg = tmp_path / "registry"
        assert main(["fit", str(csv), "--spec", "mccatch",
                     "--registry", str(reg)]) == 0
        capsys.readouterr()
        assert main(["score", "mccatch", str(held),
                     "--registry", str(reg), "--top", "2"]) == 0
        assert "scored rows=21" in capsys.readouterr().out

    def test_bad_spec_fails_loudly(self, csv, tmp_path):
        with pytest.raises(SystemExit, match="unknown detector"):
            main(["fit", str(csv), "--spec", "wat?x=1", "-o", str(tmp_path / "m.npz")])

    def test_score_unpublished_spec_fails_loudly(self, csv, tmp_path):
        with pytest.raises(SystemExit, match="no published models"):
            main(["score", "lof?k=5", str(csv), "--registry", str(tmp_path / "reg")])
