"""Tests for the command-line interface."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cli import main


def test_cli_and_serve_import_paths_load_no_scipy():
    """scipy costs about 0.3 s and 35 MB of a cold start; only the index
    kind and the baselines that use it import it, when they run."""
    script = textwrap.dedent("""
        import sys
        import repro, repro.cli, repro.serve, repro.serve.server
        from repro.api import load_model
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
        import numpy as np
        from repro import McCatch
        from repro.baselines import DBSCAN
        X = np.random.default_rng(0).normal(size=(300, 2))
        assert McCatch(index="ckdtree").fit(X).n == 300
        assert DBSCAN().fit_scores(X).shape == (300,)
        assert "scipy.spatial" in sys.modules
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


@pytest.fixture()
def csv_file(tmp_path, blob_with_mc):
    X, _ = blob_with_mc
    path = tmp_path / "data.csv"
    np.savetxt(path, X, delimiter=",")
    return path


@pytest.fixture()
def names_file(tmp_path):
    names = ["SMITH", "SMYTH", "SMITT", "SMITHE"] * 20 + ["XQWZKJY", "XQWZKJX"]
    path = tmp_path / "names.txt"
    path.write_text("\n".join(names) + "\n")
    return path


class TestDetect:
    def test_csv_detection(self, csv_file, capsys):
        assert main(["detect", str(csv_file)]) == 0
        out = capsys.readouterr().out
        assert "microclusters=" in out
        assert "rank" in out

    def test_string_detection(self, names_file, capsys):
        assert main(["detect", str(names_file), "--metric", "levenshtein"]) == 0
        out = capsys.readouterr().out
        assert "microclusters=" in out

    def test_hyperparameters_forwarded(self, csv_file, capsys):
        assert main(["detect", str(csv_file), "--n-radii", "10", "--top", "3"]) == 0
        out = capsys.readouterr().out
        # --top 3 limits the ranking rows (header + <= 3 rows after the blank).
        ranking = out.split("members")[1].strip().splitlines()
        assert len(ranking) <= 3

    def test_bad_numeric_file(self, names_file):
        with pytest.raises(SystemExit, match="could not parse"):
            main(["detect", str(names_file)])

    def test_empty_string_file(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        with pytest.raises(SystemExit, match="no strings"):
            main(["detect", str(empty), "--metric", "levenshtein"])


class TestDatasets:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "http" in out and "last_names" in out and "uniform" in out


class TestDemo:
    def test_demo_with_labels(self, capsys):
        assert main(["demo", "wine", "--scale", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "AUROC" in out

    def test_demo_without_labels(self, capsys):
        assert main(["demo", "uniform", "--scale", "0.0001"]) == 0
        out = capsys.readouterr().out
        assert "McCatchResult" in out


class TestReport:
    def test_writes_html(self, csv_file, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", str(csv_file), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert text.count("<svg") == 3  # oracle + histogram + scatter
        assert "HTML report" in capsys.readouterr().out

    def test_string_report_has_no_scatter(self, names_file, tmp_path):
        out = tmp_path / "r.html"
        assert main(["report", str(names_file), "--metric", "levenshtein",
                     "-o", str(out)]) == 0
        assert out.read_text().count("<svg") == 2

    def test_json_and_markdown_sidecar(self, csv_file, tmp_path, capsys):
        out = tmp_path / "r.html"
        js = tmp_path / "r.json"
        md = tmp_path / "r.md"
        assert main(["report", str(csv_file), "-o", str(out),
                     "--save-json", str(js), "--save-markdown", str(md)]) == 0
        from repro.io import load_result_json

        reloaded = load_result_json(js)
        assert reloaded.n > 0
        assert md.read_text().startswith("# McCatch result")

    def test_custom_title(self, csv_file, tmp_path):
        out = tmp_path / "r.html"
        assert main(["report", str(csv_file), "-o", str(out),
                     "--title", "Fraud sweep"]) == 0
        assert "Fraud sweep" in out.read_text()


class TestDetectJson:
    def test_save_json_archives_result(self, csv_file, tmp_path, capsys):
        js = tmp_path / "out.json"
        assert main(["detect", str(csv_file), "--save-json", str(js)]) == 0
        from repro.io import load_result_json

        assert load_result_json(js).n > 0
        assert "archived" in capsys.readouterr().out

    def test_index_kind_forwarded(self, csv_file, capsys):
        assert main(["detect", str(csv_file), "--index", "vptree"]) == 0
        assert "microclusters=" in capsys.readouterr().out


class TestStream:
    def test_replay_with_refits(self, csv_file, capsys):
        assert main(["stream", str(csv_file), "--batch", "100"]) == 0
        out = capsys.readouterr().out
        assert "[refit]" in out
        assert "outlying at final refit" in out

    def test_sliding_window(self, csv_file, capsys):
        assert main(["stream", str(csv_file), "--batch", "100",
                     "--max-window", "200"]) == 0
        out = capsys.readouterr().out
        assert "window=200" in out

    def test_invalid_batch(self, csv_file):
        with pytest.raises(SystemExit, match="--batch"):
            main(["stream", str(csv_file), "--batch", "0"])


class TestFitScore:
    def test_fit_saves_model(self, csv_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(["fit", str(csv_file), "-o", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "model saved to" in out
        assert model_path.exists()

    def test_score_against_saved_model(self, csv_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(["fit", str(csv_file), "-o", str(model_path)]) == 0
        capsys.readouterr()
        held = tmp_path / "held.csv"
        np.savetxt(held, np.vstack([np.zeros((5, 2)), [[99.0, 99.0]]]), delimiter=",")
        assert main(["score", str(model_path), str(held), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "scored rows=6" in out
        assert "flagged=1" in out  # the far [99, 99] row
        assert "yes" in out

    def test_scores_match_in_process_model(self, csv_file, blob_with_mc, tmp_path, capsys):
        from repro import McCatch, McCatchModel

        model_path = tmp_path / "model.npz"
        assert main(["fit", str(csv_file), "-o", str(model_path)]) == 0
        X, _ = blob_with_mc
        direct = McCatch(index="vptree").fit_model(X)
        loaded = McCatchModel.load(model_path)
        held = np.vstack([X[:10], [[50.0, -50.0]]])
        assert np.array_equal(
            loaded.score_batch(held).scores, direct.score_batch(held).scores
        )

    def test_fit_saves_ckdtree_model(self, csv_file, blob_with_mc, tmp_path):
        """A cKDTree fit saves: the archive holds the inlier VP-tree."""
        from repro import McCatch, McCatchModel

        model_path = tmp_path / "m.npz"
        assert main(["fit", str(csv_file), "--index", "ckdtree",
                     "-o", str(model_path)]) == 0
        X, _ = blob_with_mc
        direct = McCatch(index="ckdtree").fit_model(X)
        held = np.vstack([X[:10], [[50.0, -50.0]]])
        assert np.array_equal(
            McCatchModel.load(model_path).score_batch(held).scores,
            direct.score_batch(held).scores,
        )
