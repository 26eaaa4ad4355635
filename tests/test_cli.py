import contextlib
import filecmp
import hashlib
import io
import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolstm import cli
from topolstm.checkpoint import load_model, save_model
from topolstm.errors import DataError
from topolstm.evaluation import rank_candidates
from topolstm.graph import Cascade, load_graph_file
from topolstm.model import Model, ModelConfig, predict_next
from topolstm.version import TOOL_VERSION


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = cli.main(["generate", "--nodes", "20", "--graph-model", "chain",
                     "--activation-prob", "1.0", "--cascades", "60",
                     "--max-len", "6", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                     "--cascades", str(data_dir / "cascades.txt"),
                     "--out", str(out), "--hidden-dim", "6", "--lr", "0.02",
                     "--batch-size", "8", "--epochs", "80", "--patience", "0",
                     "--seed", "0"])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_dataset_files(self, data_dir):
        for name in ("graph.txt", "cascades.txt", "edge_probs.txt",
                     "manifest.json"):
            assert (data_dir / name).exists()

    def test_preset_available(self, tmp_path):
        code = cli.main(["generate", "--preset", "chain-deterministic",
                         "--cascades", "5", "--out", str(tmp_path / "d")])
        assert code == 0
        graph = load_graph_file(tmp_path / "d" / "graph.txt")
        assert graph.node_count == 50

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--preset", "chain-deterministic"])
        assert exc.value.code == 2

    def test_missing_recipe_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["generate", "--out", str(tmp_path)])
        assert code == 2
        assert "--preset" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["generate", "--preset", "chain-deterministic", "--cascades",
                "20", "--seed", "5"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("graph.txt", "cascades.txt", "edge_probs.txt",
                     "manifest.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)

    # sha256 of the files `generate --preset` writes, so a change to graph
    # building, probability draws or the simulation shows; manifest.json
    # embeds the tool version and is left out.
    PRESET_DIGESTS = {
        "desk-default": {
            "graph.txt": "4e60e0193ac9161c3afaddc98744da97c78fba9a7e5996148f9e27d83176d511",
            "cascades.txt": "e2429711c4a8d430518770ed549353cd69e14522aeb9925dd0d133104949060d",
            "edge_probs.txt": "5ef2aa1cc94b0df2647c2d1c7e332f64bc361a24d7a793292348f2eca1df3146",
        },
        "chain-deterministic": {
            "graph.txt": "2c5774932e8393b51fecd26a5697f17b3eed823f4e817678a2717accf7d9d711",
            "cascades.txt": "ef013d169ffeaba2cdae067ff2ad78469a245b72e1dd4f6505a2779f02352560",
            "edge_probs.txt": "417292a43353c55dfd67832a613b160ce161593b0b39c19401f65d07d1c9eb85",
        },
    }

    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_preset_files_pinned(self, tmp_path, preset):
        assert cli.main(["generate", "--preset", preset, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PRESET_DIGESTS[preset]}
        assert digests == self.PRESET_DIGESTS[preset]

    def test_negative_seed_exit_2_names_it(self, tmp_path, capsys):
        code = cli.main(["generate", "--preset", "desk-default", "--seed", "-1",
                         "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "seed" in errors[0] and "-1" in errors[0]

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_bad_edge_param_exit_2_names_it(self, tmp_path, capsys, value):
        code = cli.main(["generate", "--nodes", "20", "--graph-model", "uniform-random-edges",
                         "--edge-param", value, "--activation-prob", "0.5",
                         "--cascades", "5", "--max-len", "4", "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "edge_param" in errors[0] and value in errors[0]
        assert not (tmp_path / "g").exists()

    def test_max_len_1_exit_2_names_it(self, tmp_path, capsys):
        # A length-1 cascade is never kept, so no activation_prob could help.
        code = cli.main(["generate", "--preset", "desk-default", "--max-len", "1",
                         "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: max_cascade_length must be >= 2, got 1"]
        assert not (tmp_path / "g").exists()


class TestTrain:
    def test_outputs_exist(self, run_dir):
        for name in ("checkpoint.bin", "labels.txt", "report.json",
                     "train.log", "split_train.txt", "split_validation.txt",
                     "split_test.txt"):
            assert (run_dir / name).exists()

    def test_report_structure(self, run_dir):
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["diverged"] is False
        assert doc["config"]["model"]["hidden_dim"] == 6
        epochs = doc["report"]["epochs"]
        assert len(epochs) == 80
        assert all(np.isfinite(e["train_loss"]) for e in epochs)

    def test_training_converged(self, run_dir):
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["report"]["epochs"][-1]["train_loss"] < 0.1

    def test_zero_epochs_checkpoint_is_initialization(self, data_dir, tmp_path):
        out = tmp_path / "init"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--hidden-dim", "5",
                         "--epochs", "0", "--seed", "9"])
        assert code == 0
        model, labels, _ = load_model(out / "checkpoint.bin")
        graph = load_graph_file(data_dir / "graph.txt")
        expected = Model.initialize(ModelConfig(5, graph.node_count),
                                    np.random.default_rng(9))
        for name, arr in expected.params.items():
            np.testing.assert_array_equal(model.params[name], arr)

    def test_lambda_zero_drops_reg_from_decomposition(self, data_dir, tmp_path):
        common = ["train", "--graph", str(data_dir / "graph.txt"),
                  "--cascades", str(data_dir / "cascades.txt"),
                  "--hidden-dim", "4", "--epochs", "2", "--seed", "1"]
        assert cli.main(common + ["--lambda", "0", "--out",
                                  str(tmp_path / "noreg")]) == 0
        assert cli.main(common + ["--lambda", "1e-4", "--out",
                                  str(tmp_path / "reg")]) == 0
        no_reg = json.loads((tmp_path / "noreg" / "report.json").read_text())
        with_reg = json.loads((tmp_path / "reg" / "report.json").read_text())
        assert all(e["train_reg"] is None for e in no_reg["report"]["epochs"])
        assert all(e["train_reg"] > 0 for e in with_reg["report"]["epochs"])
        assert "+" not in (tmp_path / "noreg" / "train.log").read_text().splitlines()[-1]
        assert "+" in (tmp_path / "reg" / "train.log").read_text().splitlines()[-1]

    def test_divergence_exit_code(self, data_dir, tmp_path, capsys):
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(tmp_path / "div"), "--hidden-dim", "4",
                         "--epochs", "3", "--lambda", "1e308"])
        assert code == 3
        assert (tmp_path / "div" / "report.json").exists()
        assert json.loads((tmp_path / "div" / "report.json").read_text())["diverged"]

    @pytest.mark.parametrize("lr", ["1e308", "1e300"])
    def test_overflowing_learning_rate_exit_3_with_report(self, data_dir, tmp_path,
                                                          capsys, lr):
        out = tmp_path / "div"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--hidden-dim", "8", "--epochs", "3",
                         "--lr", lr])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert json.loads((out / "report.json").read_text())["diverged"]
        assert len(err) == 1 and err[0].startswith("error:")

    def test_finite_blow_up_exit_3_with_report(self, data_dir, tmp_path, capsys):
        # lr 1e6 keeps every loss finite but far above uniform guessing.
        out = tmp_path / "div"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--hidden-dim", "8", "--epochs", "1",
                         "--lr", "1e6"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert json.loads((out / "report.json").read_text())["diverged"]
        assert len(err) == 1 and "log(node count)" in err[0]

    def test_label_starting_with_hash_exit_2(self, data_dir, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("a #b\n", encoding="utf-8")
        code = cli.main(["train", "--graph", str(graph), "--undirected",
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(tmp_path / "run"), "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: graph line 1: label '#b' starts with '#'"]
        assert not (tmp_path / "run").exists()

    def test_blow_up_in_the_last_step_is_not_saved(self, data_dir, tmp_path, capsys):
        # One batch and no validation set: the epoch's only Adam step is its
        # last, and no later loss would see its 1e308 parameters.
        out = tmp_path / "div"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--hidden-dim", "4", "--epochs", "1",
                         "--lr", "1e308", "--val-frac", "0", "--batch-size", "1000"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert json.loads((out / "report.json").read_text())["diverged"]
        assert not (out / "checkpoint.bin").exists()
        assert len(err) == 1 and err[0].startswith("error: non-finite parameters")

    def test_deterministic_reruns_byte_identical(self, data_dir, tmp_path):
        common = ["train", "--graph", str(data_dir / "graph.txt"),
                  "--cascades", str(data_dir / "cascades.txt"),
                  "--hidden-dim", "4", "--epochs", "3", "--seed", "4"]
        assert cli.main(common + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(common + ["--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.bin", "report.json", "labels.txt",
                     "split_train.txt", "split_validation.txt",
                     "split_test.txt"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name
        # Wall-clock time is only in train.log: one seconds column per epoch.
        report = (tmp_path / "a" / "report.json").read_text()
        assert "seconds" not in report
        rows = [line.split() for line in
                (tmp_path / "a" / "train.log").read_text().splitlines()
                if not line.startswith("#")]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(float(row[-1]) >= 0 for row in rows)

    def test_negative_seed_exit_2_names_it(self, data_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--epochs", "1", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "seed" in errors[0] and "-1" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--lr", "-1", "learning_rate"), ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"), ("--clip-norm", "-1", "clip_norm"),
        ("--clip-norm", "nan", "clip_norm"), ("--lambda", "nan", "lam"),
        ("--lambda", "inf", "lam")])
    def test_bad_learning_rate_clip_norm_or_lambda_exit_2(self, data_dir, tmp_path,
                                                          capsys, flag, value, name):
        out = tmp_path / "bad"
        code = cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(out), "--epochs", "2", flag, value])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and name in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# comments only\n\n#1 2\n"], ids=["empty", "comments"])
    def test_graph_without_edges_exit_2_names_the_file(self, data_dir, tmp_path, capsys,
                                                       text):
        graph = tmp_path / "empty.txt"
        graph.write_text(text, encoding="utf-8")
        code = cli.main(["train", "--graph", str(graph),
                         "--cascades", str(data_dir / "cascades.txt"),
                         "--out", str(tmp_path / "run"), "--epochs", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: graph {graph} has no edges"]
        assert not (tmp_path / "run").exists()

    def test_workers_flag_removed(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                      "--cascades", str(data_dir / "cascades.txt"),
                      "--out", str(tmp_path / "w"), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()


class TestEvaluate:
    def test_metrics_files(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run_dir / "split_test.txt"),
                         "--train-cascades",
                         str(run_dir / "split_train.txt"),
                         "--ks", "10,50,100", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert [r["scorer"] for r in doc["results"]] == ["topo-lstm", "ic-sb"]
        ks = [m["k"] for m in doc["results"][0]["metrics"]]
        assert ks == [10, 50, 100, 10, 50, 100]
        text = (out / "metrics.txt").read_text()
        assert "MAP@k (%)" in text and "Hits@k (%)" in text
        assert "@10" in text and "@50" in text and "@100" in text
        assert (out / "length_buckets.csv").exists()

    def test_trained_model_recalls_training_chain(self, data_dir, run_dir,
                                                  tmp_path):
        # Oracle-style sanity: evaluated on its own training cascades the
        # converged chain model ranks the next node first nearly always.
        out = tmp_path / "eval_train"
        code = cli.main(["evaluate", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run_dir / "split_train.txt"),
                         "--ks", "1,10", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        # Without --train-cascades or --edge-probs only the model is scored.
        assert [r["scorer"] for r in doc["results"]] == ["topo-lstm"]
        assert doc["config"]["baseline"] is None
        assert not (out / "icsb_edge_probs.txt").exists()
        hits10 = [m for m in doc["results"][0]["metrics"]
                  if m["metric"] == "hits" and m["k"] == 10]
        assert hits10[0]["value"] > 0.95

    def test_empty_test_file_exit_2(self, data_dir, run_dir, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code = cli.main(["evaluate", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(empty),
                         "--out", str(tmp_path / "e")])
        assert code == 2

    def test_train_then_evaluate_with_one_node_cascades(self, data_dir, tmp_path):
        cascades = tmp_path / "cascades.txt"
        extra = "".join(f"{label}\n" for label in range(0, 20, 2))
        cascades.write_text((data_dir / "cascades.txt").read_text() + extra)
        run = tmp_path / "run"
        assert cli.main(["train", "--graph", str(data_dir / "graph.txt"),
                         "--cascades", str(cascades), "--out", str(run),
                         "--hidden-dim", "4", "--epochs", "1"]) == 0
        test_lines = (run / "split_test.txt").read_text().splitlines()
        assert any(len(line.split()) == 1 for line in test_lines[1:])
        assert cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run / "split_test.txt"),
                         "--train-cascades", str(run / "split_train.txt"),
                         "--out", str(tmp_path / "eval")]) == 0

    def test_length_one_cascades_warned_once_with_baseline(self, data_dir, run_dir, tmp_path,
                                                           caplog, capsys):
        def evaluate(test_file, out):
            return cli.main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                             "--graph", str(data_dir / "graph.txt"),
                             "--test-cascades", str(test_file),
                             "--train-cascades", str(run_dir / "split_train.txt"),
                             "--out", str(tmp_path / out)])

        mixed, short = tmp_path / "mixed.txt", tmp_path / "short.txt"
        short.write_text("0\n2\n4\n")
        mixed.write_text((run_dir / "split_test.txt").read_text() + short.read_text())
        with caplog.at_level(logging.WARNING):
            assert evaluate(mixed, "mixed") == 0
        excluded = [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()]
        assert len(excluded) == 1 and excluded[0].startswith("excluded 3 length-1")
        assert evaluate(short, "short") == 2
        assert capsys.readouterr().err == "error: empty test set\n"

    def test_k_below_one_exit_2(self, data_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "k"
        code = cli.main(["evaluate", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run_dir / "split_test.txt"),
                         "--ks", "0,-3", "--out", str(out)])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "k must be >= 1" in errors[0]
        assert not (out / "metrics.json").exists()

    def test_graph_checkpoint_mismatch_exit_4(self, run_dir, tmp_path):
        other = tmp_path / "other.txt"
        other.write_text("x y\ny z\n")
        code = cli.main(["evaluate", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(other),
                         "--test-cascades", str(run_dir / "split_test.txt"),
                         "--out", str(tmp_path / "m")])
        assert code == 4

    def test_fitted_edge_probs_load_back(self, data_dir, run_dir, tmp_path):
        # Scoring IC-SB with the probabilities a fit wrote gives the fit's files.
        common = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                  "--graph", str(data_dir / "graph.txt"),
                  "--test-cascades", str(run_dir / "split_test.txt")]
        assert cli.main(common + ["--train-cascades", str(run_dir / "split_train.txt"),
                                  "--out", str(tmp_path / "fit")]) == 0
        assert cli.main(common + ["--edge-probs", str(tmp_path / "fit" / "icsb_edge_probs.txt"),
                                  "--out", str(tmp_path / "load")]) == 0
        doc = json.loads((tmp_path / "fit" / "metrics.json").read_text())
        assert [r["scorer"] for r in doc["results"]] == ["topo-lstm", "ic-sb"]
        assert doc["config"]["baseline"] == "icsb"
        for name in ("metrics.json", "metrics.txt", "length_buckets.csv"):
            assert filecmp.cmp(tmp_path / "fit" / name, tmp_path / "load" / name,
                               shallow=False), name
        assert not (tmp_path / "load" / "icsb_edge_probs.txt").exists()

    @pytest.mark.parametrize("lines, bad_line, what", [
        (["0 1 0.5", "0 1 0.7"], 2, "given twice"),
        (["0 1 0.5", "5 3 0.9"], 2, "not an edge"),
        (["0 1 0.5", "zz 2 0.5"], 2, "unknown node label 'zz'"),
    ])
    def test_edge_probs_lines_scoring_would_ignore_exit_2(
            self, data_dir, run_dir, tmp_path, capsys, lines, bad_line, what):
        error = self._evaluate_with_bad_probs(data_dir, run_dir, tmp_path, capsys, lines)
        assert f"line {bad_line}" in error and what in error

    @pytest.mark.parametrize("value", ["x", "nan", "1.5", "-0.1"])
    def test_edge_probs_bad_probability_exit_2(self, data_dir, run_dir, tmp_path, capsys, value):
        error = self._evaluate_with_bad_probs(data_dir, run_dir, tmp_path, capsys,
                                              ["0 1 0.5", f"1 2 {value}"])
        assert f"line 2: p = '{value}' is not a number in [0, 1]" in error

    @staticmethod
    def _evaluate_with_bad_probs(data_dir, run_dir, tmp_path, capsys, lines):
        """Run evaluate with an --edge-probs file of ``lines``; it must exit 2
        with one error line and no traceback, which is returned."""
        probs = tmp_path / "probs.txt"
        probs.write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run_dir / "split_test.txt"),
                         "--edge-probs", str(probs),
                         "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        return errors[0]

    def test_timing_file(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--test-cascades", str(run_dir / "split_test.txt"),
                         "--train-cascades", str(run_dir / "split_train.txt"),
                         "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {"read_inputs_seconds", "scorers", "tool_version"}
        assert timing["tool_version"] == TOOL_VERSION
        assert timing["read_inputs_seconds"] > 0
        assert [entry["scorer"] for entry in timing["scorers"]] == ["topo-lstm", "ic-sb"]
        for entry in timing["scorers"]:
            assert set(entry) == {"scorer", "seconds", "us_per_instance"}
            assert entry["seconds"] > 0 and entry["us_per_instance"] > 0

    def test_reruns_byte_identical(self, data_dir, run_dir, tmp_path):
        args = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--graph", str(data_dir / "graph.txt"),
                "--test-cascades", str(run_dir / "split_test.txt")]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("metrics.json", "metrics.txt", "length_buckets.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)


class TestPredict:
    def test_chain_continuation(self, data_dir, run_dir, capsys):
        code = cli.main(["predict", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--prefix", "0", "1", "2", "--top-n", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split()[0] == "3"

    def test_probabilities_descend_and_sum_below_one(self, data_dir, run_dir,
                                                     capsys):
        code = cli.main(["predict", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--prefix", "4", "5", "--top-n", "100"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 18  # clamped to the inactive-node count
        probs = [float(line.split()[1]) for line in lines]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) <= 1.0 + 1e-9

    def test_ties_print_ascending_ids(self, data_dir, run_dir, tmp_path, capsys):
        model, labels, header = load_model(run_dir / "checkpoint.bin")
        model.params["G"][...] = 0.0
        model.params["b_act"][...] = 0.0
        flat = tmp_path / "flat.bin"
        save_model(flat, model, labels, extra=header.get("extra"))
        code = cli.main(["predict", "--checkpoint", str(flat),
                         "--graph", str(data_dir / "graph.txt"),
                         "--prefix", "7", "3", "--top-n", "100"])
        assert code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        ids = [labels.index(label) for label, _ in lines]
        assert ids == sorted(set(range(20)) - {labels.index("7"), labels.index("3")})
        assert {p for _, p in lines} == {repr(1 / 18)}

    @pytest.mark.parametrize("blow_up", ["cell", "scores"])
    def test_blown_up_checkpoint_exit_2_without_warnings(self, data_dir, run_dir,
                                                         tmp_path, capsys, blow_up):
        # Saturated gates make every state [tanh(1) | 1] after the first.
        # "cell": U_c = -1e308 meets W_c + b_c = -inf, so c_tilde is NaN.
        # "scores": G = 1e308 takes every score to inf, so the softmax is NaN.
        # Under filterwarnings = error a float warning would escape main.
        model, labels, header = load_model(run_dir / "checkpoint.bin")
        model.params.fill(0.0)
        for name in ("b_i", "b_o", "b_c"):
            model.params[name][...] = 1e308
        model.params["b_f"][...] = -1e308
        if blow_up == "cell":
            for name in ("W_c", "b_c", "U_c_p", "U_c_q"):
                model.params[name][...] = -1e308
        else:
            model.params["G"][...] = 1e308
        path = tmp_path / "blown.bin"
        save_model(path, model, labels, extra=header.get("extra"))
        common = ["--checkpoint", str(path), "--graph", str(data_dir / "graph.txt")]
        for args in (["evaluate", "--test-cascades", str(run_dir / "split_test.txt"),
                      "--out", str(tmp_path / "eval")],
                     ["predict", "--prefix", "0", "1"]):
            code = cli.main(args[:1] + common + args[1:])
            err = capsys.readouterr().err.splitlines()
            assert code == 2
            assert len(err) == 1 and err[0].startswith("error: non-finite")

    def test_ties_print_like_rank_candidates(self, data_dir, run_dir, tmp_path, capsys):
        # Bias-only scores over three levels, one of which underflows to
        # probability 0: the printed order is rank_candidates' on the same
        # probabilities, ties by ascending node id.
        model, labels, header = load_model(run_dir / "checkpoint.bin")
        graph = load_graph_file(data_dir / "graph.txt")
        model.params["G"][...] = 0.0
        rng = np.random.default_rng(7)
        for trial in range(5):
            model.params["b_act"][...] = rng.choice([0.0, 1.0, -1000.0], size=len(labels))
            path = tmp_path / f"ties{trial}.bin"
            save_model(path, model, labels, extra=header.get("extra"))
            prefix = [labels[v] for v in rng.permutation(len(labels))[:3].tolist()]
            code = cli.main(["predict", "--checkpoint", str(path),
                             "--graph", str(data_dir / "graph.txt"),
                             "--prefix", *prefix, "--top-n", "100"])
            assert code == 0
            got = capsys.readouterr().out.splitlines()
            cand, probs = predict_next(model, graph, Cascade(tuple(map(labels.index, prefix))))
            scores = dict(zip(cand.tolist(), probs.tolist()))
            assert len(set(scores.values())) == 3
            assert got == [f"{labels[v]} {scores[v]!r}" for v in rank_candidates(scores)]

    def test_labels_starting_with_dash(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("-x y\n-y b\nb -x\ny c\n", encoding="utf-8")
        labels = load_graph_file(graph).labels
        checkpoint = tmp_path / "init.bin"
        save_model(checkpoint, Model.initialize(ModelConfig(2, len(labels)),
                                                np.random.default_rng(0)), labels)
        common = ["predict", "--checkpoint", str(checkpoint), "--graph", str(graph),
                  "--top-n", "10"]
        for prefix, rest in ((["--prefix=-x", "--prefix", "y"], {"-y", "b", "c"}),
                             (["--prefix=-x", "--prefix=-y", "--prefix", "b", "c"], {"y"})):
            assert cli.main(common + prefix) == 0
            assert {line.split()[0] for line in capsys.readouterr().out.splitlines()} == rest

    def test_unknown_label_exit_2_names_it(self, data_dir, run_dir, capsys):
        code = cli.main(["predict", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--prefix", "0", "zzz"])
        assert code == 2
        assert "zzz" in capsys.readouterr().err

    def test_repeated_prefix_rejected(self, data_dir, run_dir):
        code = cli.main(["predict", "--checkpoint",
                         str(run_dir / "checkpoint.bin"),
                         "--graph", str(data_dir / "graph.txt"),
                         "--prefix", "0", "0"])
        assert code == 2


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command,flag", [
    ("train", "--graph"), ("train", "--cascades"),
    ("evaluate", "--checkpoint"), ("evaluate", "--graph"),
    ("evaluate", "--test-cascades"), ("evaluate", "--train-cascades"),
    ("predict", "--checkpoint"), ("predict", "--graph"),
])
def test_unreadable_input_path_exit_2_names_it(command, flag, kind, data_dir,
                                               run_dir, tmp_path, capsys):
    graph, ckpt = str(data_dir / "graph.txt"), str(run_dir / "checkpoint.bin")
    args = {
        "train": ["--graph", graph, "--cascades", str(data_dir / "cascades.txt"),
                  "--hidden-dim", "4", "--epochs", "1", "--out", str(tmp_path / "t")],
        "evaluate": ["--checkpoint", ckpt, "--graph", graph,
                     "--test-cascades", str(run_dir / "split_test.txt"),
                     "--train-cascades", str(run_dir / "split_train.txt"),
                     "--out", str(tmp_path / "e")],
        "predict": ["--checkpoint", ckpt, "--graph", graph, "--prefix", "0"],
    }[command]
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    args[args.index(flag) + 1] = str(bad)
    code = cli.main([command] + args)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(bad) in errors[0]


@pytest.mark.parametrize("command, override, code", [
    ("evaluate", {"--checkpoint": "junk.bin"}, 4),
    ("evaluate", {"--graph": "other.txt"}, 4),
    ("evaluate", {"--graph": "missing.txt"}, 2),
    ("evaluate", {"--test-cascades": "missing.txt"}, 2),
    ("evaluate", {"--train-cascades": "train.txt", "--edge-probs": "probs.txt"}, 2),
    ("evaluate", {"--edge-probs": "bad.txt"}, 2),
    ("train", {"--graph": "missing.txt"}, 2),
    ("train", {"--cascades": "missing.txt"}, 2),
    ("train", {"--cascades": "bad.txt"}, 2),
    ("train", {"--cascades": "short.txt"}, 2),
], ids=["junk-checkpoint", "mismatched-graph", "missing-graph", "missing-test-cascades",
        "train-cascades-and-edge-probs", "bad-edge-probs", "train-missing-graph",
        "train-missing-cascades", "train-bad-cascades", "train-split-all-length-1"])
def test_refused_run_leaves_no_out_dir(command, override, code, data_dir, run_dir, tmp_path,
                                       capsys, monkeypatch):
    # Inputs are checked before any scoring, and --out is made only after.
    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before the inputs were checked")
    monkeypatch.setattr(cli.evaluation, "evaluate", no_scoring)
    for name, text in (("junk.bin", "junk"), ("other.txt", "x y\ny z\n"),
                       ("bad.txt", "0 1 2\n0 zz\n"), ("train.txt", "0 1\n"),
                       ("probs.txt", "# u v p\n"), ("short.txt", "0\n1\n2\n3\n")):
        (tmp_path / name).write_text(text)
    flags = {
        "evaluate": {"--checkpoint": str(run_dir / "checkpoint.bin"),
                     "--test-cascades": str(run_dir / "split_test.txt")},
        "train": {"--cascades": str(data_dir / "cascades.txt"),
                  "--hidden-dim": "4", "--epochs": "1"},
    }[command]
    flags["--graph"] = str(data_dir / "graph.txt")
    for flag, value in override.items():
        flags[flag] = str(tmp_path / value)
    out = tmp_path / "out"
    try:
        result = cli.main([command, "--out", str(out)]
                          + [part for item in flags.items() for part in item])
    except SystemExit as exc:   # argparse refuses the flags themselves
        result = exc.code
    assert result == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error: " in line]) == 1
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["generate", "--preset", "desk-default"], "--deterministic"),
    (["train", "--graph", "g", "--cascades", "c"], "--deterministic"),
    (["evaluate", "--checkpoint", "c", "--graph", "g", "--test-cascades", "t"],
     "--deterministic"),
    (["evaluate", "--checkpoint", "c", "--graph", "g", "--test-cascades", "t"],
     "--undirected"),
    (["evaluate", "--checkpoint", "c", "--graph", "g", "--test-cascades", "t"],
     "--length-csv"),
    (["evaluate", "--checkpoint", "c", "--graph", "g", "--test-cascades", "t"],
     "--baseline"),
    (["predict", "--checkpoint", "c", "--graph", "g", "--prefix", "0"], "--undirected"),
], ids=["generate-deterministic", "train-deterministic", "evaluate-deterministic",
        "evaluate-undirected", "evaluate-length-csv", "evaluate-baseline", "predict-undirected"])
def test_removed_flags_rejected(args, flag, tmp_path, capsys):
    # evaluate and predict take the graph direction from the checkpoint,
    # reports hold no timings, evaluate always writes the length buckets and
    # scores IC-SB whenever --train-cascades or --edge-probs is given.
    args = args + [flag] + (["--out", str(tmp_path / "x")] if args[0] != "predict" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


class TestGraphDirectionFromCheckpoint:
    """evaluate and predict read the graph as the checkpoint's train run did."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """A one-direction graph, the same graph with both directions written
        out, and a precedent-only checkpoint from train --undirected."""
        root = tmp_path_factory.mktemp("direction")
        assert cli.main(["generate", "--nodes", "30", "--graph-model",
                         "preferential-attachment", "--edge-param", "2",
                         "--activation-prob", "0.2,0.8", "--cascades", "60",
                         "--max-len", "8", "--seed", "4",
                         "--out", str(root / "data")]) == 0
        pairs = [line.split() for line in
                 (root / "data" / "graph.txt").read_text().splitlines()
                 if not line.startswith("#")]
        one_way = [(u, v) for u, v in pairs if int(u) < int(v)]
        (root / "one_way.txt").write_text("".join(f"{u} {v}\n" for u, v in one_way))
        (root / "both_ways.txt").write_text(
            "".join(f"{u} {v}\n{v} {u}\n" for u, v in one_way))
        assert cli.main(["train", "--graph", str(root / "one_way.txt"),
                         "--cascades", str(root / "data" / "cascades.txt"),
                         "--undirected", "--score-mode", "precedent-only",
                         "--hidden-dim", "4", "--epochs", "2",
                         "--out", str(root / "run")]) == 0
        return root

    @staticmethod
    def evaluate(run, checkpoint, graph, out):
        assert cli.main(["evaluate", "--checkpoint", str(checkpoint),
                         "--graph", str(run / graph),
                         "--test-cascades", str(run / "run" / "split_test.txt"),
                         "--train-cascades", str(run / "run" / "split_train.txt"),
                         "--out", str(out)]) == 0
        return json.loads((out / "metrics.json").read_text())["results"]

    @staticmethod
    def predict(run, checkpoint, graph, capsys):
        prefix = (run / "run" / "split_test.txt").read_text().splitlines()[1].split()[:3]
        capsys.readouterr()
        assert cli.main(["predict", "--checkpoint", str(checkpoint),
                         "--graph", str(run / graph), "--prefix", *prefix,
                         "--top-n", "30"]) == 0
        return capsys.readouterr().out

    @staticmethod
    def resave(run, path, extra):
        model, labels, _ = load_model(run / "run" / "checkpoint.bin")
        save_model(path, model, labels, extra=extra)
        return path

    def test_evaluate_and_predict_reuse_train_undirected(self, run, tmp_path, capsys):
        checkpoint = run / "run" / "checkpoint.bin"
        assert load_model(checkpoint)[2]["extra"]["undirected"] is True
        assert (self.evaluate(run, checkpoint, "one_way.txt", tmp_path / "one")
                == self.evaluate(run, checkpoint, "both_ways.txt", tmp_path / "both"))
        assert (self.predict(run, checkpoint, "one_way.txt", capsys)
                == self.predict(run, checkpoint, "both_ways.txt", capsys))

    def test_checkpoint_without_the_key_reads_directed(self, run, tmp_path, capsys):
        undirected = self.evaluate(run, run / "run" / "checkpoint.bin",
                                   "one_way.txt", tmp_path / "u")
        no_key = self.resave(run, tmp_path / "no_key.bin", None)
        directed = self.evaluate(run, no_key, "one_way.txt", tmp_path / "d")
        assert directed != undirected
        said = self.resave(run, tmp_path / "said.bin", {"undirected": False})
        assert self.evaluate(run, said, "one_way.txt", tmp_path / "s") == directed
        assert (self.predict(run, said, "one_way.txt", capsys)
                == self.predict(run, no_key, "one_way.txt", capsys))

    @pytest.mark.parametrize("extra", [{"undirected": 1}, {"undirected": "true"},
                                       {"undirected": None}, [True], "undirected"],
                             ids=["int", "string", "null", "list", "string-extra"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_malformed_direction_exit_4(self, run, tmp_path, capsys, extra, command):
        checkpoint = str(self.resave(run, tmp_path / "bad.bin", extra))
        args = {"evaluate": ["--test-cascades", str(run / "run" / "split_test.txt"),
                             "--out", str(tmp_path / "e")],
                "predict": ["--prefix", "0"]}[command]
        code = cli.main([command, "--checkpoint", checkpoint,
                         "--graph", str(run / "one_way.txt")] + args)
        err = capsys.readouterr().err
        assert code == 4
        assert err.splitlines() == [
            f"error: {checkpoint}: header 'extra' must be an object whose "
            "'undirected', if present, is true or false"]


class TestVersionFlag:
    def test_version_prints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


# Labels and fields the readers treat specially: '#' comments, Unicode line
# breaks and whitespace, numbers that do not parse to a finite float.  Each
# file holds lines of the expected shape, over a handful of labels that a
# small graph names, alone or mixed with arbitrary lines.  Every graph file
# starts with edges over all of those labels.
FUZZ_LABELS = ("0", "1", "2", "nan", "1e400", "-0", "#", "x#", "\x85")
GRAPH_BASE = "0 1\n1 2\n2 nan\nnan 1e400\n1e400 -0\n-0 x#\nx# #\n#1 0\n"
fuzz_label = st.sampled_from(FUZZ_LABELS)
fuzz_field = (fuzz_label | st.sampled_from(("\x0b", " ", "\r", "inf", "0.5", "2", ""))
              | st.text(st.characters(exclude_categories=("Cs",)), max_size=3))
fuzz_line = st.lists(fuzz_field, max_size=4).map(" ".join)


def fuzz_file(line, min_size=0):
    """Up to 8 lines: all of the given shape, or mixed with arbitrary ones."""
    return (st.lists(line, min_size=min_size, max_size=8)
            | st.lists(line | fuzz_line, max_size=8)).map("\n".join)


class TestCliFuzz:
    """Any text as the graph, cascade or edge-probability file, or as predict
    labels, ends a train, evaluate or predict run with exit 0, 2, 3 or 4 and
    at most one error line.  No exception escapes main, and under the
    project's filterwarnings = error no warning does either.  argparse ends
    a run it cannot parse (a label starting with '-') with SystemExit(2),
    but always parses labels given one by one as --prefix=LABEL."""

    @staticmethod
    def run(argv, parses=False):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert not parses, (argv, err.getvalue())
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
        return code

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fuzz_file(st.lists(fuzz_label, min_size=2, max_size=2, unique=True).map(" ".join)),
           fuzz_file(st.lists(fuzz_label, min_size=1, max_size=4, unique=True).map(" ".join),
                     min_size=3),
           fuzz_file(st.tuples(fuzz_label, fuzz_label, fuzz_field).map(" ".join)),
           st.lists(fuzz_field, min_size=1, max_size=3),
           st.sampled_from(("all-active", "precedent-only")), st.sampled_from(("0.01", "1e308")))
    def test_train_evaluate_predict(self, graph, cascades, probs, prefix, mode, lr):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            files = {"graph": GRAPH_BASE + graph, "cascades": cascades, "probs": probs}
            for name, text in files.items():
                files[name] = str(tmp / f"{name}.txt")
                Path(files[name]).write_text(text, encoding="utf-8")
            self.run(["train", "--graph", files["graph"], "--cascades", files["cascades"],
                      "--out", str(tmp / "run"), "--hidden-dim", "2", "--epochs", "1",
                      "--batch-size", "4", "--score-mode", mode, "--lr", lr])
            # A checkpoint that matches the graph when the graph loads, so
            # evaluate and predict also get past the checkpoint check.
            checkpoint = tmp / "run" / "checkpoint.bin"
            if not checkpoint.exists():
                checkpoint = tmp / "init.bin"
                try:
                    labels = load_graph_file(files["graph"]).labels
                except DataError:
                    labels = ("0", "1")
                model = Model.initialize(ModelConfig(2, len(labels), mode),
                                         np.random.default_rng(0))
                save_model(checkpoint, model, labels)
            common = ["--checkpoint", str(checkpoint), "--graph", files["graph"]]
            self.run(["evaluate", *common, "--test-cascades", files["cascades"],
                      "--edge-probs", files["probs"],
                      "--ks", "1,2", "--out", str(tmp / "eval")])
            self.run(["predict", *common, "--prefix", *prefix])
            self.run(["predict", *common, *(f"--prefix={label}" for label in prefix)],
                     parses=True)
