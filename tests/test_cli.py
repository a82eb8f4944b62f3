"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _reference import predict_entry
import btdqos
from btdqos.cli import main
from btdqos.data_io import load_model, parse_qos_log, save_model
from btdqos.model import BlockStructure, init_random
from test_model import single_block_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run_module(args, cwd):
    """Run ``python -m btdqos`` in ``cwd`` on the package this process imported.

    A relative ``PYTHONPATH`` (such as ``src``) would not resolve from
    ``cwd``, so the child gets the absolute directory that holds the
    imported ``btdqos`` in front of the inherited path.
    """
    package_root = str(Path(btdqos.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, "-m", "btdqos", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def _write_log(path, rows):
    path.write_text("".join(f"{i} {j} {k} {v}\n" for i, j, k, v in rows),
                    encoding="utf-8")


def _toy_log(path, n=60, dims=(6, 6, 6), seed=0):
    rng = np.random.default_rng(seed)
    sel = rng.choice(dims[0] * dims[1] * dims[2], size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    vals = rng.uniform(0.1, 2.0, n)
    _write_log(path, zip(ii.tolist(), jj.tolist(), kk.tolist(),
                         np.round(vals, 6).tolist()))


class TestIngest:
    def test_happy_path(self, workdir):
        _toy_log(workdir / "toy.txt", n=100, dims=(10, 10, 10))
        code = main(["ingest", "--data", "toy.txt", "--users", "10",
                     "--services", "10", "--slices", "10",
                     "--split", "0.1,0.1,0.8", "--seed", "7", "--out", "splits"])
        assert code == 0
        manifest = json.loads((workdir / "splits" / "manifest.json").read_text())
        assert manifest["counts"] == {"train": 10, "validation": 10, "test": 80}
        assert manifest["kept"] == 100
        for name in ("train.txt", "validation.txt", "test.txt"):
            assert (workdir / "splits" / name).exists()

    def test_multi_line_name_keeps_partitions_readable(self, workdir):
        """A dataset label with a line break still writes partition files
        whose header lines are all comments."""
        _toy_log(workdir / "toy.txt", n=100, dims=(10, 10, 10))
        code = main(["ingest", "--data", "toy.txt", "--users", "10",
                     "--services", "10", "--slices", "10",
                     "--split", "0.1,0.1,0.8", "--name", "x\ny", "--out", "splits"])
        assert code == 0
        manifest = json.loads((workdir / "splits" / "manifest.json").read_text())
        for name, count in manifest["counts"].items():
            result = parse_qos_log(workdir / "splits" / f"{name}.txt", (10, 10, 10))
            assert result.tensor.n_entries == count

    def test_missing_file_names_path(self, workdir, caplog):
        code = main(["ingest", "--data", "absent.txt", "--users", "5",
                     "--services", "5", "--slices", "5",
                     "--split", "0.1,0.1,0.8", "--out", "splits"])
        assert code == 2
        assert "absent.txt" in caplog.text

    def test_bad_ratios(self, workdir):
        _toy_log(workdir / "toy.txt")
        code = main(["ingest", "--data", "toy.txt", "--users", "6",
                     "--services", "6", "--slices", "6",
                     "--split", "0.6,0.3,0.3", "--out", "splits"])
        assert code == 2

    def test_usage_error(self, workdir):
        assert main(["ingest", "--data", "x.txt"]) == 2

    def test_log_not_utf8_is_a_usage_error(self, workdir, caplog):
        (workdir / "bad.txt").write_bytes(b"0 0 0 1.0\n0 1 1 \xff\n")
        code = main(["ingest", "--data", "bad.txt", "--users", "2",
                     "--services", "2", "--slices", "2",
                     "--split", "0.5,0.2,0.3", "--out", "splits"])
        assert code == 2
        assert "line 2: not valid UTF-8" in caplog.text
        assert "unexpected failure" not in caplog.text


class TestTrain:
    def test_bundled_fixture_converges(self, workdir, caplog):
        """The committed 8x8x8 fixture converges within 1000 epochs."""
        with caplog.at_level("INFO"):
            code = main(["train", "--config", str(FIXTURES / "train8.json")])
        assert code == 0
        with (workdir / "out" / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "objective", "validation_rmse"]
        n_epochs = len(rows) - 1
        assert n_epochs < 1000  # converged before the iteration cap
        assert f"stopped on tol after {n_epochs} epochs" in caplog.text
        # Known-good first-epoch objective for this fixture and seed.
        assert float(rows[1][1]) == pytest.approx(17.288958020273142, rel=1e-6)
        model = load_model(workdir / "out" / "model.json")
        assert model.dims == (8, 8, 8)
        for name in ("train.txt", "validation.txt", "test.txt"):
            assert (workdir / "out" / "splits" / name).exists()

    def test_max_iter_override_single_epoch(self, workdir, caplog):
        with caplog.at_level("INFO"):
            code = main(["train", "--config", str(FIXTURES / "train8.json"),
                         "--max-iter", "1"])
        assert code == 0
        with (workdir / "out" / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header plus exactly one epoch row
        assert "stopped on max_iter after 1 epochs" in caplog.text

    def test_seed_flag_overrides_config_seed(self, workdir):
        """--seed 5 trains what a config with train.seed 5 trains, not what
        the fixture's own seed 3 trains."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        cfg["train"]["seed"] = 5
        (workdir / "seed5.json").write_text(json.dumps(cfg))
        fixture = str(FIXTURES / "train8.json")
        checkpoints = []
        for argv in ([fixture, "--seed", "5"], ["seed5.json"], [fixture]):
            assert main(["train", "--config", *argv, "--max-iter", "3"]) == 0
            checkpoints.append((workdir / "out" / "model.json").read_bytes())
        flag, config, default = checkpoints
        assert flag == config
        assert flag != default

    def test_no_bias_zeroes_bias_vectors(self, workdir):
        code = main(["train", "--config", str(FIXTURES / "train8.json"),
                     "--max-iter", "3", "--no-bias"])
        assert code == 0
        model = load_model(workdir / "out" / "model.json")
        for bias in model.biases:
            assert not bias.any()

    def test_idempotent_outputs(self, workdir):
        args = ["train", "--config", str(FIXTURES / "train8.json"),
                "--max-iter", "5"]
        assert main(args) == 0
        first_ckpt = (workdir / "out" / "model.json").read_bytes()
        first_traj = (workdir / "out" / "trajectory.csv").read_bytes()
        assert main(args) == 0
        assert (workdir / "out" / "model.json").read_bytes() == first_ckpt
        assert (workdir / "out" / "trajectory.csv").read_bytes() == first_traj

    def test_grid_winner_is_the_final_model(self, workdir, caplog):
        """train with a grid writes what train with the winning lambdas
        passed directly writes, byte for byte."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        cfg["grid"] = {"lambda1": [0.0, 0.05], "lambda2": [0.005],
                       "lambda3": [0.005, 0.5]}
        (workdir / "grid.json").write_text(json.dumps(cfg))
        with caplog.at_level("INFO"):
            assert main(["train", "--config", "grid.json", "--max-iter", "40"]) == 0
        chosen = [r.args for r in caplog.records
                  if r.getMessage().startswith("grid search selected")]
        assert len(chosen) == 1
        by_grid = [(workdir / "out" / name).read_bytes()
                   for name in ("model.json", "trajectory.csv")]

        del cfg["grid"]
        (workdir / "plain.json").write_text(json.dumps(cfg))
        flags = [x for lam, value in zip(("--lambda1", "--lambda2", "--lambda3"),
                                         chosen[0]) for x in (lam, repr(value))]
        assert main(["train", "--config", "plain.json", "--max-iter", "40",
                     *flags]) == 0
        direct = [(workdir / "out" / name).read_bytes()
                  for name in ("model.json", "trajectory.csv")]
        assert by_grid == direct

    def test_missing_config(self, workdir):
        assert main(["train", "--config", "absent.json"]) == 2

    def test_config_not_utf8_is_a_usage_error(self, workdir, caplog):
        (workdir / "cfg.json").write_bytes(b'{"dataset": "\xff"}')
        assert main(["train", "--config", "cfg.json"]) == 2
        assert "cfg.json: not UTF-8 text" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_invalid_config_field(self, workdir):
        cfg = {"dataset": {"name": "x", "qos_type": "response_time",
                           "users": 2, "services": 2, "slices": 2, "path": "d.txt"},
               "split": {"train": 0.5, "validation": 0.25, "test": 0.25},
               "structure": {"blocks": [[1, 1, 1]]},
               "train": {"bogus_knob": 1}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        _write_log(workdir / "d.txt", [(0, 0, 0, 1.0), (1, 1, 1, 2.0)])
        assert main(["train", "--config", "cfg.json"]) == 2

    def test_removed_train_field_rejected(self, workdir, caplog):
        """Train config keys are TrainConfig's fields and nothing else."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        cfg["train"]["freeze_cores"] = True
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json"]) == 2
        assert "unknown train config fields: ['freeze_cores']" in caplog.text

    @pytest.mark.parametrize("section, value", [
        ("train", 5),
        ("train", ["max_iter"]),
        ("dataset", [1]),
        ("split", [1, 2]),
        ("train", {"max_iter": "5"}),
    ])
    def test_mistyped_config_is_a_usage_error(self, workdir, caplog, section, value):
        """A section that is no JSON object, or a train value of the wrong
        type, exits 2 through ConfigError rather than as a crash."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        cfg[section] = value
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json"]) == 2
        assert "unexpected failure" not in caplog.text

    @pytest.mark.parametrize("where, value, message", [
        (("split", "train"), "0.7", "every split ratio must be a number"),
        (("split", "train"), None, "split config is missing 'train'"),
        (("split", "seed"), 1.5, "the split seed must be an integer"),
        (("structure", "blocks"), 5, "structure.blocks must be a JSON list"),
        (("structure", "blocks"), [[2, "2", 2]],
         "every entry of every structure.blocks entry must be an integer"),
        (("structure",), {"tucker": [2, 2]}, "invalid block ranks (2, 2)"),
        (("structure",), {"cp": "3"}, "structure.cp must be an integer"),
        (("grid",), {"lambda1": 5, "lambda2": [0.01], "lambda3": [0.01]},
         "grid.lambda1 must be a JSON list"),
        (("grid",), {"lambda1": ["x"], "lambda2": [0.01], "lambda3": [0.01]},
         "every entry of grid.lambda1 must be a number"),
        (("dataset", "users"), "eight", "every dim must be an integer"),
        (("dataset", "one_based"), "false", "dataset.one_based must be true or false"),
        (("dataset", "path"), 5, "dataset.path must be a string"),
        (("output", "checkpoint"), 5, "output.checkpoint must be a string"),
        (("train", "lambda1"), float("inf"), "coefficients must be finite and >= 0"),
        (("train", "lambda1"), float("nan"), "coefficients must be finite and >= 0"),
        (("train", "epsilon_guard"), float("inf"),
         "unknown train config fields: ['epsilon_guard']"),
        (("grid",), {"lambda1": [float("nan")], "lambda2": [0.01], "lambda3": [0.01]},
         "coefficients must be finite and >= 0"),
        (("dataset", "name"), [1], "dataset.name must be a string"),
        (("dataset", "qos_type"), "latency", "qos_type must be one of"),
        (("dataset", "users"), 0, "dims must be three positive integers"),
        (("structure", "cp"), 3,
         "structure needs exactly one of 'blocks', 'cp' or 'tucker'"),
        (("output", "checkpoint"), "", "output.checkpoint must not be empty"),
        (("output", "trajectory_csv"), "", "output.trajectory_csv must not be empty"),
    ])
    def test_mistyped_config_value_is_a_usage_error(self, workdir, caplog, where,
                                                     value, message):
        """A value of the wrong type or out of range (JSON's NaN and
        Infinity included), or a missing key, inside a section exits 2
        through ConfigError (``None`` deletes the key)."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        *parents, key = where
        section = cfg
        for name in parents:
            section = section[name]
        if value is None:
            del section[key]
        else:
            section[key] = value
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json", "--max-iter", "1"]) == 2
        assert message in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_split_files_match_ingest(self, workdir):
        """``output.splits_dir`` holds the partitions ``ingest`` writes for the
        same log, ratios, seed and name, byte for byte, headers included."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json", "--max-iter", "1"]) == 0
        split_doc = cfg["split"]
        assert main(["ingest", "--data", str(FIXTURES / "qos8.txt"),
                     "--users", "8", "--services", "8", "--slices", "8",
                     "--split", f"{split_doc['train']},{split_doc['validation']},"
                                f"{split_doc['test']}",
                     "--seed", str(split_doc["seed"]), "--name", cfg["dataset"]["name"],
                     "--out", "ingested"]) == 0
        for name in ("train.txt", "validation.txt", "test.txt"):
            trained = (workdir / "out" / "splits" / name).read_bytes()
            assert trained.startswith(b"# fixture8 ")
            assert trained == (workdir / "ingested" / name).read_bytes()

    def test_empty_output_path_is_rejected_before_the_log_is_read(self, workdir,
                                                                 caplog):
        """An empty checkpoint path exits 2 before the log is read (here the
        log is absent), while an empty ``splits_dir`` means no partitions."""
        cfg = json.loads((FIXTURES / "train8.json").read_text())
        cfg["output"]["checkpoint"] = ""
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json", "--max-iter", "1"]) == 2
        assert "output.checkpoint must not be empty" in caplog.text

        cfg["dataset"]["path"] = str(FIXTURES / "qos8.txt")
        cfg["output"].update(checkpoint="out/model.json", splits_dir="")
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", "cfg.json", "--max-iter", "1"]) == 0
        assert (workdir / "out" / "model.json").exists()
        assert not (workdir / "out" / "splits").exists()


class TestEvaluatePredict:
    def test_evaluate_perfect_fit(self, workdir):
        """A checkpoint that reproduces the test values exactly."""
        model = single_block_model(0, 0, 0, 0, 1.0, 2.0, 3.0)  # predicts 6.0
        save_model(model, workdir / "ck.json")
        _write_log(workdir / "test.txt", [(0, 0, 0, 6.0)])
        proc = _run_module(["evaluate", "--checkpoint", "ck.json",
                            "--data", "test.txt"], workdir)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "rmse=0.000000 mae=0.000000"

    def test_predict_hand_checkpoint(self, workdir):
        """The 2*3*0.5*1 + 0.6 = 3.6 model prints 3.60000."""
        model = single_block_model(2.0, 3.0, 0.5, 1.0, 0.1, 0.2, 0.3)
        save_model(model, workdir / "ck.json")
        proc = _run_module(["predict", "--checkpoint", "ck.json",
                            "-i", "0", "-j", "0", "-k", "0"], workdir)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3.60000"

    def test_checkpoint_tensor_mismatch(self, workdir):
        model = init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), 0)
        save_model(model, workdir / "ck.json")
        _write_log(workdir / "test.txt", [(5, 5, 5, 1.0)])
        assert main(["evaluate", "--checkpoint", "ck.json",
                     "--data", "test.txt"]) == 2

    def test_predict_out_of_bounds(self, workdir):
        model = init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), 0)
        save_model(model, workdir / "ck.json")
        assert main(["predict", "--checkpoint", "ck.json",
                     "-i", "9", "-j", "0", "-k", "0"]) == 2

    @pytest.mark.parametrize("flag,value,mode", [
        ("-i", "-1", "user"), ("-k", "-1", "time"),
        ("-j", str(2 ** 63), "service"), ("-i", str(10 ** 20), "user")])
    def test_predict_index_out_of_range_names_its_mode(self, workdir, caplog,
                                                       flag, value, mode):
        """A negative index must not wrap to the last row, and one past
        int64 must not overflow: both are usage errors naming the mode."""
        model = init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), 0)
        save_model(model, workdir / "ck.json")
        cell = {"-i": "0", "-j": "0", "-k": "0", flag: value}
        assert main(["predict", "--checkpoint", "ck.json",
                     *(x for item in cell.items() for x in item)]) == 2
        assert f"{mode} index {value} out of range [0, 2)" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_predict_prints_the_scalar_oracle_for_every_cell(self, workdir, capsys):
        """Every cell of a random-init model prints the quadruple-loop
        oracle's value.  The blocks are scaled up so that their terms move
        the printed digits instead of hiding behind the biases."""
        model = init_random((3, 4, 2), BlockStructure(((2, 1, 2), (1, 2, 1))), 5)
        for block in (model.cores, *model.factors):
            for arr in block:
                arr *= 10.0
        save_model(model, workdir / "ck.json")
        for i, j, k in np.ndindex(model.dims):
            assert main(["predict", "--checkpoint", "ck.json",
                         "-i", str(i), "-j", str(j), "-k", str(k)]) == 0
            assert capsys.readouterr().out == (
                format(predict_entry(model, i, j, k), "#.6g") + "\n")

    def test_corrupt_checkpoint(self, workdir):
        (workdir / "ck.json").write_text("{not json")
        assert main(["predict", "--checkpoint", "ck.json",
                     "-i", "0", "-j", "0", "-k", "0"]) == 2


class TestBenchmark:
    def _config(self, workdir, repeats=2):
        _toy_log(workdir / "toy.txt", n=120, dims=(8, 8, 8), seed=1)
        cfg = {
            "dataset": {"name": "toy", "qos_type": "response_time",
                        "users": 8, "services": 8, "slices": 8,
                        "path": "toy.txt"},
            "splits": [{"label": "toy.1", "train": 0.5, "validation": 0.2,
                        "test": 0.3}],
            "models": [
                {"label": "M1-emulated", "cp": 2},
                {"label": "M2-emulated", "tucker": [2, 2, 2]},
                {"label": "M3-bnbt", "blocks": [[2, 2, 2], [2, 2, 2]]},
            ],
            "repeats": repeats,
            "seed": 5,
            "train": {"max_iter": 10, "tol": 1e-15},
            "output": {"detail_csv": "bench/detail.csv",
                       "aggregate_csv": "bench/aggregate.csv"},
        }
        (workdir / "bench.json").write_text(json.dumps(cfg))

    def test_row_counts(self, workdir):
        """3 configs x 2 seeds -> 6 detail rows + 3 aggregate rows."""
        self._config(workdir)
        assert main(["benchmark", "--config", "bench.json", "--quiet"]) == 0
        with (workdir / "bench" / "detail.csv").open() as fh:
            detail = list(csv.reader(fh))
        with (workdir / "bench" / "aggregate.csv").open() as fh:
            aggregate = list(csv.reader(fh))
        assert len(detail) == 1 + 6
        assert len(aggregate) == 1 + 3
        assert detail[0] == ["dataset", "model", "seed", "lambda1", "lambda2",
                             "lambda3", "epochs", "rmse", "mae", "wall_time_s"]
        assert aggregate[0] == ["dataset", "model", "rmse_mean", "rmse_std",
                                "mae_mean", "mae_std"]

    def test_deterministic_metrics(self, workdir):
        """Identical runs agree on everything except recorded wall time."""
        self._config(workdir)
        assert main(["benchmark", "--config", "bench.json", "--quiet"]) == 0
        first = (workdir / "bench" / "detail.csv").read_text()
        first_agg = (workdir / "bench" / "aggregate.csv").read_text()
        assert main(["benchmark", "--config", "bench.json", "--quiet"]) == 0
        second = (workdir / "bench" / "detail.csv").read_text()

        def strip_wall(text):
            return [row[:-1] for row in csv.reader(text.splitlines())]

        assert strip_wall(first) == strip_wall(second)
        # Aggregates carry no wall time at all, so they are byte-identical.
        assert (workdir / "bench" / "aggregate.csv").read_text() == first_agg

    def test_missing_splits(self, workdir):
        self._config(workdir)
        doc = json.loads((workdir / "bench.json").read_text())
        doc["splits"] = []
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json"]) == 2

    @pytest.mark.parametrize("key", ["splits", "models"])
    def test_entry_that_is_no_object(self, workdir, caplog, key):
        self._config(workdir)
        doc = json.loads((workdir / "bench.json").read_text())
        doc[key].append(5)
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json"]) == 2
        assert f"every {key} entry must be a JSON object" in caplog.text

    @pytest.mark.parametrize("key, value, message", [
        ("splits", 5, "splits must be a JSON list"),
        ("splits", [{"label": "s", "train": "0.5", "validation": 0.2, "test": 0.3}],
         "every split ratio must be a number"),
        ("models", {"label": "m"}, "models must be a JSON list"),
        ("repeats", "x", "repeats must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("output", {"detail_csv": ""}, "output.detail_csv must not be empty"),
        ("output", {"aggregate_csv": ""}, "output.aggregate_csv must not be empty"),
    ])
    def test_mistyped_value_is_a_usage_error(self, workdir, caplog, key, value, message):
        self._config(workdir)
        doc = json.loads((workdir / "bench.json").read_text())
        doc[key] = value
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json"]) == 2
        assert message in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_model_with_two_structure_kinds(self, workdir, caplog):
        """A models entry naming two structure kinds exits 2, and the config
        is checked before the log is read: here the log is absent."""
        self._config(workdir)
        (workdir / "toy.txt").unlink()
        doc = json.loads((workdir / "bench.json").read_text())
        doc["models"][0]["tucker"] = [2, 2, 2]
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json"]) == 2
        assert ("structure needs exactly one of 'blocks', 'cp' or 'tucker', "
                "got ['cp', 'tucker']") in caplog.text
        assert not (workdir / "bench").exists()

    @pytest.mark.parametrize("key, labels, message", [
        pytest.param("splits", ["a", "a"], "duplicate split label 'a'",
                     id="repeated-split"),
        pytest.param("models", ["m", "m"], "duplicate model label 'm'",
                     id="repeated-model"),
        pytest.param("splits", [["a"], "b"], "every split label must be a string",
                     id="list-split"),
        pytest.param("models", ["m", ["m"]], "every model label must be a string",
                     id="list-model"),
    ])
    def test_labels_must_be_unique_strings(self, workdir, caplog, key, labels, message):
        """Cells are keyed by label: a repeated one would drop a split or
        merge two models' rows, and a list cannot key anything."""
        self._config(workdir)
        doc = json.loads((workdir / "bench.json").read_text())
        doc["splits"].append({"label": "toy.2", "train": 0.6, "validation": 0.1,
                              "test": 0.3})
        for entry, label in zip(doc[key], labels):
            entry["label"] = label
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json"]) == 2
        assert message in caplog.text
        assert "unexpected failure" not in caplog.text
        assert not (workdir / "bench").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_typed_error_from_a_cell(self, workdir, caplog, threads):
        """A cell's typed error exits 2 whether cells run in-process or in workers."""
        _toy_log(workdir / "toy.txt", n=100, dims=(8, 8, 8), seed=1)
        doc = {
            "dataset": {"name": "toy", "qos_type": "response_time",
                        "users": 8, "services": 8, "slices": 8,
                        "path": "toy.txt"},
            # 0.0001 of 100 entries leaves every test partition empty.
            "splits": [{"label": "empty-test", "train": 0.5,
                        "validation": 0.4, "test": 0.0001}],
            "repeats": 1,
            "train": {"max_iter": 3, "tol": 1e-15},
            "output": {"detail_csv": "bench/detail.csv",
                       "aggregate_csv": "bench/aggregate.csv"},
        }
        (workdir / "bench.json").write_text(json.dumps(doc))
        assert main(["benchmark", "--config", "bench.json",
                     "--threads", threads]) == 2
        assert "metrics need at least one test entry" in caplog.text
        assert "unexpected failure" not in caplog.text
        assert not (workdir / "bench").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--config", "train.json", "--threads", "2"],
    ["evaluate", "--checkpoint", "ck.json", "--data", "t.txt", "--seed", "1"],
    ["predict", "--checkpoint", "ck.json", "-i", "0", "-j", "0", "-k", "0",
     "--seed", "1"],
])
def test_flag_the_command_does_not_read_is_rejected(workdir, capsys, argv):
    """--threads belongs to benchmark; --seed to ingest, train and benchmark."""
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
