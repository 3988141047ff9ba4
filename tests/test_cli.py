import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from mpclust.cli import _digest, main
from mpclust.dataio import DataMatrix, load_matrix, write_matrix
from mpclust.metrics import ari
from mpclust.pipeline import HyperParams, run


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(0, 1, (25, 12)), rng.normal(9, 1, (25, 12))])
    m = DataMatrix(
        x, tuple(f"r{i}" for i in range(50)), tuple(f"c{j}" for j in range(12))
    )
    path = tmp_path / "blobs.csv"
    write_matrix(m, path)
    return path


class TestCluster:
    def test_artifacts_present(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["cluster", str(blob_csv), "--mode", "impacc", "--k", "2",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        for name in ("labels.csv", "consensus.csv", "feature_scores.csv",
                      "trace.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["mode"] == "impacc"
        assert "input_digest" in manifest and "timings" in manifest

    def test_auto_k_default_path(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["cluster", str(blob_csv), "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "id,label" and len(lines) == 51

    def test_no_flags_records_hyperparams_defaults(self, blob_csv, tmp_path, monkeypatch):
        for key in list(os.environ):
            if key.startswith("MPCLUST_"):
                monkeypatch.delenv(key)
        out = tmp_path / "out"
        assert main(["cluster", str(blob_csv), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        hp = HyperParams()
        off_cli = {"early_stop"}
        for field in dataclasses.fields(hp):
            key = "k" if field.name == "k_final" else field.name
            if field.name in off_cli:
                assert key not in config
            else:
                assert config[key] == getattr(hp, field.name), key
        assert config["mode"] == "mpcc"

    def test_bad_mode_usage_error(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(blob_csv), "--mode", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "env, config_text, expected",
        [
            ({"MPCLUST_SEED": "abc"}, None, "MPCLUST_SEED: seed must be int, got 'abc'"),
            ({}, "seed = 3\nbogus = 1\n", ":2: unknown key 'bogus'"),
            ({}, "", "No such file or directory"),  # "": --config names no file
        ],
        ids=["env-not-int", "config-unknown-key", "config-missing"],
    )
    def test_config_errors_are_usage_errors(
        self, blob_csv, tmp_path, monkeypatch, capsys, env, config_text, expected
    ):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        argv = ["cluster", str(blob_csv), "--out", str(tmp_path)]
        if config_text is not None:
            config = tmp_path / "run.cfg"
            if config_text:
                config.write_text(config_text)
            argv += ["--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert "Traceback" not in err

    def test_out_of_memory_reported(self, blob_csv, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.07 TiB")

        monkeypatch.setattr("mpclust.cli.run", exhausted)
        assert main(["cluster", str(blob_csv), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 1.07 TiB)")

    def test_missing_input_runtime_error(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, blob_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["cluster", str(blob_csv), "--mode", "impacc", "--k", "2",
                 "--seed", "9", "--out", str(out)]
            ) == 0
            outs.append(out)
        for artifact in ("labels.csv", "consensus.csv", "feature_scores.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_binary_consensus_format(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        main(["cluster", str(blob_csv), "--k", "2", "--out", str(out),
              "--consensus-format", "binary"])
        raw = (out / "consensus.bin").read_bytes()
        assert raw[:4] == b"MPCS"

    def test_consensus_csv_quotes_ids(self, tmp_path):
        rng = np.random.default_rng(2)
        ids = tuple(f'r{i},"{i}"' for i in range(20))
        m = DataMatrix(rng.normal(0, 1, (20, 6)), ids, tuple(f"c{j}" for j in range(6)))
        path = tmp_path / "quoted.csv"
        write_matrix(m, path)
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--k", "2", "--seed", "1", "--out", str(out)]) == 0
        back = load_matrix(out / "consensus.csv")
        assert back.row_ids == ids and back.col_ids == ids
        assert np.allclose(back.values, back.values.T) and np.all(np.diag(back.values) == 1.0)
        assert load_matrix(out / "labels.csv").row_ids == ids

    def test_consensus_csv_loads_back_to_s(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["cluster", str(blob_csv), "--mode", "mpacc", "--k", "2", "--seed", "6",
                     "--n-frac", "0.3", "--out", str(out)]) == 0
        result = run(load_matrix(blob_csv), "mpacc", HyperParams(k_final=2, seed=6, n_frac=0.3))
        assert load_matrix(out / "consensus.csv").values.tobytes() == result.s.tobytes()

    def test_row_wider_than_header_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "wide_rows.csv"
        path.write_text("id,a,b\n" + "".join(f"r{i},{i},{i % 3},\n" for i in range(6)))
        assert main(["cluster", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "header has 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character_is_an_error(self, blob_csv, tmp_path, capsys,
                                                               delimiter):
        argv = ["cluster", str(blob_csv), "--delimiter", delimiter, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(delimiter) in err and "Traceback" not in err

    def test_spectral_final_algo(self, blob_csv, tmp_path):
        labels = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["cluster", str(blob_csv), "--final-algo", "spectral", "--k", "2",
                         "--seed", "5", "--out", str(out)]) == 0
            labels.append((out / "labels.csv").read_bytes())
        assert labels[0] == labels[1]
        got = load_matrix(tmp_path / "a" / "labels.csv").values[:, 0]
        assert ari(got, [0] * 25 + [1] * 25) == 1.0

    def test_input_digest_is_file_sha256(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(3).bytes(5 * 2**19 + 7))  # spans three chunks
        assert _digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_reproduces_run(self, blob_csv, tmp_path):
        out1 = tmp_path / "orig"
        main(["cluster", str(blob_csv), "--mode", "impacc", "--k", "2",
              "--seed", "4", "--n-frac", "0.4", "--out", str(out1)])
        config = json.loads((out1 / "manifest.json").read_text())["config"]
        args = ["cluster", str(blob_csv), "--out", str(tmp_path / "redo")]
        for key in ("mode", "m_frac", "n_frac", "h", "eta", "alpha_f", "tau",
                    "alpha_i", "theta", "epochs_e", "t_max", "k", "final_algo",
                    "seed", "metric"):
            if config[key] is not None:
                args += [f"--{key.replace('_', '-')}", str(config[key])]
        assert main(args) == 0
        for artifact in ("labels.csv", "consensus.csv", "feature_scores.csv"):
            assert (tmp_path / "redo" / artifact).read_bytes() == (out1 / artifact).read_bytes()

    def test_config_file_and_env_override(self, blob_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nn_frac=0.4\n")
        out1 = tmp_path / "o1"
        main(["cluster", str(blob_csv), "--k", "2", "--config", str(cfg),
              "--out", str(out1)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["seed"] == 5 and m1["config"]["n_frac"] == 0.4
        monkeypatch.setenv("MPCLUST_SEED", "8")
        out2 = tmp_path / "o2"
        main(["cluster", str(blob_csv), "--k", "2", "--config", str(cfg),
              "--out", str(out2)])
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 8


class TestSimulate:
    def test_sparse_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--regime", "sparse", "--snr", "6", "--seed", "1",
             "--n-obs", "50", "--n-features", "40", "--n-signal", "5",
             "--cluster-sizes", "2,8,12,28", "--out", str(out)]
        )
        assert code == 0
        matrix = (out / "matrix.csv").read_text().splitlines()
        assert len(matrix) == 51
        mask = (out / "mask.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in mask) == 5

    def test_no_sparse_default_features(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--regime", "no_sparse", "--snr", "5", "--seed", "2",
             "--n-obs", "40", "--cluster-sizes", "2,6,10,22", "--out", str(out)]
        )
        assert code == 0
        header = (out / "matrix.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 101  # id + 100 features

    def test_invalid_regime(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--regime", "weird", "--snr", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestBenchmark:
    def test_row_count_and_determinism(self, tmp_path):
        args = ["benchmark", "--snr", "6,8", "--reps", "2",
                "--methods", "mpcc,impacc,hclust",
                "--n-obs", "40", "--n-features", "30", "--n-signal", "5",
                "--seed", "3", "--out", str(tmp_path / "b.csv")]
        assert main(args) == 0
        rows = (tmp_path / "b.csv").read_text().splitlines()
        assert len(rows) == 1 + 12  # header + 2 snr x 2 reps x 3 methods
        args[-1] = str(tmp_path / "b2.csv")
        main(args)
        rows2 = (tmp_path / "b2.csv").read_text().splitlines()

        def strip_seconds(lines):
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_seconds(rows2) == strip_seconds(rows)

    def test_empty_snr_rejected(self, tmp_path, capsys):
        code = main(["benchmark", "--snr", "", "--out", str(tmp_path / "b.csv")])
        assert code == 1


class TestTune:
    def test_separable_grid(self, blob_csv, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["tune", str(blob_csv), "--m-grid", "0.2", "--n-grid", "0.3,0.5",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "m_frac,n_frac,max_confusion,iterations"

    def test_pure_noise_warns_but_exits_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        m = DataMatrix(
            rng.standard_normal((30, 8)),
            tuple(f"r{i}" for i in range(30)),
            tuple(f"c{j}" for j in range(8)),
        )
        path = tmp_path / "noise.csv"
        write_matrix(m, path)
        code = main(
            ["tune", str(path), "--m-grid", "0.5", "--n-grid", "0.4",
             "--t-max", "50", "--seed", "1", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err


class TestEval:
    def test_ari_identical(self, tmp_path, capsys):
        p = tmp_path / "l.csv"
        p.write_text("id,label\nr1,1\nr2,1\nr3,2\n")
        assert main(["eval", "ari", str(p), str(p)]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_f1(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text(
            "feature_id,score\nf1,1.0\nf2,1.0\nf3,0.0\nf4,0.0\nf5,0.0\nf6,0.0\n"
        )
        mask = tmp_path / "m.csv"
        mask.write_text(
            "feature_id,is_signal\nf1,1\nf2,1\nf3,0\nf4,0\nf5,0\nf6,0\n"
        )
        assert main(["eval", "f1", str(scores), str(mask)]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0


class TestHoeffdingCheck:
    def test_random_data_table(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main(
            ["hoeffding-check", "--n-obs", "20", "--n-features", "50",
             "--m-feat", "5,10", "--eps", "0.1,0.3", "--trials", "500",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "m_feat,eps,empirical,bound"
        assert len(rows) == 5
        for row in rows[1:]:
            _, _, empirical, bound = row.split(",")
            assert 0 <= float(empirical) <= 1 and 0 < float(bound) <= 1
