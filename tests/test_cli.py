import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from mpclust.cli import _HP, _build_parser, _defaults, _digest, _spec_from_args, main
from mpclust.consensus import consensus_of
from mpclust.dataio import DataMatrix, load_matrix, write_matrix
from mpclust.metrics import ari
from mpclust.pipeline import HyperParams, run
from mpclust.synthgen import SynthSpec


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

    def test_no_flags_records_hyperparams_defaults(self, blob_csv, tmp_path, no_mpclust_env):
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
            ({"MPCLUST_SEED": "none"}, None, "MPCLUST_SEED: seed must be int, got 'none'"),
            ({"MPCLUST_M_FRAC": ""}, None, "MPCLUST_M_FRAC: m_frac must be float, got ''"),
            ({}, "seed = none\n", ":1: seed must be int, got 'none'"),
            ({"MPCLUST_MODE": "bogus"}, None,
             "MPCLUST_MODE: mode must be one of mpcc, mpacc, impacc, got 'bogus'"),
            ({}, "final_algo = x\n", ":1: final_algo must be one of hierarchical, spectral"),
            ({"MPCLUST_METRIC": "none"}, None, "MPCLUST_METRIC: metric must be one of"),
        ],
        ids=["env-not-int", "config-unknown-key", "config-missing", "env-none", "env-empty",
             "config-none", "env-not-a-choice", "config-not-a-choice", "env-none-choice"],
    )
    def test_config_errors_are_usage_errors(
        self, blob_csv, tmp_path, monkeypatch, capsys, env, config_text, expected
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the matrix was read")

        monkeypatch.setattr("mpclust.cli.load_matrix", unread)  # a usage error comes first
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

    def test_k_none_flag_overrides_variable(self, blob_csv, tmp_path, monkeypatch,
                                            no_mpclust_env):
        monkeypatch.setenv("MPCLUST_K", "3")
        out = tmp_path / "out"
        assert main(["cluster", str(blob_csv), "--k", "none", "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["k"] is None
        auto = tmp_path / "auto"
        monkeypatch.delenv("MPCLUST_K")
        assert main(["cluster", str(blob_csv), "--seed", "3", "--out", str(auto)]) == 0
        assert (out / "labels.csv").read_bytes() == (auto / "labels.csv").read_bytes()

    def test_out_of_memory_reported(self, blob_csv, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.07 TiB")

        monkeypatch.setattr("mpclust.cli.run", exhausted)
        assert main(["cluster", str(blob_csv), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 1.07 TiB)")

    def test_memory_ceiling_reported(self, blob_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mpclust.pipeline._available_bytes", lambda: 1)
        assert main(["cluster", str(blob_csv), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: N=50 observations need about ")
        assert "Traceback" not in err

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
        s = consensus_of(result.consensus)
        assert load_matrix(out / "consensus.csv").values.tobytes() == s.tobytes()

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


def _parsed(argv: list[str]):
    return _build_parser(_defaults(argv)).parse_args(argv)


@pytest.fixture
def no_mpclust_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("MPCLUST_"):
            monkeypatch.delenv(key)


@pytest.mark.parametrize("name", list(_HP))
def test_each_hyperparameter_is_a_flag_a_variable_and_a_config_key(
    name, tmp_path, monkeypatch, no_mpclust_env
):
    hp = _HP[name]
    raw = hp.choices[-1] if hp.choices else {int: "3", float: "0.3"}[hp.type]
    base = ["cluster", "x.csv"]
    assert getattr(_parsed(base), name) != hp.type(raw)  # the value is not the default
    assert getattr(_parsed([*base, "--" + name.replace("_", "-"), raw]), name) == hp.type(raw)
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {raw}\n")
    assert getattr(_parsed([*base, "--config", str(config)]), name) == hp.type(raw)
    monkeypatch.setenv("MPCLUST_" + name.upper(), raw)
    assert getattr(_parsed(base), name) == hp.type(raw)
    if hp.none_ok:
        monkeypatch.setenv("MPCLUST_" + name.upper(), "none")
        assert getattr(_parsed(base), name) is None


@pytest.mark.parametrize("name", [name for name, hp in _HP.items() if hp.none_ok])
def test_none_flag_overrides_variable_and_config(name, tmp_path, monkeypatch, no_mpclust_env):
    flag, base = "--" + name.replace("_", "-"), ["cluster", "x.csv"]
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = 3\n")
    assert getattr(_parsed([*base, "--config", str(config), flag, "none"]), name) is None
    monkeypatch.setenv("MPCLUST_" + name.upper(), "3")
    assert getattr(_parsed(base), name) == 3
    assert getattr(_parsed([*base, flag, "None"]), name) is None


@pytest.mark.parametrize("name", [name for name, hp in _HP.items()
                                  if not hp.none_ok and hp.type is not str])
def test_none_flag_rejected_where_the_key_takes_no_none(name, no_mpclust_env, capsys):
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        _parsed(["cluster", "x.csv", flag, "none"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid {_HP[name].type.__name__} value: 'none'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
def test_synthetic_data_defaults_are_synthspecs(cmd, no_mpclust_env):
    args = _parsed([cmd, "--snr", "6"])
    assert _spec_from_args(args, snr=6.0, seed=args.seed) == SynthSpec(snr=6.0)


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

    def test_blank_lines_skipped(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("id,label\nr1,1\n\nr2,1\nr3,2\n\n")
        assert main(["eval", "ari", str(labels), str(labels)]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0
        scores = tmp_path / "s.csv"
        scores.write_text("feature_id,score\n\nf1,1.0\nf2,0.0\n\nf3,0.0\n")
        mask = tmp_path / "m.csv"
        mask.write_text("feature_id,is_signal\nf1,1\n\nf2,0\nf3,0\n")
        assert main(["eval", "f1", str(scores), str(mask), "--top-k", "1"]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def _ari(self, tmp_path, capsys, a, b):
        (tmp_path / "a.csv").write_text(a)
        (tmp_path / "b.csv").write_text(b)
        code = main(["eval", "ari", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        out = capsys.readouterr()
        return code, out.out.strip(), out.err

    def test_ari_aligns_rows_by_id(self, tmp_path, capsys):
        # row order used to score this -0.49999999999999994
        code, out, _ = self._ari(tmp_path, capsys, "id,label\nr1,1\nr2,1\nr3,2\nr4,2\n",
                                 "id,label\nr3,2\nr1,1\nr4,2\nr2,1\n")
        assert (code, out) == (0, "1")
        code, out, _ = self._ari(tmp_path, capsys, "id,label\nr1,1\nr2,1\nr3,2\nr4,2\n",
                                 "id,label\nr3,2\nr1,1\nr4,1\nr2,2\n")
        assert (code, out) == (0, f"{ari([1, 1, 2, 2], [1, 2, 2, 1]):.17g}")

    @pytest.mark.parametrize("b", [
        "sample,cluster\nr3,7\nr1,5\nr2,5\n",  # any header above numeric labels
        "r3,7\nr1,5\nr2,5\n",  # no header
        "obs,group\nr3,b\nr1,a\nr2,a\n",  # a header above non-numeric labels
    ], ids=["named-header", "no-header", "text-labels"])
    def test_header_rule(self, tmp_path, capsys, b):
        code, out, _ = self._ari(tmp_path, capsys, "id,label\nr1,0\nr2,0\nr3,1\n", b)
        assert (code, out) == (0, "1")

    @pytest.mark.parametrize("a, b, message", [
        ("id,label\nr1,1\nr2,1\nr4,2\nr3,2\n", "id,label\nr1,1\nr2,1\nr5,2\n",
         "id 'r4' is in {a} but not in {b}"),  # the first of r4 and r3
        ("id,label\nr1,1\nr2,1\n", "id,label\nr1,1\nr2,1\nr3,2\n", "id 'r3' is in {b} but not in {a}"),
        ("id,label\nr1,1\nr2,1\nr1,2\n", "id,label\nr1,1\nr2,1\n", "{a}: duplicate id 'r1'"),
        ("label\n1\n1\n", "id,label\nr1,1\nr2,1\n", "{a}: need an id column and a value column"),
    ], ids=["only-in-a", "only-in-b", "duplicate", "no-id-column"])
    def test_ids_must_match(self, tmp_path, capsys, a, b, message):
        code, _, err = self._ari(tmp_path, capsys, a, b)
        paths = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
        assert code == 1 and err == f"error: {message.format(**paths)}\n"

    def test_f1_aligns_feature_ids(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("feature_id,score\nf1,1.0\nf2,1.0\nf3,0.0\nf4,0.0\nf5,0.0\nf6,0.0\n")
        mask = tmp_path / "m.csv"
        mask.write_text("feature_id,is_signal\nf6,0\nf5,0\nf4,0\nf3,0\nf2,1\nf1,1\n")
        assert main(["eval", "f1", str(scores), str(mask)]) == 0
        assert capsys.readouterr().out == "1\n"
        mask.write_text("feature_id,is_signal\nf6,0\nf5,0\nf4,0\nf3,0\nf2,1\n")
        assert main(["eval", "f1", str(scores), str(mask)]) == 1
        assert capsys.readouterr().err == f"error: id 'f1' is in {scores} but not in {mask}\n"

    @pytest.mark.parametrize("what", ["ari", "f1"])
    @pytest.mark.parametrize("text, line", [
        ("id,label\nr1\nr2,2\n", 2),  # a one-cell first data row: no ids read as labels
        ("id,label\nr1,1\n\nr2,2,3\n", 4),
    ])
    def test_row_of_another_width_is_an_error(self, tmp_path, capsys, what, text, line):
        p = tmp_path / "l.csv"
        p.write_text(text)
        assert main(["eval", what, str(p), str(p)]) == 1
        assert f"error: {p}: line {line} has" in capsys.readouterr().err


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
