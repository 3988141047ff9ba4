import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from mpclust.cli import _HP, _build_parser, _digest, _resolve, _spec_from_args, main
from mpclust.consensus import consensus_of
from mpclust.dataio import DataMatrix, load_matrix, log2_plus_one, write_matrix
from mpclust.dist import hoeffding_bound
from mpclust.metrics import ari
from mpclust.pipeline import HyperParams, run
from mpclust.synthgen import SynthSpec, generate


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
            if field.name in off_cli:
                assert field.name not in config
            else:
                assert config[field.name] == getattr(hp, field.name), field.name

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
        assert main(["cluster", str(blob_csv), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: N=50 observations need about ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_k_above_n_reported(self, blob_csv, tmp_path, capsys):
        assert main(["cluster", str(blob_csv), "--k", "51", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k 51 exceeds the N=50 observations")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_tau_reported(self, blob_csv, tmp_path, capsys):
        assert main(["cluster", str(blob_csv), "--tau", "nan", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: tau must be a finite number >= 0, got nan\n"
        assert not (tmp_path / "out").exists()

    def test_infeasible_patch_names_n_frac(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cluster", str(blob_csv), "--n-frac", "0.01", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_frac 0.01 gives minipatches of 1 observation(s) "
                              "for N=50, infeasible: need at least 3")
        assert not out.exists()
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, stop_reason", [
        ((), "early_stop"),
        (("--n-frac", "0.5", "--t-max", "10"), "t_max"),  # confusion still moving
        (("--n-frac", "1", "--t-max", "1"), "t_max"),  # no change yet: null
    ])
    def test_stop_gap_from_the_trace(self, blob_csv, tmp_path, flags, stop_reason):
        assert main(["cluster", str(blob_csv), "--seed", "2", *flags, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        pct = [float(row.split(",")[2]) for row in rows][-6:]
        gaps = [abs(b - a) for a, b in zip(pct, pct[1:])]  # the stop rule: 5 changes, tolerance 1e-5
        assert manifest["stop_gap"] == (max(gaps) / 1e-5 if gaps else None)
        assert manifest["stop_reason"] == stop_reason
        if stop_reason == "early_stop":
            assert manifest["stop_gap"] < 1
        elif gaps:
            assert manifest["stop_gap"] > 1

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

    @pytest.mark.parametrize("mode", ["impacc", "mpacc"])
    def test_weight_trace_files(self, blob_csv, tmp_path, mode):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["cluster", str(blob_csv), "--mode", mode, "--k", "2", "--seed", "4",
                         "--weight-trace", "--out", str(out)]) == 0
            outs.append(out)
        out = outs[0]
        iterations = json.loads((out / "manifest.json").read_text())["iterations_run"]
        rows = (out / "obs_weight_trace.csv").read_text().splitlines()
        assert rows[0] == "iteration,index,value" and len(rows) - 1 == 50 * iterations
        names = ["obs_weight_trace.csv"]
        if mode == "impacc":
            names.append("feature_score_trace.csv")
            scores = (out / "feature_score_trace.csv").read_text().splitlines()[1:]
            assert len(scores) == 12 * iterations
            last = [row.split(",")[2] for row in scores if row.startswith(f"{iterations},")]
            final = [row.split(",")[1] for row in (out / "feature_scores.csv").read_text().splitlines()[1:]]
            assert last == final
        else:
            assert not (out / "feature_score_trace.csv").exists()
        for name in names:  # a rerun writes the same bytes
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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
        result = run(load_matrix(blob_csv), HyperParams(mode="mpacc", k=2, seed=6, n_frac=0.3))
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

    def test_quote_delimiter_is_an_error(self, blob_csv, tmp_path, capsys):
        argv = ["cluster", str(blob_csv), "--delimiter", '"', "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: delimiter '\"' is the quote character or a line break\n"

    def test_log2_gives_the_library_transform_bits(self, blob_csv, tmp_path):
        source = tmp_path / "nonnegative.csv"  # --log2 rejects negative values
        m = load_matrix(blob_csv)
        v = m.values
        write_matrix(DataMatrix((v - v.min()) / (v.max() - v.min()), m.row_ids, m.col_ids), source)
        done = tmp_path / "transformed.csv"
        write_matrix(log2_plus_one(load_matrix(source)), done)
        outputs = []
        for name, argv in (("flags", [str(source), "--log2"]), ("done", [str(done)])):
            out = tmp_path / name
            assert main(["cluster", *argv, "--k", "2", "--seed", "3", "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("labels.csv", "consensus.csv")])
        assert outputs[0] == outputs[1]

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
              "--seed", "4", "--n-frac", "0.4", "--weight-trace", "--out", str(out1)])
        config = json.loads((out1 / "manifest.json").read_text())["config"]
        args = ["cluster", str(blob_csv), "--out", str(tmp_path / "redo")]
        for key in ("mode", "m_frac", "n_frac", "h", "eta", "alpha_f", "tau",
                    "alpha_i", "theta", "epochs_e", "t_max", "k", "final_algo",
                    "seed", "metric"):
            if config[key] is not None:
                args += [f"--{key.replace('_', '-')}", str(config[key])]
        if config["weight_trace"]:
            args.append("--weight-trace")
        assert main(args) == 0
        for artifact in ("labels.csv", "consensus.csv", "feature_scores.csv",
                         "obs_weight_trace.csv", "feature_score_trace.csv"):
            assert (tmp_path / "redo" / artifact).read_bytes() == (out1 / artifact).read_bytes()

    def test_t_max_below_one_pass_rejected(self, blob_csv, tmp_path, no_mpclust_env, capsys):
        # 50 rows in minipatches of 13 take 4 iterations to sample each row once
        out = tmp_path / "out"
        assert main(["cluster", str(blob_csv), "--t-max", "3", "--k", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_max 3 ") and "Traceback" not in err
        assert not out.exists()

    def test_missed_observation_leaves_no_out(self, tmp_path, no_mpclust_env, capsys):
        # t_max 4 passes the one-pass bound (40 rows in minipatches of 10), but this
        # seeded mpcc run still never draws 13 rows: the run fails after its loop
        sim = tmp_path / "sim"
        assert main(["simulate", "--snr", "6", "--n-obs", "40", "--n-features", "50",
                     "--seed", "0", "--out", str(sim)]) == 0
        out = tmp_path / "o7"
        assert main(["cluster", str(sim / "matrix.csv"), "--t-max", "4", "--k", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "never sampled after 4 iterations" in err
        assert not out.exists()

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
    args = _build_parser().parse_args(argv)
    _resolve(args)
    return args


@pytest.fixture
def no_mpclust_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("MPCLUST_"):
            monkeypatch.delenv(key)


def test_the_hyperparameters_are_the_fields_of_hyperparams():
    assert set(_HP) == {f.name for f in dataclasses.fields(HyperParams)} - {"early_stop"}


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
    monkeypatch.setenv("MPCLUST_" + name.upper(), "abc")  # malformed, but the flag wins unread
    assert getattr(_parsed([*base, "--" + name.replace("_", "-"), raw]), name) == hp.type(raw)
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


@pytest.mark.parametrize("argv", [[], ["cluster"], ["simulate"], ["benchmark"], ["tune"], ["eval"],
                                  ["hoeffding-check"]], ids=lambda argv: argv[0] if argv else "top")
def test_help_ignores_the_environment(argv, monkeypatch, no_mpclust_env, capsys):
    def screen():
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out, _build_parser().format_help()

    clean = screen()
    for name in _HP:  # every variable malformed
        monkeypatch.setenv("MPCLUST_" + name.upper(), "abc")
    assert screen() == clean


@pytest.mark.parametrize("env, argv, code", [
    ("MPCLUST_K", ["eval", "ari", "{labels}", "{labels}"], 0),
    ("MPCLUST_K", ["simulate", "--snr", "6", "--n-obs", "60", "--n-features", "40",
                   "--n-signal", "5", "--out", "{out}"], 0),
    ("MPCLUST_K", ["--version"], 0),
    ("MPCLUST_SEED", ["simulate", "--snr", "6", "--out", "{out}"], 2),
    ("MPCLUST_SEED", ["hoeffding-check", "--out", "{out}"], 2),
    ("MPCLUST_SEED", ["simulate", "--snr", "6", "--n-obs", "60", "--n-features", "40",
                      "--n-signal", "5", "--seed", "1", "--out", "{out}"], 0),
], ids=["k-eval", "k-simulate", "k-version", "seed-simulate", "seed-hoeffding",
        "seed-simulate-flag"])
def test_a_variable_is_read_only_for_a_declared_setting_no_flag_gave(
    env, argv, code, tmp_path, monkeypatch, no_mpclust_env, capsys
):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nr1,1\nr2,1\nr3,2\n")
    monkeypatch.setenv(env, "abc")
    argv = [arg.format(labels=labels, out=tmp_path / "out") for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # --version
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    if code == 2:  # before any output is made
        assert err == f"error: {env}: seed must be int, got 'abc'\n"
        assert not (tmp_path / "out").exists()


def test_usage_error_comes_before_a_variable_error(monkeypatch, no_mpclust_env, capsys):
    monkeypatch.setenv("MPCLUST_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "x.csv", "--mode", "bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --mode: invalid choice: 'bogus'" in err
    assert "MPCLUST_SEED" not in err


@pytest.mark.parametrize("config_text", [None, "n_frac = abc\n", "seed = 3\n"],
                         ids=["missing", "malformed", "valid"])
@pytest.mark.parametrize("argv", [["simulate", "--snr", "6"], ["benchmark", "--snr", "6"],
                                  ["hoeffding-check"]], ids=lambda argv: argv[0])
def test_config_is_a_usage_error_where_the_subcommand_takes_none(
    argv, config_text, tmp_path, no_mpclust_env, capsys
):
    config = tmp_path / "run.cfg"
    if config_text is not None:
        config.write_text(config_text)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

    def test_every_mode_is_a_method(self, tmp_path, no_mpclust_env):
        out = tmp_path / "b.csv"
        assert main(["benchmark", "--snr", "6", "--reps", "1", "--methods", "mpacc",
                     "--n-obs", "60", "--n-features", "50", "--n-signal", "10",
                     "--seed", "1", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "method,snr,seed,ari,f1,seconds"
        assert row.startswith("mpacc,6,1,") and row.split(",")[4] == ""  # mpacc scores no features

    def test_empty_snr_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--snr", "", "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2 and "argument --snr: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["benchmark", "--snr", "abc"], "--snr"),
    (["benchmark", "--snr", ","], "--snr"),
    (["benchmark", "--snr", "6", "--reps", "0"], "--reps"),
    (["benchmark", "--snr", "6", "--reps", "x"], "--reps"),
    (["benchmark", "--snr", "6", "--methods", "foo"], "--methods"),
    (["benchmark", "--snr", "6", "--methods", ","], "--methods"),
    (["tune", "x.csv", "--m-grid", "0.1,a", "--n-grid", "0.25"], "--m-grid"),
    (["tune", "x.csv", "--m-grid", "0.1", "--n-grid", ""], "--n-grid"),
    (["hoeffding-check", "--m-feat", "x"], "--m-feat"),
    (["hoeffding-check", "--eps", "0.1,y"], "--eps"),
    (["hoeffding-check", "--n-obs", "-3"], "--n-obs"),
    (["hoeffding-check", "--n-features", "-1"], "--n-features"),
    (["simulate", "--snr", "6", "--cluster-sizes", "1,a"], "--cluster-sizes"),
    (["simulate", "--snr", "6", "--cluster-sizes", " "], "--cluster-sizes"),
], ids=["snr-abc", "snr-comma", "reps-0", "reps-x", "methods-foo", "methods-comma", "m-grid",
        "n-grid-empty", "m-feat", "eps", "n-obs-negative", "n-features-negative", "cluster-sizes",
        "cluster-sizes-blank"])
def test_malformed_list_flag_is_a_usage_error(argv, flag, no_mpclust_env, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in err and "Traceback" not in err


# the 4% cluster of 12 rows rounds to 0 rows; of 13, to 1
_N_OBS_8 = "n_obs must be >= 13 for the default 4/16/24/56% cluster split, got 8"


@pytest.mark.parametrize("argv, setting", [
    (["hoeffding-check", "--trials", "50"], "trials"),
    (["hoeffding-check", "--m-feat", "0"], "m_feat"),
    (["simulate", "--snr", "6", "--cluster-sizes", "1,2,3"], "cluster_sizes"),
    (["benchmark", "--snr", "-1"], "snr"),
    (["simulate", "--snr", "nan"], "snr must be a finite number >= 0, got nan"),
    (["simulate", "--snr", "inf"], "snr must be a finite number >= 0, got inf"),
    (["benchmark", "--snr", "nan"], "snr must be a finite number >= 0, got nan"),
    (["benchmark", "--snr", "6,nan"], "snr must be a finite number >= 0, got nan"),
    (["hoeffding-check", "--eps", "0.1,nan"], "eps must be positive, got nan"),
    (["simulate", "--snr", "6", "--n-obs", "-3"], "n_obs must be >= 2, got -3"),
    (["benchmark", "--snr", "6", "--n-obs", "1"], "n_obs must be >= 2, got 1"),
    (["simulate", "--snr", "6", "--n-features", "0"], "n_features must be a positive multiple of 5, got 0"),
    (["hoeffding-check", "--n-obs", "1"], "n_obs must be >= 2, got 1"),
    (["simulate", "--snr", "6", "--n-obs", "8"], _N_OBS_8),
    (["benchmark", "--snr", "6", "--n-obs", "8", "--reps", "1"], _N_OBS_8),
], ids=["trials-50", "m-feat-0", "cluster-sizes-three", "snr-negative", "snr-nan", "snr-inf",
        "benchmark-snr-nan", "benchmark-snr-6-nan", "eps-nan", "n-obs-negative", "benchmark-n-obs-1",
        "n-features-0", "hoeffding-n-obs-1", "n-obs-8", "benchmark-n-obs-8"])
def test_parsed_value_the_library_rejects_exits_1(argv, setting, tmp_path, no_mpclust_env,
                                                   monkeypatch, capsys):
    calls = []  # the checks come before any dataset is generated or clustered
    monkeypatch.setattr("mpclust.cli.generate", lambda *a: calls.append("generate"))
    monkeypatch.setattr("mpclust.cli.run", lambda *a, **k: calls.append("run"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err and "Traceback" not in err
    assert calls == [] and not list(tmp_path.iterdir())  # no file, no --out directory


def test_list_flags_parse_to_tuples(no_mpclust_env):
    args = _parsed(["benchmark", "--snr", "6, 8,", "--methods", " hclust ,mpcc"])
    assert args.snr == (6.0, 8.0) and args.methods == ("hclust", "mpcc") and args.reps == 10
    args = _parsed(["hoeffding-check"])
    assert args.m_feat == (10,) and args.eps == (0.05, 0.1, 0.2, 0.3)


@pytest.mark.parametrize("argv", [["cluster", "x.csv"],
                                  ["tune", "x.csv", "--m-grid", "0.1", "--n-grid", "0.25"],
                                  ["hoeffding-check", "--trials", "200"]], ids=lambda argv: argv[0])
def test_rescale_is_a_usage_error(argv, tmp_path, capsys):
    # one min-max map scales every distance by one constant, which moves no Ward merge,
    # quantile cut or F statistic; hoeffding-check's experiment rescales the pair it measures
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--rescale", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rescale" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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

    @pytest.mark.parametrize("flag", ["--k 4", "--m-frac 0.1", "--n-frac 0.2", "--final-algo spectral"])
    def test_a_setting_that_changes_no_cell_is_a_usage_error(self, flag, tmp_path, capsys):
        # the grid sets m_frac and n_frac; only the final clustering, which tune skips, reads k
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["tune", "x.csv", "--m-grid", "0.2", "--n-grid", "0.3", *flag.split(), "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_undeclared_variables_and_config_keys_are_not_read(
        self, blob_csv, tmp_path, monkeypatch, no_mpclust_env
    ):
        argv = ["tune", str(blob_csv), "--m-grid", "0.2", "--n-grid", "0.3,0.5", "--seed", "4"]
        assert main([*argv, "--out", str(tmp_path / "clean.csv")]) == 0
        for name in ("m_frac", "n_frac", "k", "final_algo"):
            monkeypatch.setenv("MPCLUST_" + name.upper(), "abc")
        config = tmp_path / "run.cfg"
        config.write_text("m_frac = 0.5\nn_frac = 0.9\nk = 4\nfinal_algo = spectral\n")
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "set.csv")]) == 0
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


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

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_top_k_is_a_usage_error_for_ari(self, tmp_path, capsys, where):
        p = tmp_path / "l.csv"
        p.write_text("id,label\nr1,1\nr2,1\nr3,2\n")
        files = [str(p), str(p)]
        argv = ["--top-k", "3", *files] if where == "before" else [*files, "--top-k", "3"]
        with pytest.raises(SystemExit) as exc:
            main(["eval", "ari", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --top-k" in capsys.readouterr().err

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

    @pytest.mark.parametrize("scores, mask, bad", [
        ("f1,1.0\nf2,abc\nf3,0.0\n", "f1,1\nf2,0\nf3,0\n", "scores"),
        ("f1,1.0\nf2,0.5\nf3,0.0\n", "f1,1\nf2,abc\nf3,0\n", "mask"),
    ], ids=["scores", "mask"])
    def test_f1_names_the_file_and_id_of_a_non_numeric_value(self, tmp_path, capsys, scores, mask, bad):
        paths = {"scores": tmp_path / "s.csv", "mask": tmp_path / "m.csv"}
        paths["scores"].write_text("feature_id,score\n" + scores)
        paths["mask"].write_text("feature_id,is_signal\n" + mask)
        assert main(["eval", "f1", str(paths["scores"]), str(paths["mask"])]) == 1
        assert capsys.readouterr().err == f"error: {paths[bad]}: non-numeric value 'abc' for id 'f2'\n"

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

    @pytest.mark.parametrize("metric, digests", [
        ("manhattan", {"random": "20c8b1b3be2c0988fcb5ee19271bacd493c64e6db4299a0f538d5f5986fcfad2",
                       "input": "aba394725f7cf674993ab3b5fdfe0d43fd3dce48a6467daaf663aad0cb215b73"}),
        ("sq_euclidean", {"random": "e4187224f36e18c5c69bf8e374211c88488709dd9c20a8d47bb8bac2e57cfee4",
                          "input": "e368af8078d53b2a91e8f8caec6fb0ae10aa42cbb8713c62f6a2f4374ab024e5"}),
    ])
    def test_table_is_pinned(self, metric, digests, tmp_path, no_mpclust_env):
        # sha256 of the m_feat, eps and empirical columns, taken from the code as it
        # was when this test was written: the empirical values are ratios of counts.
        # The bound passes through libm's exp, so it is checked against
        # hoeffding_bound instead of by digest
        source = tmp_path / "matrix.csv"
        write_matrix(generate(SynthSpec(snr=6, n_obs=30, n_features=40, n_signal=5, seed=3)).matrix,
                     source)
        runs = {"random": (["--n-obs", "20", "--n-features", "50", "--m-feat", "5,10",
                            "--trials", "500", "--seed", "2"], 50),
                "input": (["--input", str(source), "--m-feat", "4,10",
                           "--eps", "0.01,0.02,0.05,0.1", "--trials", "300", "--seed", "7"], 40)}
        got = {}
        for name, (argv, m_total) in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(["hoeffding-check", *argv, "--metric", metric, "--out", str(out)]) == 0
            rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
            for m_feat, eps, _, bound in rows:
                assert float(bound) == hoeffding_bound(int(m_feat), m_total, float(eps))
            got[name] = hashlib.sha256("\n".join(",".join(row[:3]) for row in rows).encode()).hexdigest()
        assert got == digests

    def test_constant_input_names_its_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_matrix(DataMatrix(np.full((40, 10), 3.0), tuple(f"r{i}" for i in range(40)),
                                tuple(f"c{j}" for j in range(10))), "const.csv")
        assert main(["hoeffding-check", "--input", "const.csv", "--trials", "100",
                     "--out", "h.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: const.csv: ")
        assert not (tmp_path / "h.csv").exists()

    def test_metric_help_names_the_per_feature_contribution(self, no_mpclust_env, capsys):
        for argv, shown, hidden in ((["hoeffding-check"], "per-feature contribution", "per-patch"),
                                    (["cluster", "x.csv"], "per-patch dissimilarity", "per-feature")):
            with pytest.raises(SystemExit):
                main([*argv, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert shown in text and hidden not in text

    def test_metric_variable_acts_like_the_flag(self, tmp_path, monkeypatch, no_mpclust_env):
        argv = ["hoeffding-check", "--n-obs", "20", "--n-features", "50", "--trials", "200",
                "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "default.csv")]) == 0
        assert main([*argv, "--metric", "sq_euclidean", "--out", str(tmp_path / "flag.csv")]) == 0
        monkeypatch.setenv("MPCLUST_METRIC", "sq_euclidean")
        assert main([*argv, "--out", str(tmp_path / "variable.csv")]) == 0
        flag, variable = (tmp_path / "flag.csv").read_bytes(), (tmp_path / "variable.csv").read_bytes()
        assert variable == flag != (tmp_path / "default.csv").read_bytes()
