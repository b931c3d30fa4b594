import contextlib
import io
import os
import subprocess
import sys

import pytest

import arte_tcs
import arte_tcs.cli as cli
from arte_tcs.errors import SimulationDiverged
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction


@pytest.fixture(scope="session")
def wav_tree(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("arte_wavs"))
    assert cli.main(["synth", "--out", root, "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """`arte-tcs train`, once per session: the model path and its stdout."""
    path = str(tmp_path_factory.mktemp("arte_model") / "model.txt")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["train", "--out", path]) == 0
    return path, printed.getvalue()


@pytest.fixture(scope="session")
def model_path(trained):
    return trained[0]


def scen_file(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(body)
    return str(path)


def test_synth_writes_road_tree(wav_tree):
    for road in RoadType:
        assert os.path.exists(os.path.join(wav_tree, road.value, "0_0.wav"))


def test_features_rows_and_label_inference(capsys, wav_tree):
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    assert cli.main(["features", wav, "--frames", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label," + ",".join("f%d" % k for k in range(20))
    assert len(lines) == 4
    assert all(ln.startswith("snow,") for ln in lines[1:])
    assert all(len(ln.split(",")) == 21 for ln in lines[1:])

    assert cli.main(["features", wav, "--frames", "1",
                     "--label", "probe"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("probe,")


def test_train_reports_holdout_accuracy(trained):
    acc = float(trained[1].split("accuracy=")[1])
    assert acc >= 0.85


def test_classify_recovers_friction_point(capsys, wav_tree, model_path):
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    assert cli.main(["classify", "--model", model_path, wav]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path,road,lambda_opt,mu_peak"
    _, road, lam, mu = lines[1].split(",")
    assert road == "snow"
    lam_ref, mu_ref = peak_friction(DEFAULT_CURVES[RoadType.SNOW])
    assert float(lam) == pytest.approx(lam_ref, rel=1e-6)
    assert float(mu) == pytest.approx(mu_ref, rel=1e-6)


def test_gap_family_output(capsys):
    assert cli.main(["gap", "--controller", "mtte"]) == 0
    off = capsys.readouterr().out.splitlines()
    assert off[0] == "value,winding_ok,peak_frequency"
    value, flag, _ = off[1].split(",")
    assert flag == "true"
    assert 0.0 < float(value) < 1.0

    assert cli.main(["gap", "--controller", "mtte", "--arte"]) == 0
    on = capsys.readouterr().out.splitlines()
    assert float(on[1].split(",")[0]) < float(value)


def test_gap_coefficient_lists(capsys):
    assert cli.main(["gap", "--num1", "1", "--den1", "1,1",
                     "--num2", "-1", "--den2", "1,-1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[:2] == ["1", "false"]


def test_gap_argument_validation(capsys):
    assert cli.main(["gap"]) == 2
    assert cli.main(["gap", "--controller", "mfc", "--num1", "1"]) == 2
    assert cli.main(["gap", "--num1", "1", "--den1", "oops",
                     "--num2", "1", "--den2", "1,1"]) == 2
    capsys.readouterr()


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n"
                              "controller = mtte\narte_mode = oracle\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", out1]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("slip_deviation=")
    assert cli.main(["simulate", "--config", cfg, "--out", out2]) == 0
    with open(out1, "rb") as fa, open(out2, "rb") as fb:
        assert fa.read() == fb.read()


def test_compare_rerun_is_byte_identical(tmp_path):
    cfg = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["compare", "--config", cfg, "--controllers", "mtte",
            "--modes", "off", "oracle"]
    assert cli.main(argv + ["--out", out1]) == 0
    assert cli.main(argv + ["--out", out2]) == 0
    with open(out1, "rb") as fa, open(out2, "rb") as fb:
        data = fa.read()
        assert data == fb.read()
    assert data.splitlines()[0] == (b"controller,arte_mode,slip_deviation,"
                                    b"max_torque,torque_area,gap")
    assert len(data.splitlines()) == 3


def test_compare_stdout_matches_out_file(tmp_path, capsys):
    cfg = scen_file(tmp_path, "[scenario]\nduration_s = 0.2\n")
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--config", cfg, "--controllers", "src", "open",
            "--modes", "off", "oracle"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()
    assert len(printed.splitlines()) == 5


def test_exit_codes(tmp_path, capsys, monkeypatch, wav_tree):
    missing = str(tmp_path / "nope.ini")
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", "--config", missing, "--out", out]) == 4

    bad = scen_file(tmp_path, "[scenario]\ndt = 1.0\n")
    assert cli.main(["simulate", "--config", bad, "--out", out]) == 2

    garbage = tmp_path / "model.txt"
    garbage.write_text("not a model\n")
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    assert cli.main(["classify", "--model", str(garbage), wav]) == 4

    def boom(cfg):
        raise SimulationDiverged("runaway", t=0.1, step=10)

    monkeypatch.setattr(cli, "run_scenario", boom)
    ok = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n")
    assert cli.main(["simulate", "--config", ok, "--out", out]) == 3
    capsys.readouterr()


# (line, value): the first number on that line of a trained model file
BAD_MODELS = {
    "norm_mean_nan": (1, "nan"),
    "norm_scale_inf": (2, "inf"),
    "norm_scale_zero": (2, "0"),
    "norm_scale_negative": (2, "-1.5"),
    "weight_nan": (4, "nan"),
    "bias_inf": (8, "-inf"),
}


def bad_model(tmp_path, model_path, line, value):
    with open(model_path) as fh:
        lines = fh.read().splitlines()
    lines[line] = " ".join([value] + lines[line].split()[1:])
    path = tmp_path / "bad_model.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("line,value", BAD_MODELS.values(), ids=BAD_MODELS)
def test_classify_rejects_non_finite_model(tmp_path, capsys, wav_tree,
                                           model_path, line, value):
    model = bad_model(tmp_path, model_path, line, value)
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    capsys.readouterr()
    assert cli.main(["classify", "--model", model, wav]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ")
    assert captured.out == ""


@pytest.mark.parametrize("line,value", BAD_MODELS.values(), ids=BAD_MODELS)
def test_simulate_classifier_rejects_non_finite_model(tmp_path, capsys,
                                                      model_path, line, value):
    model = bad_model(tmp_path, model_path, line, value)
    cfg = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n"
                              "arte_mode = classifier\nmodel = %s\n" % model)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not os.path.exists(out)


BAD_SCENARIOS = {
    "schedule_time_not_a_number": b"[schedule]\nzero = snow\n",
    "no_section_header": b"duration_s = 8\n",
    "duration_not_a_number": b"[scenario]\nduration_s = abc\n",
    "duration_nan": b"[scenario]\nduration_s = nan\n",
    "torque_demand_nan": b"[scenario]\ntorque_demand = nan\n",
    "initial_speed_inf": b"[scenario]\nv0 = inf\n",
    "unknown_road": b"[schedule]\n0.0 = ice\n",
    "vehicle_not_a_number": b"[vehicle]\njw = heavy\n",
    "vehicle_nan": b"[vehicle]\nmu_roll = nan\n",
    "seed_negative": b"[scenario]\nseed = -1\n",
    "not_text": b"[scenario]\n\xff\xfe\n",
    "duration_under_one_step": b"[scenario]\nduration_s = 0.00004\n",
    "duration_unbounded": b"[scenario]\nduration_s = 1e300\n",
}


@pytest.mark.parametrize("body", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS)
def test_simulate_bad_scenario_exits_two(tmp_path, capsys, body):
    cfg = tmp_path / "scenario.ini"
    cfg.write_bytes(body)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["simulate", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


BAD_OPTIONS = {
    "synth_seed_negative": ["synth", "--out", "{out}", "--seed", "-1"],
    "synth_no_clips": ["synth", "--out", "{out}", "--clips", "0"],
    "features_seed_negative": ["features", "--out", "{out}", "--seed", "-1",
                               "{wav}"],
    "train_corpus_seed_negative": ["train", "--out", "{out}",
                                   "--corpus-seed", "-1"],
    "train_split_seed_negative": ["train", "--out", "{out}",
                                  "--split-seed", "-1"],
    "train_seed_negative": ["train", "--out", "{out}", "--seed", "-1"],
    "train_epochs_negative": ["train", "--out", "{out}", "--epochs", "-5"],
    "train_no_epochs": ["train", "--out", "{out}", "--epochs", "0"],
}


@pytest.mark.parametrize("argv", BAD_OPTIONS.values(), ids=BAD_OPTIONS)
def test_bad_option_exits_two(tmp_path, capsys, wav_tree, argv):
    out = tmp_path / "out"
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    argv = [arg.format(out=out, wav=wav) for arg in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --")
    assert not out.exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["warp"])
    assert err.value.code == 2


def test_cli_import_loads_no_scipy_submodule():
    # scipy is imported where the audio path first needs it, so runs
    # without the estimator never pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(arte_tcs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, arte_tcs.cli; print(' '.join(m for m in sys.modules"
             " if m.startswith(('scipy.signal', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == []
