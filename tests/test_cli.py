import contextlib
import inspect
import io
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arte_tcs
import arte_tcs.cli as cli
import arte_tcs.errors as errors
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

    # the zero plant: its limit at infinity is 0, its gap to itself 0
    assert cli.main(["gap", "--num1", "0", "--den1", "1",
                     "--num2", "0", "--den2", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[:2] == ["0", "true"]

    # |P1| near 1e300 must not overflow the chordal distance to 0
    assert cli.main(["gap", "--num1", "1e300", "--den1", "1,1",
                     "--num2", "1", "--den2", "1,1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[:2] == ["0.999999995", "true"]

    # |P1 P2| far beyond the float limit: the winding test and the distance
    # stay finite, and the gap is 1e300 / (1e300 * 2e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gap", "--num1", "1e300", "--den1", "1",
                         "--num2", "2e300", "--den2", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[:2] == ["5e-301", "true"]


def coefficient_lists():
    """1-4 comma-separated entries, each 0 (one in four) or of magnitude
    in [1e-3, 1e3]."""
    entry = st.tuples(st.sampled_from((0.0, 1.0, 1.0, 1.0)),
                      st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 1e3))
    return st.lists(entry.map(lambda e: e[2] * e[1] if e[0] else 0.0),
                    min_size=1, max_size=4).map(
        lambda xs: ",".join(repr(x) for x in xs))


@settings(max_examples=100, deadline=None)
@given(num1=coefficient_lists(), den1=coefficient_lists(),
       num2=coefficient_lists(), den2=coefficient_lists())
def test_gap_exits_zero_or_two_on_any_coefficients(num1, den1, num2, den2):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["gap", "--num1=" + num1, "--den1=" + den1,
                         "--num2=" + num2, "--den2=" + den2])
    assert code in (0, 2)
    if code == 0:
        assert 0.0 <= float(out.getvalue().splitlines()[1].split(",")[0]) <= 1.0
    else:
        assert err.getvalue().startswith("error: ")


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


def test_exit_codes(tmp_path, capsys, wav_tree, model_path):
    missing = str(tmp_path / "nope.ini")
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", "--config", missing, "--out", out]) == 4

    bad = scen_file(tmp_path, "[scenario]\ndt = 1.0\n")
    assert cli.main(["simulate", "--config", bad, "--out", out]) == 2

    garbage = tmp_path / "model.txt"
    garbage.write_text("not a model\n")
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    assert cli.main(["classify", "--model", str(garbage), wav]) == 4
    capsys.readouterr()

    mask = tmp_path / "mask25.txt"
    with open(model_path) as fh:
        lines = fh.read().splitlines()
    lines[3] = " ".join(lines[3].split()[:-1] + ["25"])  # mask index >= 20
    mask.write_text("\n".join(lines) + "\n")
    assert cli.main(["classify", "--model", str(mask), wav]) == 4
    assert capsys.readouterr().err == (
        "i/o error: mask indices must be below 20\n")


# the documented exit code of each exception class, and its stderr prefix
EXIT_CODES = {"ConfigError": 2, "SimulationDiverged": 3,
              "AudioFormatError": 4, "ModelFormatError": 4}
PREFIXES = {2: "error: ", 3: "diverged: ", 4: "i/o error: "}


def test_each_error_class_has_a_documented_exit_code():
    defined = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert sorted(defined) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name,code", EXIT_CODES.items(), ids=EXIT_CODES)
def test_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, name,
                                         code):
    def boom(cfg):
        raise getattr(errors, name)("probe")

    monkeypatch.setattr(cli, "run_scenario", boom)
    ok = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n")
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", "--config", ok, "--out", out]) == code
    captured = capsys.readouterr()
    assert captured.err == PREFIXES[code] + "probe\n"
    assert captured.out == ""


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
    "wheel_radius_underflow": b"[vehicle]\nr = 1e-300\n",
}


@pytest.mark.parametrize("body", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS)
def test_simulate_bad_scenario_exits_two(tmp_path, capsys, body):
    cfg = tmp_path / "scenario.ini"
    cfg.write_bytes(body)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["simulate", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("body", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS)
def test_compare_bad_scenario_exits_two(tmp_path, capsys, body):
    cfg = tmp_path / "scenario.ini"
    cfg.write_bytes(body)
    out = str(tmp_path / "cmp.csv")
    assert cli.main(["compare", "--config", str(cfg), "--out", out]) == 2
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
    "gap_pole_on_axis": ["gap", "--out", "{out}", "--num1", "1",
                         "--den1", "1,0", "--num2", "1", "--den2", "1,1"],
}


@pytest.mark.parametrize("argv", BAD_OPTIONS.values(), ids=BAD_OPTIONS)
def test_bad_option_exits_two(tmp_path, capsys, wav_tree, argv):
    out = tmp_path / "out"
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    argv = [arg.format(out=out, wav=wav) for arg in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # an option check names its option; a rejected plant names its fault
    assert err.startswith("error: --") or argv[0] == "gap"
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
