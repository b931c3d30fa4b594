import contextlib
import inspect
import io
import os
import shutil
import subprocess
import sys
import warnings
import wave

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arte_tcs
import arte_tcs._kernel as _kernel
import arte_tcs.cli as cli
import arte_tcs.errors as errors
import arte_tcs.harness as harness
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


def test_features_rows_and_label_inference(tmp_path, capsys, wav_tree):
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

    # a directory names its road as [schedule] and curve files do
    shouted = tmp_path / "Snow"
    shouted.mkdir()
    shutil.copy(wav, shouted / "a.wav")
    assert cli.main(["features", str(shouted / "a.wav"), "--frames", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("snow,")


def test_features_rejects_a_wav_without_frames(tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    with wave.open(str(wav), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
    out = tmp_path / "feat.csv"
    assert cli.main(["features", str(wav), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "i/o error: clip has no samples\n"
    assert not out.exists()


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

    # (s - 1)/(s^2 - 1) is 1/(s + 1): the common factor is cancelled
    assert cli.main(["gap", "--num1", "1", "--den1", "1,1",
                     "--num2", "1,-1", "--den2", "1,0,-1"]) == 0
    value, flag, _ = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(value) < 1e-12 and flag == "true"

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

    # products of the two plants' coefficients reach 1e600, or a pole sits
    # near 1e310 rad/s: the winding test still counts, without warnings.
    # A pole on the sweep's grid, here at 0, is P = inf there: 1/s against
    # 1/(s + 1) is 1/sqrt(2) apart at 0; s/(s^2 + s) has no pole there, as
    # it is 1/(s + 1)
    cases = {("1e300", "1,1", "2e300", "1,1"): ["5.00000002e-297", "true"],
             ("1", "1e-310,1", "1", "1,1"): ["0.707106774", "true"],
             ("1", "1,0", "1", "1,1"): ["0.707106781", "true"],
             ("1,0", "1,1,0", "1", "1,1"): ["0", "true"]}
    for (num1, den1, num2, den2), head in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["gap", "--num1", num1, "--den1", den1,
                             "--num2", num2, "--den2", den2]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[:2] == head

    # the gap does not depend on how a plant is scaled: 1/(s + 1) written
    # with subnormal coefficients is 1/(s + 1); a static gain of 1e600 is
    # out of the float range; 1e308 (s + 1)^2 / (s^2 (s + 3)), left once
    # s - 1 is cancelled, has a num coefficient of 2e308 until it is scaled
    # with its den, and is swept all the same
    assert cli.main(["gap", "--num1", "1e-310", "--den1", "1e-310,1e-310",
                     "--num2", "1", "--den2", "1,1"]) == 0
    value, flag, _ = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(value) < 1e-12 and flag == "true"
    assert cli.main(["gap", "--num1", "1e300", "--den1", "1e-300",
                     "--num2", "1", "--den2", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: plant gain exceeds the float range")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gap", "--num1", "1e308,1e308,-1e308,-1e308",
                         "--den1", "1,2,-3,0,0",
                         "--num2", "1", "--den2", "1,1"]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
    assert 0.0 <= value <= 1.0


def coefficient_lists():
    """1-4 comma-separated entries, each 0 (one in four) or any finite
    float, subnormals included."""
    entry = st.tuples(st.sampled_from((False, True, True, True)),
                      st.floats(allow_nan=False, allow_infinity=False,
                                allow_subnormal=True))
    return st.lists(entry.map(lambda e: e[1] if e[0] else 0.0),
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
    # an empty entry is an error, not a coefficient skipped: 1,,2 is not
    # s + 2, whose gap to 1/(s + 2) would print 0
    assert cli.main(["gap", "--num1", "1", "--den1", "1,,2",
                     "--num2", "1", "--den2", "1,2"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: bad coefficient list")


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

    # the trace cannot be written: a directory, or a path under a missing one
    ok = scen_file(tmp_path, "[scenario]\nduration_s = 0.01\n")
    capsys.readouterr()
    for unwritable in (str(tmp_path), str(tmp_path / "nope" / "x.csv")):
        assert cli.main(["simulate", "--config", ok, "--out", unwritable]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "Traceback" not in err

    garbage = tmp_path / "model.txt"
    garbage.write_text("not a model\n")
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    assert cli.main(["classify", "--model", str(garbage), wav]) == 4
    # a binary file is no model, whichever command reads it
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    assert cli.main(["classify", "--model", str(binary), wav]) == 4
    uses_binary = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n"
                            "arte_mode = classifier\nmodel = %s\n" % binary)
    assert cli.main(["simulate", "--config", uses_binary, "--out", out]) == 4
    truncated = tmp_path / "truncated.wav"
    with open(wav, "rb") as fh:
        truncated.write_bytes(fh.read()[:-1])
    assert cli.main(["features", str(truncated)]) == 4
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


def test_classify_rejects_overflowing_weights(tmp_path, capsys, wav_tree,
                                             model_path):
    # finite, yet the first layer's sums overflow to inf - inf = nan,
    # which argmax reads as asphalt
    with open(model_path) as fh:
        lines = fh.read().splitlines()
    lines[4] = " ".join(["1e308"] * len(lines[4].split()))
    model = tmp_path / "overflow.txt"
    model.write_text("\n".join(lines) + "\n")
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["classify", "--model", str(model), wav]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: weights and biases must not "
                                   "exceed ")
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
    "misspelled_section": b"[vehicel]\nm_vehicle = 1500\n",
    "section_in_other_case": b"[Schedule]\n0.0 = asphalt\n",
    "default_section_only": b"[DEFAULT]\nduration_s = 2\n",
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


def test_unwritable_out_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                            wav_tree, model_path):
    def never(*args, **kwargs):
        pytest.fail("work started before --out was checked")

    for module, name in ((cli, "run_scenario"), (harness, "run_scenario"),
                         (cli, "build_corpus"), (cli, "load_wav"),
                         (cli, "plant_family")):
        monkeypatch.setattr(module, name, never)
    ok = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n")
    wav = os.path.join(wav_tree, "snow", "0_0.wav")
    for unwritable in (str(tmp_path), str(tmp_path / "nope" / "x.csv")):
        for argv in (["simulate", "--config", ok], ["compare", "--config", ok],
                     ["train"], ["features", wav],
                     ["classify", "--model", model_path, wav],
                     ["gap", "--controller", "src"]):
            assert cli.main(argv + ["--out", unwritable]) == 4, argv
            assert capsys.readouterr().err.startswith("i/o error: ")
        # bad arguments are reported first, as before
        for argv in (["train", "--epochs", "0"],
                     ["features", wav, "--seed", "-1"],
                     ["features", wav, "--frames", "0"],
                     ["gap", "--controller", "src", "--num1", "1"]):
            assert cli.main(argv + ["--out", unwritable]) == 2, argv
            assert capsys.readouterr().err.startswith("error: ")


def test_failed_run_leaves_an_existing_out_as_it_was(tmp_path, capsys,
                                                     monkeypatch):
    def diverge(cfg):
        raise errors.SimulationDiverged("probe")

    monkeypatch.setattr(cli, "run_scenario", diverge)
    ok = scen_file(tmp_path, "[scenario]\nduration_s = 0.5\n")
    out = tmp_path / "x.csv"
    out.write_bytes(b"earlier run\n")
    assert cli.main(["simulate", "--config", ok, "--out", str(out)]) == 3
    assert out.read_bytes() == b"earlier run\n"


# (scenario file, extra compare options): one row of the table cannot run
# (scenario file, extra options, exit code, stderr prefix); "{tmp}" in a
# file stands for the test's temporary directory
LATE_BAD_ROWS = {
    # only MTTE rejects a vehicle whose m/4*r^2 underflows, and the MFC and
    # SRC rows come first
    "mtte_wheel_radius_underflow": (b"[vehicle]\nr = 1e-300\n", [], 2,
                                    "error: "),
    "classifier_without_model": (b"[scenario]\nduration_s = 0.5\n",
                                 ["--modes", "off", "classifier"], 2,
                                 "error: "),
    # only MTTE's law needs dt <= tau_motor / 5
    "mtte_step_too_coarse": (b"[scenario]\nduration_s = 0.5\ndt = 5e-4\n"
                             b"[vehicle]\ntau_motor = 0.002\n", [], 2,
                             "error: "),
    # the model is loaded by the classifier row, after the off row
    "classifier_model_missing": (b"[scenario]\nduration_s = 0.5\n"
                                 b"model = {tmp}/no_model.txt\n",
                                 ["--modes", "off", "classifier"], 4,
                                 "i/o error: "),
}


@pytest.mark.parametrize("body,extra,code,prefix", LATE_BAD_ROWS.values(),
                         ids=LATE_BAD_ROWS)
def test_compare_rejects_a_bad_row_before_running_any(tmp_path, capsys,
                                                      monkeypatch, body,
                                                      extra, code, prefix):
    built = []
    real = harness.make_plant_run

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "make_plant_run", counted)
    cfg = tmp_path / "scenario.ini"
    cfg.write_bytes(body.replace(b"{tmp}", str(tmp_path).encode()))
    out = str(tmp_path / "cmp.csv")
    argv = ["compare", "--config", str(cfg), "--out", out] + extra
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert built == []
    assert not os.path.exists(out)


BAD_OPTIONS = {
    "synth_seed_negative": ["synth", "--out", "{out}", "--seed", "-1"],
    "synth_no_clips": ["synth", "--out", "{out}", "--clips", "0"],
    "features_seed_negative": ["features", "--out", "{out}", "--seed", "-1",
                               "{wav}"],
    "features_no_frames": ["features", "--out", "{out}", "--frames", "0",
                           "{wav}"],
    "train_corpus_seed_negative": ["train", "--out", "{out}",
                                   "--corpus-seed", "-1"],
    "train_split_seed_negative": ["train", "--out", "{out}",
                                  "--split-seed", "-1"],
    "train_seed_negative": ["train", "--out", "{out}", "--seed", "-1"],
    "train_epochs_negative": ["train", "--out", "{out}", "--epochs", "-5"],
    "train_no_epochs": ["train", "--out", "{out}", "--epochs", "0"],
    "gap_improper_plant": ["gap", "--out", "{out}", "--num1", "1,0,0",
                           "--den1", "1,1", "--num2", "1", "--den2", "1,1"],
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


def test_cli_import_loads_no_scipy_submodule(tmp_path, model_path):
    # scipy is no run-time dependency, and `fractions` (the nu-gap's exact
    # arithmetic) and the C kernel (the plant, the laws, the trace CSV's
    # rows, the AR filter and Levinson) are deferred to keep the import
    # short.  numpy itself imports ctypes, so the kernel is checked as the
    # library it loads: its handle stays unset and no _kernel-*.so is
    # mapped into the process
    src = os.path.dirname(os.path.dirname(os.path.abspath(arte_tcs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    scipy_modules = ("(m for m in sys.modules"
                     " if m.partition('.')[0] == 'scipy')")
    probe = ("import sys, arte_tcs.cli\n"
             "print(*%s, *(m for m in sys.modules if m == 'fractions'))\n"
             "import arte_tcs._kernel as kernel\n"
             "print(kernel._loaded is not None or '_kernel-' in "
             "open('/proc/self/maps').read())" % scipy_modules)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False"]
    # the audio path filters and solves in the kernel: a fresh `train`
    # and a classifier-mode `simulate` load no scipy module either
    probe = ("import sys, arte_tcs.cli\n"
             "print(arte_tcs.cli.main(sys.argv[1:]), *%s)" % scipy_modules)
    config = scen_file(tmp_path, "[scenario]\nduration_s = 0.2\n"
                       "arte_mode = classifier\nmodel = %s\n" % model_path)
    for argv in (["train", "--out", str(tmp_path / "model.txt"),
                  "--epochs", "1"],
                 ["simulate", "--config", config,
                  "--out", str(tmp_path / "trace.csv")]):
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.splitlines()[-1] == "0", argv


def exits_four_without_gcc(tmp_path, capsys, monkeypatch, argv, out):
    """With an empty kernel cache and no gcc on PATH, `argv` exits 4 with
    one line naming gcc, no traceback and nothing at `out`."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(cache))
    monkeypatch.setattr(_kernel, "_loaded", None)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "gcc" in err
    assert not out.exists()
    assert os.listdir(cache) == []


def test_simulate_without_gcc_exits_four(tmp_path, capsys, monkeypatch):
    out = tmp_path / "trace.csv"
    argv = ["simulate", "--config",
            scen_file(tmp_path, "[scenario]\nduration_s = 0.01\n"),
            "--out", str(out)]
    exits_four_without_gcc(tmp_path, capsys, monkeypatch, argv, out)


@pytest.mark.parametrize("command", ("train", "features", "synth"))
def test_audio_command_without_gcc_exits_four(tmp_path, capsys, monkeypatch,
                                              wav_tree, command):
    # the audio path filters and solves in the kernel
    out = tmp_path / "out"
    argv = {"train": ["train", "--out", str(out)],
            "features": ["features", "--out", str(out),
                         os.path.join(wav_tree, "snow", "0_0.wav")],
            "synth": ["synth", "--out", str(out)]}[command]
    exits_four_without_gcc(tmp_path, capsys, monkeypatch, argv, out)
