import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arte_tcs.cli as cli
import arte_tcs.controllers as controllers
import arte_tcs.harness as harness
import arte_tcs.vehicle_plant as vehicle_plant
from arte_tcs.arte_classifier import prune_features, split_dataset, train_mlp, save_model
from arte_tcs.controllers import CONTROLLERS
from arte_tcs.errors import ConfigError, SimulationDiverged
from arte_tcs.harness import (ARTE_MODES, MAX_STEPS, NO_ESTIMATE,
                              ROAD_INDEX, ROADS, ScenarioConfig, SimTrace,
                              _build_controller, compare, compare_lines,
                              load_curve_overrides, load_scenario,
                              max_torque, metrics, run_scenario,
                              slip_deviation, torque_area, write_trace_csv)
from arte_tcs.synth_corpus import build_corpus
from arte_tcs.tire_road import (DEFAULT_CURVES, MuLambdaCurve, RoadType,
                                peak_friction)
from arte_tcs.vehicle_plant import LAW_CONSTANT, VehicleParams

_cache = {}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario_files")


def short_run(**kw):
    key = tuple(sorted(kw.items()))
    if key not in _cache:
        cfg = replace(ScenarioConfig(duration_s=3.0), **kw)
        _cache[key] = run_scenario(cfg)
    return _cache[key]


def hand_trace(lam, torque, dt=0.1):
    n = len(lam)
    return SimTrace(t=np.arange(n) * dt, v=np.zeros(n), vw=np.zeros(n),
                    lam=np.asarray(lam, float),
                    t_cmd=np.asarray(torque, float),
                    t_applied=np.asarray(torque, float),
                    mu=np.zeros(n),
                    road_true_idx=np.full(n, ROAD_INDEX[RoadType.SNOW],
                                          np.int8),
                    road_est_idx=np.full(n, NO_ESTIMATE, np.int8))


def test_slip_deviation_hand_values():
    assert slip_deviation(hand_trace([0.0] * 10, [0.0] * 10)) == 0.0
    assert slip_deviation(hand_trace([0.2] * 10, [0.0] * 10)) == pytest.approx(0.2)
    mixed = hand_trace([0.1] * 10 + [0.3] * 10, [0.0] * 20)
    assert slip_deviation(mixed) == pytest.approx(0.2)


def test_torque_metrics_hand_values():
    tr = hand_trace([0.0] * 20, [200.0] * 10 + [0.0] * 10)
    assert torque_area(tr) == pytest.approx(100.0)
    assert max_torque(tr) == pytest.approx(200.0)
    const = hand_trace([0.0] * 7, [100.0] * 7)
    assert torque_area(const) == pytest.approx(100.0)


def test_metrics_reject_empty_trace():
    empty = hand_trace([], [])
    for fn in (slip_deviation, max_torque, torque_area):
        with pytest.raises(ConfigError):
            fn(empty)


def test_zero_demand_from_rest_stays_at_rest():
    cfg = ScenarioConfig(duration_s=0.5, torque_demand=0.0, v0=0.0,
                         fd_hat0=0.0, controller="open")
    tr = run_scenario(cfg)
    assert np.all(tr.lam == 0.0)
    assert np.all(tr.t_applied == 0.0)
    assert np.all(tr.v == 0.0)


def test_road_switch_lands_on_exact_step():
    cfg = ScenarioConfig(duration_s=2.0, controller="open",
                         road_schedule=((0.0, RoadType.ASPHALT),
                                        (1.0, RoadType.SNOW)))
    tr = run_scenario(cfg)
    k = int(round(1.0 / cfg.dt))
    assert tr.road_true[k - 1] is RoadType.ASPHALT
    assert tr.road_true[k] is RoadType.SNOW


def test_estimation_cuts_peak_slip():
    off = short_run(controller="mtte", arte_mode="off")
    orc = short_run(controller="mtte", arte_mode="oracle")
    assert np.max(orc.lam) < 0.2 * np.max(off.lam)


def test_estimation_improves_src_metrics():
    off = short_run(controller="src", arte_mode="off")
    orc = short_run(controller="src", arte_mode="oracle")
    assert slip_deviation(orc) < slip_deviation(off)
    assert torque_area(orc) < torque_area(off)
    assert max_torque(off) <= 300.0


def test_max_torque_bounds_torque_area():
    for tag in ("mfc", "src", "mtte"):
        tr = short_run(controller=tag, arte_mode="off")
        assert max_torque(tr) >= torque_area(tr)


def test_identical_configs_reproduce_bit_identical_metrics():
    cfg = ScenarioConfig(duration_s=1.0)
    m1 = metrics(run_scenario(cfg))
    m2 = metrics(run_scenario(cfg))
    assert m1.slip_deviation == m2.slip_deviation
    assert m1.max_torque == m2.max_torque
    assert m1.torque_area == m2.torque_area


def test_wrong_road_estimates_never_crash_controllers():
    cfg = ScenarioConfig()
    for tag in ("mfc", "src", "mtte"):
        ctrl = _build_controller(replace(cfg, controller=tag))
        for road in RoadType:
            ctrl.set_estimate(road, *peak_friction(DEFAULT_CURVES[road]))
            out = ctrl.update(1.0, 4.0, 50.0, 200.0, 1e-4)
            assert np.isfinite(out) and out >= 0.0


def nan_command_at(monkeypatch, step):
    """Make the command nan at the given step of the next run: the span
    that holds the step runs its law up to it, then a nan command."""
    real = harness.make_plant_run

    def make_plant_run(*args):
        run = real(*args)

        def run_with_nan(law, state, v, w, t_applied, lo, hi, columns):
            if lo <= step < hi:
                v, w, t_applied = run(law, state, v, w, t_applied, lo, step,
                                      columns)
                law, state, lo = (LAW_CONSTANT, (math.nan,)), [], step
            return run(law, state, v, w, t_applied, lo, hi, columns)
        return run_with_nan

    monkeypatch.setattr(harness, "make_plant_run", make_plant_run)


def test_divergence_names_time_and_step(monkeypatch):
    # the plant itself overflows: drag grows with V squared
    with pytest.raises(SimulationDiverged, match=r"^state became non-finite "
                       r"during step at t = 0 s \(step 0\)$"):
        run_scenario(ScenarioConfig(duration_s=0.01, v0=1e300))

    nan_command_at(monkeypatch, 5)
    with pytest.raises(SimulationDiverged, match=r"^non-finite state or "
                       r"command entering step at t = 0\.0005 s "
                       r"\(step 5\)$"):
        run_scenario(ScenarioConfig(duration_s=0.01))


def test_divergence_inside_a_span_names_its_step(monkeypatch, tmp_path,
                                                capsys):
    # oracle ticks at steps 0, 1000 and 2000: step 1234 is inside a span
    nan_command_at(monkeypatch, 1234)
    with pytest.raises(SimulationDiverged, match=r" at t = 0\.1234 s "
                       r"\(step 1234\)$"):
        run_scenario(ScenarioConfig(duration_s=0.25, arte_mode="oracle"))

    scenario = tmp_path / "oracle.ini"
    scenario.write_text("[scenario]\nduration_s = 0.25\narte_mode = oracle\n")
    out = tmp_path / "trace.csv"
    nan_command_at(monkeypatch, 1234)
    assert cli.main(["simulate", "--config", str(scenario),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith(
        " at t = 0.1234 s (step 1234)\n")
    assert not out.exists()


def test_plant_python_calls_scale_with_spans_not_steps():
    # a structural guard on the plant kernel's speed: within a span, a
    # step calls no Python function of the plant module, nor of the
    # controllers (their per-step laws are C too), so both call counts
    # follow the spans
    cfg = ScenarioConfig(duration_s=0.25, controller="mtte",
                         arte_mode="oracle")
    calls = []
    law_calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code.co_filename == vehicle_plant.__file__:
            calls.append(frame.f_code.co_name)
        elif frame.f_code.co_filename == controllers.__file__:
            law_calls.append(frame.f_code.co_name)

    # the kernel is built and loaded once per process, not per run
    vehicle_plant._load_kernel()
    sys.setprofile(profile)
    try:
        tr = run_scenario(cfg)
    finally:
        sys.setprofile(None)
    # one road segment; estimator ticks at 0, 0.1 and 0.2 s cut 3 spans
    spans = 3
    assert len(tr.t) == 2500
    assert calls.count("run") == spans
    # the rest are per run, segment or tick: the vehicle's validate, the
    # kernel's plant constants and their normal_load, and one normal_load
    # per estimate
    assert len(calls) <= 3 * spans
    # the controller's construction, and per tick one set_estimate and
    # one law (one more law before the first span); the kernel writes the
    # controller's state list in place, through no Python call
    assert len(law_calls) <= 4 * spans


def test_trace_csv_layout(tmp_path):
    tr = short_run(controller="mtte", arte_mode="oracle", duration_s=0.5)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, tr)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,V,Vw,lambda,T_cmd,T_applied,mu,road_true,road_est"
    assert len(lines) == len(tr.t) + 1
    first = lines[1].split(",")
    assert first[7] == "snow" and first[8] == "snow"
    assert float(first[0]) == 0.0

    off = short_run(controller="mtte", arte_mode="off", duration_s=0.5)
    write_trace_csv(path, off)
    assert path.read_text().splitlines()[1].split(",")[8] == "none"


def test_trace_written_without_gcc_leaves_no_file(tmp_path, monkeypatch):
    # the kernel formats the rows, so it is loaded before the file is
    # opened: with an empty kernel cache and no gcc on PATH, no file
    monkeypatch.setattr(vehicle_plant, "_KERNEL_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(vehicle_plant, "_kernel", None)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    roads = np.full(3, NO_ESTIMATE, dtype=np.int8)
    trace = SimTrace(*np.zeros((7, 3)), road_true_idx=roads,
                     road_est_idx=roads)
    path = tmp_path / "trace.csv"
    with pytest.raises(OSError, match="gcc"):
        write_trace_csv(path, trace)
    assert not path.exists()


@pytest.mark.parametrize("road", [NO_ESTIMATE - 1, len(ROADS)])
def test_trace_road_index_out_of_range_leaves_no_file(tmp_path, road):
    # the kernel reads a road's name at its index, so the writer checks
    # the indices before it opens the file
    roads = np.array([0, road, 1], dtype=np.int8)
    trace = SimTrace(*np.zeros((7, 3)), road_true_idx=roads[::-1].copy(),
                     road_est_idx=roads)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="road index"):
        write_trace_csv(path, trace)
    assert not path.exists()


def test_compare_rows_and_csv():
    base = ScenarioConfig(duration_s=1.0)
    rows = compare(("src", "mtte"), ("off", "oracle"), base)
    assert [(tag, mode) for tag, mode, _ in rows] == [
        ("mtte", "off"), ("mtte", "oracle"),
        ("src", "off"), ("src", "oracle")]
    for _, _, rep in rows:
        assert rep.gap is not None
        assert 0.0 <= rep.gap.value <= 1.0
    lines = compare_lines(rows)
    assert lines[0] == ("controller,arte_mode,slip_deviation,max_torque,"
                       "torque_area,gap")
    assert len(lines) == 5


def test_classifier_mode_close_to_oracle(tmp_path):
    ds = build_corpus(seed=1)
    train, _ = split_dataset(ds, 0.3, seed=4)
    model = train_mlp(train, prune_features(train), seed=0)
    path = tmp_path / "model.txt"
    save_model(path, model)
    orc = short_run(controller="mtte", arte_mode="oracle")
    cls = run_scenario(replace(ScenarioConfig(duration_s=3.0),
                               controller="mtte", arte_mode="classifier",
                               model_path=str(path)))
    assert slip_deviation(orc) <= slip_deviation(cls) + 0.02


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(duration_s=0.0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(dt=0.01).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(torque_demand=-1.0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(controller="pid").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(arte_mode="guess").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(arte_period_s=0.05).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(arte_mode="classifier").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(road_schedule=()).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(road_schedule=((0.5, RoadType.SNOW),)).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(road_schedule=((0.0, RoadType.SNOW),
                                      (0.0, RoadType.ASPHALT),)).validate()


def test_step_limit_is_inclusive():
    # a binary dt keeps duration / dt exact
    dt = 1.0 / 1024.0
    ScenarioConfig(duration_s=MAX_STEPS * dt, dt=dt).validate()
    with pytest.raises(ConfigError, match="%d steps" % MAX_STEPS):
        ScenarioConfig(duration_s=(MAX_STEPS + 1) * dt, dt=dt).validate()


# per ScenarioConfig field but the schedule and the vehicle: its key in
# [scenario] and a strategy of values it may take alone
SCENARIO_KEYS = {
    "duration_s": ("duration_s", st.floats(1e-3, 60.0)),
    "dt": ("dt", st.floats(1e-5, 5e-3)),
    "torque_demand": ("torque_demand", st.floats(0.0, 1e4)),
    "controller": ("controller", st.sampled_from(CONTROLLERS)),
    "arte_mode": ("arte_mode", st.sampled_from(ARTE_MODES)),
    "arte_period_s": ("arte_period_s", st.floats(0.1, 10.0)),
    "seed": ("seed", st.integers(0, 2**63)),
    "v0": ("v0", st.floats(0.0, 50.0)),
    "fd_hat0": ("fd_hat0", st.floats(-1e6, 1e6)),
    # printable ASCII, '%' included, as configparser strips the ends
    "model_path": ("model", st.text(st.characters(min_codepoint=32,
                                                  max_codepoint=126),
                                    min_size=1).map(str.strip)
                   .filter(bool)),
}


@st.composite
def scenario_files(draw):
    """(a valid ScenarioConfig, INI text that sets any subset of its fields
    and of its vehicle's)."""
    kwargs, lines = {}, ["[scenario]"]
    for name, (key, values) in SCENARIO_KEYS.items():
        if draw(st.booleans()):
            kwargs[name] = value = draw(values)
            lines.append("%s = %s" % (key, value if isinstance(value, str)
                                      else repr(value)))
    if draw(st.booleans()):
        times = draw(st.lists(st.floats(0.0, 1e3, exclude_min=True),
                              unique=True, max_size=4))
        entries = [(t, draw(st.sampled_from(ROADS))) for t in [0.0] + times]
        lines.append("[schedule]")
        lines += ["%r = %s" % (t, road.value)
                  for t, road in draw(st.permutations(entries))]
        kwargs["road_schedule"] = tuple(sorted(entries, key=lambda e: e[0]))
    if draw(st.booleans()):
        params = {}
        for f in fields(VehicleParams):
            if draw(st.booleans()):
                params[f.name] = f.default * draw(st.floats(0.5, 2.0))
        lines.append("[vehicle]")
        lines += ["%s = %r" % item for item in params.items()]
        kwargs["params"] = VehicleParams(**params)
    cfg = ScenarioConfig(**kwargs)
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    return cfg, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(scenario_files())
def test_load_scenario_round_trip(scratch, case):
    # a field added to ScenarioConfig needs its key here
    assert set(SCENARIO_KEYS) | {"road_schedule", "params"} == {
        f.name for f in fields(ScenarioConfig)}
    cfg, text = case
    path = scratch / "scenario.ini"
    path.write_text(text)
    assert load_scenario(path) == cfg


def test_load_scenario_reads_values_literally(tmp_path):
    model = tmp_path / "100%" / "model.txt"
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario]\nmodel = %s\n" % model)
    assert load_scenario(path).model_path == str(model)


def test_load_scenario_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError):
        load_scenario(path)
    path.write_text("[schedule]\n0.0 = moon\n")
    with pytest.raises(ConfigError):
        load_scenario(path)
    path.write_text("[vehicle]\nwings = 2\n")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_load_curve_overrides(tmp_path):
    p = tmp_path / "curves.ini"
    p.write_text("[snow]\nb = 6.0\nc = 2.0\nd = 0.25\ne = 1.0\n")
    curves = load_curve_overrides(p)
    assert curves[RoadType.SNOW] == MuLambdaCurve(6.0, 2.0, 0.25, 1.0)
    # untouched roads keep defaults
    assert curves[RoadType.ASPHALT] == DEFAULT_CURVES[RoadType.ASPHALT]


def test_load_curve_overrides_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(OSError):
        load_curve_overrides(missing)

    bad_road = tmp_path / "bad_road.ini"
    bad_road.write_text("[ice]\nb = 5\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_road)

    missing_key = tmp_path / "missing_key.ini"
    missing_key.write_text("[snow]\nb = 5\nc = 2\nd = 0.1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(missing_key)

    unknown_key = tmp_path / "unknown_key.ini"
    unknown_key.write_text("[snow]\nb = 5\nc = 2\nd = 0.1\ne = 1\ndd = 0.2\n")
    with pytest.raises(ConfigError, match=r"\[snow\] unknown key 'dd'"):
        load_curve_overrides(unknown_key)

    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[snow]\nb = 5\nc = 2\nd = soft\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_value)

    out_of_range = tmp_path / "range.ini"
    out_of_range.write_text("[snow]\nb = 5\nc = 2\nd = 2.5\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(out_of_range)

    no_header = tmp_path / "no_header.ini"
    no_header.write_text("b = 5\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(no_header)

    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    with pytest.raises(ConfigError):
        load_curve_overrides(binary)

    # configparser keeps [snow] and [Snow] apart; both name one road
    duplicate = tmp_path / "duplicate.ini"
    duplicate.write_text("[snow]\nb = 6\nc = 2\nd = 0.25\ne = 1\n"
                         "[Snow]\nb = 45\nc = 2\nd = 0.25\ne = 1\n")
    with pytest.raises(ConfigError, match=r"\[snow\] and \[Snow\]"):
        load_curve_overrides(duplicate)

    bad_interpolation = tmp_path / "percent.ini"
    bad_interpolation.write_text("[snow]\nb = 5%\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_interpolation)
