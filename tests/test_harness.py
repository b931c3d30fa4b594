import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import arte_tcs.cli as cli
import arte_tcs.vehicle_plant as vehicle_plant
from arte_tcs.arte_classifier import prune_features, split_dataset, train_mlp, save_model
from arte_tcs.controllers import MaxTransmissibleTorque
from arte_tcs.errors import ConfigError, SimulationDiverged
from arte_tcs.harness import (MAX_STEPS, NO_ESTIMATE, ROAD_INDEX,
                              ScenarioConfig, SimTrace, _build_controller,
                              compare, compare_lines, load_scenario,
                              max_torque, metrics, run_scenario,
                              slip_deviation, torque_area, write_trace_csv)
from arte_tcs.synth_corpus import build_corpus
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction
from arte_tcs.vehicle_plant import VehicleParams

_cache = {}


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
                    road_est_idx=np.full(n, NO_ESTIMATE, np.int8), dt=dt)


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
    """Make MTTE's law command nan at the given step of the next run."""
    real = MaxTransmissibleTorque.law
    calls = []  # steps run so far, over every law built for the run

    def law(self, dt, t_demand):
        inner = real(self, dt, t_demand)

        def law_with_nan(v, w, t_applied):
            calls.append(None)
            if len(calls) == step + 1:
                return math.nan
            return inner(v, w, t_applied)
        return law_with_nan

    monkeypatch.setattr(MaxTransmissibleTorque, "law", law)


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
    # step calls no Python function of the plant module (the controller
    # law lives elsewhere), so the plant's call count follows the spans
    cfg = ScenarioConfig(duration_s=0.25, controller="mtte",
                         arte_mode="oracle")
    calls = []

    def profile(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename == vehicle_plant.__file__):
            calls.append(frame.f_code.co_name)

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
    # kernel build and its normal_load, and one normal_load per estimate
    assert len(calls) <= 3 * spans


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


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("""
[scenario]
duration_s = 2.5
dt = 0.0002
torque_demand = 350
controller = src
arte_mode = oracle
arte_period_s = 0.2
seed = 7
v0 = 0.5
fd_hat0 = 1000

[schedule]
0.0 = asphalt
1.5 = snow

[vehicle]
m_vehicle = 1500
""")
    cfg = load_scenario(path)
    assert cfg.duration_s == 2.5
    assert cfg.dt == 0.0002
    assert cfg.controller == "src"
    assert cfg.arte_mode == "oracle"
    assert cfg.seed == 7
    assert cfg.road_schedule == ((0.0, RoadType.ASPHALT),
                                 (1.5, RoadType.SNOW))
    assert cfg.params.m_vehicle == 1500.0
    assert cfg.params.r == VehicleParams().r


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
