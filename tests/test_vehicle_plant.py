import math
import os

import numpy as np
import pytest

import arte_tcs._kernel as _kernel
from arte_tcs.errors import ConfigError, SimulationDiverged
from arte_tcs.tire_road import DEFAULT_CURVES, MuLambdaCurve, RoadType
from arte_tcs.vehicle_plant import (
    VehicleParams,
    drive_force,
    driving_resistance,
    plant_step,
    slip_ratio,
)

P = VehicleParams()


def test_normal_load_value():
    assert P.normal_load() == pytest.approx((1400.0 / 4 + 10.0) * 9.81)
    assert P.normal_load() == pytest.approx(3531.6)


def test_params_validation():
    with pytest.raises(ConfigError):
        VehicleParams(r=0.0).validate()
    with pytest.raises(ConfigError):
        VehicleParams(mu_roll=-0.1).validate()
    VehicleParams().validate()


def test_slip_ratio_basics():
    assert slip_ratio(10.0, 10.0 / 0.28, 0.28) == pytest.approx(0.0)
    # pure spin from rest
    assert slip_ratio(0.0, 50.0, 0.28) == pytest.approx(1.0)
    # wheel stopped while moving: full negative slip
    assert slip_ratio(10.0, 0.0, 0.28) == pytest.approx(-1.0)
    # both at rest: floor keeps the ratio defined
    assert slip_ratio(0.0, 0.0, 0.28) == 0.0
    assert -1.0 <= slip_ratio(0.02, 0.1, 0.28) <= 1.0


def test_driving_resistance_values():
    # rolling term alone at standstill; quadratic drag grows with speed
    assert driving_resistance(0.0, P) == pytest.approx(0.015 * 1400 * 9.81)
    assert driving_resistance(10.0, P) == pytest.approx(
        0.015 * 1400 * 9.81 + 0.5 * 1.2 * 0.6 * 100.0
    )


def test_exact_motor_lag():
    # frictionless curve isolates the torque path
    zero = MuLambdaCurve(b=10.0, c=2.0, d=0.0, e=1.0)
    ta = 0.0
    v = w = 0.0
    dt = 1e-3
    for k in range(1, 101):
        v, w, ta = plant_step(v, w, ta, 100.0, dt, zero, P)
        expect = 100.0 * (1.0 - math.exp(-k * dt / P.tau_motor))
        assert ta == pytest.approx(expect, abs=1e-10)

    # step-size invariance of the lag discretization
    ta1 = 0.0
    for _ in range(10):
        _, _, ta1 = plant_step(0.0, 0.0, ta1, 100.0, 1e-3, zero, P)
    ta2 = 0.0
    for _ in range(20):
        _, _, ta2 = plant_step(0.0, 0.0, ta2, 100.0, 5e-4, zero, P)
    assert ta1 == pytest.approx(ta2, abs=1e-12)


def test_torque_command_clamped_to_limit():
    zero = MuLambdaCurve(b=10.0, c=2.0, d=0.0, e=1.0)
    ta = 0.0
    for _ in range(20000):
        _, _, ta = plant_step(0.0, 0.0, ta, 5000.0, 1e-3, zero, P)
    assert ta == pytest.approx(P.torque_limit, abs=1e-6)


def test_spin_up_matches_analytic_solution():
    # with mu = 0 the wheel sees only the lagged torque:
    #   w(t) = (T/Jw) * (t - tau * (1 - exp(-t/tau)))
    zero = MuLambdaCurve(b=10.0, c=2.0, d=0.0, e=1.0)
    T, dt = 60.0, 1e-4
    v, w, ta = 0.0, 0.0, 0.0
    ts, ws = [], []
    for k in range(10000):
        v, w, ta = plant_step(v, w, ta, T, dt, zero, P)
        ts.append((k + 1) * dt)
        ws.append(w)
    analytic = (T / P.jw) * (1.0 - P.tau_motor * (1.0 - math.exp(-1.0 / P.tau_motor)))
    assert w == pytest.approx(analytic, rel=1e-4)
    assert v == 0.0

    # settled acceleration equals T/Jw to well under 0.01%
    ts = np.asarray(ts)
    ws = np.asarray(ws)
    sel = ts >= 0.5
    slope = np.polyfit(ts[sel], ws[sel], 1)[0]
    assert slope == pytest.approx(T / P.jw, rel=1e-4)


def test_momentum_balance_on_snow_launch():
    # M * dV equals the time integral of (4*Fd - Fdr)
    curve = DEFAULT_CURVES[RoadType.SNOW]
    dt, steps = 1e-5, 50000
    v, w, ta = 0.0, 0.0, 0.0
    net = np.empty(steps + 1)
    def net_force(v, w):
        fdr = driving_resistance(v, P) if v > 0.0 else 0.0
        return 4.0 * drive_force(v, w, curve, P) - fdr

    net[0] = net_force(v, w)
    for i in range(steps):
        v, w, ta = plant_step(v, w, ta, 300.0, dt, curve, P)
        net[i + 1] = net_force(v, w)
    impulse = np.trapezoid(net, dx=dt)
    dp = P.m_vehicle * v
    assert impulse == pytest.approx(dp, rel=5e-3)


def test_step_halving_converges():
    curve = DEFAULT_CURVES[RoadType.ASPHALT]

    def run(dt, n):
        v, w, ta = 5.0, 5.0 / P.r, 0.0
        vs = np.empty(n + 1)
        ws = np.empty(n + 1)
        vs[0], ws[0] = v, w
        for i in range(n):
            v, w, ta = plant_step(v, w, ta, 400.0, dt, curve, P)
            vs[i + 1], ws[i + 1] = v, w
        return vs, ws

    va, wa = run(2e-4, 5000)
    vb, wb = run(1e-4, 10000)
    assert np.max(np.abs(va - vb[::2])) / np.max(vb) < 1e-3
    assert np.max(np.abs(wa - wb[::2])) / np.max(wb) < 1e-3


def test_states_clamped_non_negative():
    curve = DEFAULT_CURVES[RoadType.ASPHALT]
    v, w, ta = 0.0, 0.0, 0.0
    for _ in range(500):
        v, w, ta = plant_step(v, w, ta, -200.0, 1e-4, curve, P)
        assert v >= 0.0 and w >= 0.0


def test_non_finite_command_raises():
    curve = DEFAULT_CURVES[RoadType.ASPHALT]
    with pytest.raises(SimulationDiverged):
        plant_step(1.0, 1.0, 0.0, float("nan"), 1e-4, curve, P)
    with pytest.raises(SimulationDiverged):
        plant_step(float("inf"), 1.0, 0.0, 100.0, 1e-4, curve, P)


def test_step_size_out_of_range_raises():
    curve = DEFAULT_CURVES[RoadType.ASPHALT]
    with pytest.raises(ConfigError):
        plant_step(1.0, 1.0, 0.0, 100.0, 0.0, curve, P)
    with pytest.raises(ConfigError):
        plant_step(1.0, 1.0, 0.0, 100.0, 1e-2, curve, P)


def test_launch_from_rest_speeds_increase():
    # moderate asphalt launch: both speeds climb once rolling
    curve = DEFAULT_CURVES[RoadType.ASPHALT]
    dt = 1e-5
    v, w, ta = 0.0, 0.0, 0.0
    vs, ws = [v], [w]
    for i in range(100000):
        v, w, ta = plant_step(v, w, ta, 200.0, dt, curve, P)
        if (i + 1) % 10000 == 0:
            vs.append(v)
            ws.append(w)
    assert all(b > a for a, b in zip(vs[1:], vs[2:]))
    assert all(b > a for a, b in zip(ws, ws[1:]))
    assert v > 0.1 and w * P.r > v


def test_kernel_builds_elsewhere_when_its_cache_cannot_be_made(tmp_path,
                                                               monkeypatch):
    # a file where the cache directory should be: the build goes to a
    # temporary directory, and the step is the one the Python kernel took
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_kernel, "_CACHE_DIR",
                        str(tmp_path / "file" / "cache"))
    monkeypatch.setattr(_kernel, "_loaded", None)
    curve = DEFAULT_CURVES[RoadType.SNOW]
    assert plant_step(1.0, 4.0, 0.0, 100.0, 1e-4, curve, P) == (
        1.0002551561714126, 3.9559334964928254, 0.19980013326669166)
    assert _kernel._loaded is not None
    assert os.listdir(tmp_path) == ["file"]
