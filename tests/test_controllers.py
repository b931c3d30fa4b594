import dataclasses
import math

import numpy as np
import pytest

from arte_tcs.controllers import (
    MTTE_ROAD_ALPHA,
    MaxTransmissibleTorque,
    ModelFollowingControl,
    OpenLoop,
    SlipRatioControl,
)
from arte_tcs.errors import ConfigError
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction
from arte_tcs.vehicle_plant import (VehicleParams, make_plant_run, plant_step,
                                    slip_ratio)

P = VehicleParams()
# resistance-free variant for analytic comparisons
P0 = dataclasses.replace(P, mu_roll=1e-9, cda=1e-9)


def high_pass_response(ctrl, dt):
    """MFC's filter output for a unit step of the speed error.  At zero
    demand the model speed stays put, and an error of -1 commands gain
    times the output for +1."""
    return ctrl.update(0.0, ctrl.w_model - 1.0, 0.0, 0.0, dt) / ctrl.gain


def test_high_pass_rejects_dc():
    ctrl = ModelFollowingControl(dataclasses.replace(P, tau_hp=0.1))
    ctrl.reset(w0=1.0)
    y = None
    for _ in range(5000):
        y = high_pass_response(ctrl, 1e-3)
    assert abs(y) < 1e-4


def test_high_pass_passes_fast_edge():
    ctrl = ModelFollowingControl(dataclasses.replace(P, tau_hp=1000.0))
    ctrl.reset(w0=1.0)
    y = high_pass_response(ctrl, 1e-4)
    assert y == pytest.approx(1.0, abs=1e-6)


def test_high_pass_rejects_bad_tau():
    with pytest.raises(ConfigError):
        ModelFollowingControl(dataclasses.replace(P, tau_hp=0.0))


def test_mtte_observer_lag_step_response():
    # a step of the raw force estimate: fd_raw = t_applied / r at dw = 0
    tau = 0.05
    dt = 1e-3
    m = MaxTransmissibleTorque(dataclasses.replace(P, tau_motor=tau))
    n = int(round(tau / dt))
    for _ in range(n):
        m.update(0.0, 0.0, P.r, 0.0, dt)
    assert m.fd_hat == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)


def test_mtte_rejects_coarse_observer_step():
    m = MaxTransmissibleTorque(dataclasses.replace(P, tau_motor=0.05))
    with pytest.raises(ConfigError):
        m.update(0.0, 0.0, P.r, 0.0, 0.02)
    # exactly tau/5 is still allowed
    m.update(0.0, 0.0, P.r, 0.0, 0.01)


def test_mfc_model_inertia_pins():
    # MFC reads only the slip of the estimate
    ctrl = ModelFollowingControl(P)
    ctrl.set_estimate(RoadType.SNOW, 0.0, 0.28)
    assert ctrl.j_model == pytest.approx(110.36, abs=1e-9)
    ctrl.set_estimate(RoadType.SNOW, 0.2, 0.28)
    assert ctrl.j_model == pytest.approx(88.408, abs=1e-9)
    ctrl.set_estimate(RoadType.SNOW, 1.0, 0.28)
    assert ctrl.j_model == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ConfigError):
        ctrl.set_estimate(RoadType.SNOW, 1.5, 0.28)


def test_mfc_passes_demand_when_model_matches():
    # lambda = 0.75 makes the model inertia equal the rigid no-slip
    # inertia Jw + (M/4) r^2 seen by one wheel of this plant
    ctrl = ModelFollowingControl(P0)
    ctrl.set_estimate(RoadType.ASPHALT, 0.75, 1.0)
    assert ctrl.j_model == pytest.approx(28.04, abs=1e-9)
    curve = DEFAULT_CURVES[RoadType.ASPHALT]
    v, w, ta = 0.0, 0.0, 0.0
    dt = 1e-4
    tcs = []
    for _ in range(20000):
        tc = ctrl.update(v, w, ta, 100.0, dt)
        v, w, ta = plant_step(v, w, ta, tc, dt, curve, P0)
        tcs.append(tc)
    late = np.asarray(tcs[10000:])
    assert np.max(np.abs(late - 100.0)) < 2.0
    assert abs(w - ctrl.w_model) / ctrl.w_model < 5e-3


def test_mfc_cuts_torque_when_wheel_runs_ahead():
    ctrl = ModelFollowingControl(P)
    dt = 1e-3
    tc = None
    for k in range(200):
        # wheel speed ramping far faster than the demand can explain
        tc = ctrl.update(0.0, 5.0 * k * dt * 50.0, 0.0, 200.0, dt)
    assert tc < 200.0
    assert tc >= 0.0


def test_src_rails_exactly_at_saturation():
    src = SlipRatioControl(P)
    tc = src.update(0.0, 0.0, 0.0, 400.0, 1e-4)
    assert tc == 300.0
    # and at the demand when the demand is the tighter limit
    src2 = SlipRatioControl(P)
    tc2 = src2.update(0.0, 0.0, 0.0, 250.0, 1e-4)
    assert tc2 == 250.0


def test_src_output_bounds():
    rng = np.random.default_rng(7)
    src = SlipRatioControl(P)
    for _ in range(500):
        v = rng.uniform(0.0, 30.0)
        w = rng.uniform(0.0, 150.0)
        dem = rng.uniform(0.0, 600.0)
        tc = src.update(v, w, 0.0, dem, 1e-3)
        assert 0.0 <= tc <= min(dem, 300.0) + 1e-12


def test_src_reference_updates_feedforward():
    src = SlipRatioControl(P)
    src.set_estimate(RoadType.SNOW, 0.05, 0.28)
    assert src.lambda_ref == 0.05
    assert src.base == pytest.approx(0.28 * P.r * P.normal_load())
    with pytest.raises(ConfigError):
        src.set_estimate(RoadType.SNOW, 0.0, 0.3)
    with pytest.raises(ConfigError):
        src.set_estimate(RoadType.SNOW, 0.1, 2.0)


def test_src_integrator_freezes_only_when_pushed_past_limit():
    src = SlipRatioControl(P)
    # railed high with positive error: frozen
    for _ in range(1000):
        src.update(0.0, 0.0, 0.0, 400.0, 1e-3)
    assert src.integ == 0.0
    # inside the limits the integrator moves
    src.set_estimate(RoadType.SNOW, 0.1, 0.28)
    src.update(10.0, 10.0 / P.r, 0.0, 400.0, 1e-3)  # lam = 0, err > 0
    assert src.integ > 0.0
    # negative error integrates down while unsaturated
    before = src.integ
    src.update(10.0, 2.0 * 10.0 / P.r, 0.0, 400.0, 1e-3)  # lam = 0.5
    assert src.integ < before


def test_src_holds_near_target_slip_on_snow():
    lam_opt, mu_pk = peak_friction(DEFAULT_CURVES[RoadType.SNOW])
    src = SlipRatioControl(P)
    src.set_estimate(RoadType.SNOW, lam_opt, mu_pk)
    curve = DEFAULT_CURVES[RoadType.SNOW]
    v, w, ta = 1.0, 1.0 / P.r, 0.0
    dt = 1e-4
    tc = 0.0
    for _ in range(40000):
        tc = src.update(v, w, ta, 400.0, dt)
        v, w, ta = plant_step(v, w, ta, tc, dt, curve, P)
    assert abs(slip_ratio(v, w, P.r) - lam_opt) < 0.01
    assert 250.0 < tc < 300.0


def test_mtte_coupling_constant():
    m = MaxTransmissibleTorque(P)
    assert m.c == pytest.approx(0.6 / (350.0 * 0.28 ** 2), abs=1e-12)
    assert m.c == pytest.approx(0.0218659, abs=1e-6)


def mtte_from(params, fd_hat0, **kw):
    """An MTTE controller whose observer starts at fd_hat0."""
    m = MaxTransmissibleTorque(params, **kw)
    m.reset(fd_hat0=fd_hat0)
    return m


def test_mtte_cap_formula():
    # huge observer time constant pins fd_hat at its prior
    m = mtte_from(dataclasses.replace(P, tau_motor=1e12), 500.0, alpha=0.8)
    tc = m.update(0.0, 0.0, 0.0, 700.0, 1e-3)
    assert tc == pytest.approx((1.0 + m.c / 0.8) * P.r * 500.0, rel=1e-9)


def test_mtte_floor_when_observer_is_cold():
    m = MaxTransmissibleTorque(P)
    tc = m.update(0.0, 0.0, 0.0, 700.0, 1e-3)
    assert tc == pytest.approx(10.0)


def test_mtte_observer_settles_in_five_time_constants():
    # synthetic measurements with a constant true driving force
    m = MaxTransmissibleTorque(P)
    fd_true, torque = 800.0, 300.0
    dwdt = (torque - P.r * fd_true) / P.jw
    dt = 1e-3
    w = 0.0
    err_at = {}
    for k in range(1, 301):
        w += dwdt * dt
        m.update(0.0, w, torque, 700.0, dt)
        if k in (200, 250):
            err_at[k] = abs(m.fd_hat - fd_true) / fd_true
    assert err_at[250] < 0.01          # settled at 5 tau
    assert err_at[200] > 0.01          # but not much earlier


def test_mtte_grip_ceiling():
    # snow: relaxation 0.9, and a peak friction that carries 1000 N
    m = mtte_from(dataclasses.replace(P, tau_motor=1e12), 1e6)
    m.set_estimate(RoadType.SNOW, 0.05, 1000.0 / P.normal_load())
    assert m.alpha == MTTE_ROAD_ALPHA[RoadType.SNOW] == 0.9
    tc = m.update(0.0, 0.0, 0.0, 700.0, 1e-3)
    assert tc == pytest.approx(0.9 * P.r * 1000.0, rel=1e-12)


def test_mtte_validation():
    with pytest.raises(ConfigError):
        MaxTransmissibleTorque(P, alpha=0.0)
    with pytest.raises(ConfigError):
        MaxTransmissibleTorque(P, alpha=1.2)
    with pytest.raises(ConfigError, match="observer time constant"):
        MaxTransmissibleTorque(dataclasses.replace(P, tau_motor=0.0))
    m = MaxTransmissibleTorque(P)
    with pytest.raises(ConfigError):
        m.set_estimate(RoadType.SNOW, 0.05, -5.0 / P.normal_load())


def test_mtte_acceleration_ratio_tracks_alpha():
    # sustained spin on a saturated surface settles at V_dot = alpha * r * w_dot
    curve = DEFAULT_CURVES[RoadType.SNOW]
    dt = 1e-4
    for alpha in (0.8, 0.9):
        m = MaxTransmissibleTorque(P0, alpha=alpha)
        m.reset(fd_hat0=3000.0)
        v, w, ta = 1.0, 1.0 / P.r, 0.0
        ts, vs, ws = [], [], []
        for i in range(60000):
            tc = m.update(v, w, ta, 400.0, dt)
            v, w, ta = plant_step(v, w, ta, tc, dt, curve, P0)
            ts.append((i + 1) * dt)
            vs.append(v)
            ws.append(P.r * w)
        ts = np.asarray(ts)
        sel = ts >= 3.0
        sv = np.polyfit(ts[sel], np.asarray(vs)[sel], 1)[0]
        sw = np.polyfit(ts[sel], np.asarray(ws)[sel], 1)[0]
        assert sv / sw == pytest.approx(alpha, abs=0.05)


def test_mfc_filtered_error_decays_with_matched_load():
    # closing the loop around the reference inertia itself leaves only
    # the motor-lag transient, which the loop must wash out
    ctrl = ModelFollowingControl(P)
    ctrl.set_estimate(RoadType.ASPHALT, 0.75, 1.0)
    jp = ctrl.j_model
    dt = 1e-4
    decay = math.exp(-dt / P.tau_motor)
    w = ta = 0.0
    ys = []
    for _ in range(40000):
        tc = ctrl.update(0.0, w, ta, 100.0, dt)
        ys.append((100.0 - tc) / ctrl.gain)
        ta_new = tc + (ta - tc) * decay
        w += 0.5 * (ta + ta_new) * dt / jp
        ta = ta_new
    ys = np.abs(np.asarray(ys))
    early = np.trapezoid(ys[:20000], dx=dt)
    late = np.trapezoid(ys[20000:], dx=dt)
    assert early > 0.01
    assert late < 0.1 * early


def test_replay_reproduces_outputs_bit_exactly():
    rng = np.random.default_rng(21)
    seq = [(rng.uniform(0, 20), rng.uniform(0, 100), rng.uniform(0, 300),
            rng.uniform(0, 500)) for _ in range(300)]

    def run(ctrl):
        ctrl.reset()
        return [ctrl.update(v, w, ta, dem, 1e-3) for v, w, ta, dem in seq]

    for ctrl in (ModelFollowingControl(P), SlipRatioControl(P),
                 MaxTransmissibleTorque(P)):
        first = run(ctrl)
        second = run(ctrl)
        assert first == second


@pytest.mark.parametrize("make,names", [
    (lambda: SlipRatioControl(P), ("integ",)),
    (lambda: mtte_from(P, 3000.0), ("fd_hat", "_w_prev")),
], ids=["src", "mtte"])
def test_a_span_leaves_its_state_on_the_controller(make, names):
    # 200 steps of the snow launch, with the snow peak installed, as one
    # kernel span over the controller's own state list and step by step
    # through update: the same state, moved from its start
    snow = RoadType.SNOW
    curve, dt, demand, n = DEFAULT_CURVES[snow], 1e-4, 400.0, 200
    start, spanned, stepped = make(), make(), make()
    for ctrl in (spanned, stepped):
        ctrl.set_estimate(snow, *peak_friction(curve))
    v, w, ta = 1.0, 1.0 / P.r, 0.0
    columns = [np.empty(n) for _ in range(5)]
    make_plant_run(curve, P, dt)(spanned.law(dt, demand), spanned.state,
                                 v, w, ta, 0, n,
                                 [col.ctypes.data for col in columns])
    for _ in range(n):
        tc = stepped.update(v, w, ta, demand, dt)
        v, w, ta = plant_step(v, w, ta, tc, dt, curve, P)
    for name in names:
        assert float(getattr(spanned, name)).hex() == float(
            getattr(stepped, name)).hex()
        assert getattr(spanned, name) != getattr(start, name)


def test_open_loop_passes_demand():
    ctrl = OpenLoop(P)
    assert ctrl.update(0.0, 0.0, 0.0, 250.0, 1e-3) == 250.0
    assert ctrl.update(0.0, 0.0, 0.0, 900.0, 1e-3) == P.torque_limit
    ctrl.set_estimate(RoadType.SNOW, 0.05, 0.28)
    assert ctrl.update(0.0, 0.0, 0.0, 250.0, 1e-3) == 250.0
