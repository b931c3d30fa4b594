"""Property tests of the closed loop: the plant step, the controllers, and
the trace columns that `run_scenario` derives after its step loop.

The plant kernel is checked bit for bit against a reference RK4 written
here from the public formulas, and the derived columns for exact (bit)
equality with their per-step definitions, not to a tolerance: t[k] ==
k*dt, lambda[k] == slip_ratio at (V[k], Vw[k]), road_true[k] is the
schedule's road at t[k], and mu[k] == mu_scalar(lambda[k]) of that road.
`run_scenario`'s span loop is checked bit for bit against a per-step loop
written here from `update` and `plant_step`, its plan (road segments and
estimator ticks) against the per-step firing rule alone, over runs up to
the longest allowed, and any vehicle that
`VehicleParams.validate` accepts either runs or fails with a documented
error.
"""

import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arte_tcs.errors import ConfigError, SimulationDiverged
from arte_tcs.controllers import CONTROLLERS
from arte_tcs.harness import (MAX_STEPS, ScenarioConfig,
                              _build_controller, _plan, run_scenario)
from arte_tcs.tire_road import (DEFAULT_CURVES, ROAD_INDEX, MuLambdaCurve,
                                RoadType, peak_friction)
from arte_tcs.vehicle_plant import (LAW_CONSTANT, VehicleParams,
                                    drive_force, driving_resistance,
                                    make_plant_run, plant_step, slip_ratio)

PARAMS = VehicleParams()
LIMIT = PARAMS.torque_limit

roads = st.sampled_from(tuple(RoadType))


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# physical ranges, generously: speeds up to 100 m/s and 400 rad/s, any
# admissible step size, commands up to three times the motor limit
speeds = finite(0.0, 100.0)
wheel_speeds = finite(0.0, 400.0)
step_sizes = finite(1e-6, 5e-3)
# any finite float, for inputs a physical run never produces
any_finite = st.floats(allow_nan=False, allow_infinity=False)

# the default curves, and any curve that MuLambdaCurve.validate accepts
curves = st.sampled_from(tuple(DEFAULT_CURVES.values())) | st.builds(
    MuLambdaCurve,
    b=st.floats(0.0, exclude_min=True, allow_infinity=False),
    c=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
    d=st.floats(0.0, 1.5, exclude_min=True),
    e=any_finite).map(MuLambdaCurve.validate)

# the default vehicle, and vehicles far from it: light, drag-dominated or
# with a small wheel inertia, where each rounding reaches the state
positive = finite(1e-3, 1e3)
vehicles = st.just(PARAMS) | st.builds(
    VehicleParams, m_vehicle=positive, m_wheel=positive, jw=positive,
    r=finite(0.05, 1.0), tau_motor=positive, mu_roll=finite(0.0, 1.0),
    cda=finite(0.0, 10.0), rho_air=positive, g=positive,
    torque_limit=positive).map(VehicleParams.validate)


def reference_step(v, w, t_applied, t_cmd, dt, curve, params):
    """Classic RK4 of the model, from drive_force, driving_resistance and
    the exact lag, written out without any of the kernel's bindings."""
    lim = params.torque_limit
    t_cmd = min(max(t_cmd, -lim), lim)
    decay = math.exp(-0.5 * dt / params.tau_motor)
    t_half = t_cmd + (t_applied - t_cmd) * decay
    t_full = t_cmd + (t_applied - t_cmd) * decay * decay

    def f(v, w, torque):
        fd = drive_force(v, w, curve, params)
        fdr = driving_resistance(v, params) if v > 0.0 else 0.0
        return ((4.0 * fd - fdr) / params.m_vehicle,
                (torque - params.r * fd) / params.jw)

    k1v, k1w = f(v, w, t_applied)
    k2v, k2w = f(v + 0.5 * dt * k1v, w + 0.5 * dt * k1w, t_half)
    k3v, k3w = f(v + 0.5 * dt * k2v, w + 0.5 * dt * k2w, t_half)
    k4v, k4w = f(v + dt * k3v, w + dt * k3w, t_full)
    v2 = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    w2 = w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return max(v2, 0.0), max(w2, 0.0), t_full


def bits(values):
    return [float(x).hex() for x in values]


def kernel_step(run, v, w, t_applied, t_cmd):
    """One step of a kernel run at a constant command: the state after it,
    then the five recorded columns (V, w, T_cmd, T_applied, mu)."""
    columns = [np.full(1, np.nan) for _ in range(5)]
    state = run((LAW_CONSTANT, (t_cmd,)), [], v, w, t_applied, 0, 1,
                [col.ctypes.data for col in columns])
    return state, [float(col[0]) for col in columns]


def stage_example(v, w, t_applied, t_cmd, dt, road):
    return example(v=v, w=w, t_applied=t_applied, t_cmd=t_cmd, dt=dt,
                   curve=DEFAULT_CURVES[road], params=PARAMS)


@settings(max_examples=1000, deadline=None)
@given(v=speeds, w=wheel_speeds, t_applied=finite(0.0, LIMIT),
       t_cmd=finite(-3.0 * LIMIT, 3.0 * LIMIT), dt=step_sizes, curve=curves,
       params=vehicles)
# The kernel writes its right-hand side out once per RK4 stage; these
# drive the state of each of stages 2-4 (stage 1 takes the start state)
# through every branch the stage takes: the 0.1 slip denominator floor,
# the +-1 slip clamp (a stage state may be negative), and the zero
# resistance at V <= 0.  Per stage 1/2/3/4, F floor, C clamp, N V <= 0:
# N/F/F/FC
@stage_example(0.0, 1.0, 100.0, 400.0, 1e-3, RoadType.ASPHALT)
# F/CN/FC/CN
@stage_example(0.02, 0.0, 0.0, -3.0 * LIMIT, 5e-3, RoadType.ASPHALT)
# -/-/-/C
@stage_example(0.5, 0.25, 100.0, 0.0, 5e-3, RoadType.SNOW)
# FN/FN/FN/CN
@stage_example(0.0, 0.0, 0.0, -3.0 * LIMIT, 5e-3, RoadType.ASPHALT)
# -/-/-/-: stage 4's wheel slows below its V, which is then the denominator
@stage_example(0.1, 0.25, LIMIT, LIMIT, 5e-3, RoadType.STONE)
def test_plant_kernel_matches_reference_rk4_bit_for_bit(v, w, t_applied,
                                                        t_cmd, dt, curve,
                                                        params):
    run = make_plant_run(curve, params, dt)
    expected = reference_step(v, w, t_applied, t_cmd, dt, curve, params)
    if not all(map(math.isfinite, expected)):
        with pytest.raises(SimulationDiverged):
            kernel_step(run, v, w, t_applied, t_cmd)
        return
    state, recorded = kernel_step(run, v, w, t_applied, t_cmd)
    assert bits(state) == bits(expected)
    mu = curve.mu_scalar(slip_ratio(v, w, params.r))
    assert bits(recorded) == bits([v, w, t_cmd, t_applied, mu])


@pytest.mark.parametrize("dt", [0.0, -1e-4, 5.000001e-3, 1.0, math.nan,
                                math.inf])
def test_plant_kernel_rejects_bad_step_size_when_built(dt):
    with pytest.raises(ConfigError):
        make_plant_run(DEFAULT_CURVES[RoadType.SNOW], PARAMS, dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_plant_kernel_rejects_non_finite_input(bad, position):
    run = make_plant_run(DEFAULT_CURVES[RoadType.SNOW], PARAMS, 1e-4)
    args = [1.0, 4.0, 100.0, 200.0]
    args[position] = bad
    with pytest.raises(SimulationDiverged):
        kernel_step(run, *args)


@settings(max_examples=300, deadline=None)
@given(v=speeds, w=wheel_speeds, t_applied=finite(0.0, LIMIT),
       t_cmd=finite(0.0, 3.0 * LIMIT), dt=step_sizes, road=roads)
def test_plant_step_keeps_state_finite_and_non_negative(v, w, t_applied,
                                                        t_cmd, dt, road):
    out = plant_step(v, w, t_applied, t_cmd, dt, DEFAULT_CURVES[road], PARAMS)
    assert all(math.isfinite(x) and x >= 0.0 for x in out)
    assert out[2] <= LIMIT


@settings(max_examples=400, deadline=None)
@given(tag=st.sampled_from(tuple(CONTROLLERS)), estimate=st.none() | roads,
       inputs=st.lists(st.tuples(speeds | any_finite,
                                 wheel_speeds | any_finite,
                                 finite(0.0, LIMIT) | any_finite,
                                 finite(0.0, 3.0 * LIMIT) | any_finite,
                                 step_sizes | st.floats(0.0, 5e-3,
                                                        exclude_min=True)),
                       min_size=1, max_size=20))
def test_controller_output_within_torque_limit(tag, estimate, inputs):
    # physical inputs, or any finite ones: an overflowed observer or
    # filter state must not turn into a nan command
    cfg = ScenarioConfig(controller=tag)
    ctrl = _build_controller(cfg)
    if estimate is not None:
        ctrl.set_estimate(estimate,
                          *peak_friction(DEFAULT_CURVES[estimate]))
    for v, w, t_applied, demand, dt in inputs:
        assert 0.0 <= ctrl.update(v, w, t_applied, demand, dt) <= LIMIT


@st.composite
def scenarios(draw):
    dt = draw(st.just(1e-4) | finite(2e-4, 5e-3))
    duration = draw(finite(dt, 0.25))
    n_steps = int(round(duration / dt))
    # switch times anywhere, or exactly on a step, where t >= switch decides
    switch = finite(1e-6, duration) | st.integers(1, max(n_steps, 1)).map(
        lambda k: k * dt)
    times = draw(st.lists(switch, max_size=3, unique=True))
    schedule = tuple(zip([0.0] + sorted(times),
                         draw(st.lists(roads, min_size=len(times) + 1,
                                       max_size=len(times) + 1))))
    return ScenarioConfig(duration_s=duration, dt=dt, road_schedule=schedule,
                          controller=draw(st.sampled_from(tuple(CONTROLLERS))),
                          arte_mode=draw(st.sampled_from(("off", "oracle"))),
                          v0=draw(finite(0.0, 30.0)),
                          torque_demand=draw(finite(0.0, LIMIT)))


@settings(max_examples=60, deadline=None)
@given(cfg=scenarios())
def test_derived_columns_match_per_step_definitions(cfg):
    tr = run_scenario(cfg)
    n = int(round(cfg.duration_s / cfg.dt))
    assert len(tr.t) == n
    assert tr.t.tolist() == [k * cfg.dt for k in range(n)]

    v, vw, lam, mu = (col.tolist() for col in (tr.v, tr.vw, tr.lam, tr.mu))
    # r = 1 makes slip_ratio's own r * w the recorded Vw, unrounded
    assert lam == [slip_ratio(a, b, 1.0) for a, b in zip(v, vw)]

    times = [t for t, _ in cfg.road_schedule]
    road_true = tr.road_true
    assert road_true == [cfg.road_schedule[bisect.bisect_right(times, t)
                                           - 1][1] for t in tr.t.tolist()]
    assert mu == [DEFAULT_CURVES[road].mu_scalar(x)
                  for road, x in zip(road_true, lam)]

    assert tr.road_true_idx.dtype == tr.road_est_idx.dtype == np.int8
    road_est = tr.road_est
    if cfg.arte_mode == "off":
        assert road_est == [None] * n
    else:
        # the oracle installs the true road at each tick and holds it
        changes = [k for k in range(n)
                   if k == 0 or road_est[k] is not road_est[k - 1]]
        assert all(road_est[k] is road_true[k] for k in changes)
        assert None not in road_est


def reference_loop(cfg):
    """The trace of a loop that runs one `update` and one `plant_step` per
    step, testing t = k*dt against the next switch and the next estimator
    tick at each step: the loop that run_scenario's spans replace."""
    p, dt, sched = cfg.params, cfg.dt, cfg.road_schedule
    ctrl = _build_controller(cfg)
    rows = []
    v, w, t_applied = cfg.v0, cfg.v0 / p.r, 0.0
    sched_i = -1
    next_switch = 0.0
    next_arte = 0.0
    arte_due = -1e-12 if cfg.arte_mode != "off" else math.inf
    road_est = None
    for k in range(int(round(cfg.duration_s / dt))):
        t = k * dt
        if t >= next_switch:
            while sched_i + 1 < len(sched) and t >= sched[sched_i + 1][0]:
                sched_i += 1
            road = sched[sched_i][1]
            next_switch = (sched[sched_i + 1][0] if sched_i + 1 < len(sched)
                           else math.inf)
        if t >= arte_due:
            ctrl.set_estimate(road, *peak_friction(DEFAULT_CURVES[road]))
            road_est = road
            next_arte += cfg.arte_period_s
            arte_due = next_arte - 1e-12
        t_cmd = ctrl.update(v, w, t_applied, cfg.torque_demand, dt)
        lam = slip_ratio(v, w, p.r)
        rows.append((t, v, w * p.r, lam, t_cmd, t_applied,
                     DEFAULT_CURVES[road].mu_scalar(lam), road, road_est))
        v, w, t_applied = plant_step(v, w, t_applied, t_cmd, dt,
                                     DEFAULT_CURVES[road], p)
    return rows


@st.composite
def span_scenarios(draw):
    dt = draw(finite(2e-4, 5e-3))
    n_steps = draw(st.integers(1, 1500))
    duration = n_steps * dt
    # a step time itself, one ulp either side of it, or a time less than
    # one step after another switch
    on_step = st.integers(1, n_steps).map(lambda k: k * dt)
    switch = st.one_of(
        on_step,
        on_step.map(lambda t: math.nextafter(t, math.inf)),
        on_step.map(lambda t: math.nextafter(t, 0.0)),
        finite(1e-9, duration))
    times = draw(st.lists(switch, max_size=4))
    if times and draw(st.booleans()):
        times.append(times[0] + draw(st.floats(0.0, dt, exclude_min=True,
                                               exclude_max=True)))
    times = sorted(set(t for t in times if t > 0.0))
    schedule = tuple(zip([0.0] + times,
                         draw(st.lists(roads, min_size=len(times) + 1,
                                       max_size=len(times) + 1))))
    # an estimator period that is not a whole number of steps
    ticks = draw(st.integers(math.ceil(0.1 / dt), math.ceil(0.3 / dt)))
    period = (ticks + draw(finite(0.05, 0.95))) * dt
    return ScenarioConfig(duration_s=duration, dt=dt, road_schedule=schedule,
                          controller=draw(st.sampled_from(tuple(CONTROLLERS))),
                          arte_mode=draw(st.sampled_from(("off", "oracle"))),
                          arte_period_s=period, v0=draw(finite(0.0, 30.0)),
                          torque_demand=draw(finite(0.0, LIMIT)))


@settings(max_examples=150, deadline=None)
@given(cfg=span_scenarios())
def test_spans_match_reference_loop_bit_for_bit(cfg):
    tr = run_scenario(cfg)
    expected = list(zip(*reference_loop(cfg)))
    columns = (tr.t, tr.v, tr.vw, tr.lam, tr.t_cmd, tr.t_applied, tr.mu)
    for got, want in zip(columns, expected):
        assert bits(got.tolist()) == bits(want)
    assert tr.road_true == list(expected[7])
    assert tr.road_est == list(expected[8])


@st.composite
def planned_runs(draw):
    """(config, step count): up to 1500 steps at any step size, or up to
    1000 s (10^4 estimator ticks) at the default step size, where the
    running sum of periods that places the ticks drifts furthest."""
    if draw(st.booleans()):
        dt, mode = 1e-4, "oracle"
        n_steps = draw(st.just(MAX_STEPS) | st.integers(1, MAX_STEPS))
    else:
        dt = draw(finite(2e-4, 5e-3))
        mode = draw(st.sampled_from(("off", "oracle")))
        n_steps = draw(st.integers(1, 1500))
    # a step time itself, one ulp either side of it, any time (some past
    # the end), and a time less than one step after another switch
    on_step = st.integers(1, n_steps + 10).map(lambda k: k * dt)
    switch = st.one_of(
        on_step,
        on_step.map(lambda t: math.nextafter(t, math.inf)),
        on_step.map(lambda t: math.nextafter(t, 0.0)),
        finite(1e-9, 1.5 * n_steps * dt))
    times = draw(st.lists(switch, max_size=8))
    for t in draw(st.lists(st.sampled_from(times), max_size=3)
                  if times else st.just([])):
        times.append(t + draw(st.floats(0.0, dt, exclude_min=True,
                                        exclude_max=True)))
    times = sorted(set(t for t in times if t > 0.0))
    schedule = tuple(zip([0.0] + times,
                         draw(st.lists(roads, min_size=len(times) + 1,
                                       max_size=len(times) + 1))))
    # an estimator period that is not a whole number of steps
    ticks = draw(st.integers(math.ceil(0.1 / dt), math.ceil(0.5 / dt)))
    period = (ticks + draw(finite(0.05, 0.95))) * dt
    return ScenarioConfig(duration_s=n_steps * dt, dt=dt,
                          road_schedule=schedule, arte_period_s=period,
                          arte_mode=mode), n_steps


def is_first_step(k, x, dt):
    """k is the step at which a loop testing k*dt >= x first fires."""
    return k * dt >= x and (k == 0 or (k - 1) * dt < x)


@settings(max_examples=100, deadline=None)
@given(run=planned_runs())
def test_plan_fires_where_a_per_step_loop_would(run):
    cfg, n = run
    dt, sched = cfg.dt, cfg.road_schedule
    times = [t for t, _ in sched]
    segments, ticks, formed = _plan(cfg, n)
    beliefs = dict(zip(ticks, formed, strict=True))

    starts = [k for k, _ in segments]
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert starts[-1] < n
    # each entry due before step n starts a segment at its first step
    for t in times:
        if (n - 1) * dt >= t:
            assert any(is_first_step(k, t, dt) for k in starts)
    for k, index in segments:
        # of the entries due at step k the later wins: the last with t <= k*dt
        j = bisect.bisect_right(times, k * dt) - 1
        assert is_first_step(k, times[j], dt)
        assert index == ROAD_INDEX[sched[j][1]]

    if cfg.arte_mode == "off":
        assert ticks == []
    else:
        next_arte = 0.0
        for k in ticks:
            assert is_first_step(k, next_arte - 1e-12, dt)
            road = sched[bisect.bisect_right(times, k * dt) - 1][1]
            assert beliefs[k] == (road,) + peak_friction(DEFAULT_CURVES[road])
            next_arte += cfg.arte_period_s
        # no tick is due before the end after the last one
        assert (n - 1) * dt < next_arte - 1e-12
        assert ticks[0] == 0
        assert all(a < b for a, b in zip(ticks, ticks[1:]))
        assert ticks[-1] < n

    # the span boundaries tile [0, n)
    bounds = sorted(set(starts) | set(ticks)) + [n]
    assert bounds[0] == 0
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


# every vehicle that VehicleParams.validate accepts: each field any
# positive finite float, subnormals included, and the two resistance
# coefficients also zero
positive_float = st.floats(0.0, exclude_min=True, allow_infinity=False)
any_vehicle = st.builds(
    VehicleParams, m_vehicle=positive_float, m_wheel=positive_float,
    jw=positive_float, r=positive_float, tau_motor=positive_float,
    tau_hp=positive_float, mu_roll=st.floats(0.0, allow_infinity=False),
    cda=st.floats(0.0, allow_infinity=False), rho_air=positive_float,
    g=positive_float, torque_limit=positive_float)


@settings(max_examples=250, deadline=None)
@given(params=any_vehicle, tag=st.sampled_from(tuple(CONTROLLERS)),
       mode=st.sampled_from(("off", "oracle")))
def test_any_valid_vehicle_runs_or_fails_with_a_documented_error(params, tag,
                                                                 mode):
    # 20 steps: a run either returns its trace or stops with exit 2 or 3,
    # never a traceback, and warns of nothing on the way
    cfg = ScenarioConfig(duration_s=2e-3, controller=tag, arte_mode=mode,
                         params=params.validate())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tr = run_scenario(cfg)
        except (ConfigError, SimulationDiverged):
            return
    assert len(tr.t) == 20
