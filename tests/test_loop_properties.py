"""Property tests of the closed loop: the plant step, the controllers, and
the trace columns that `run_scenario` derives after its step loop.

The derived columns are checked for exact (bit) equality with their
per-step definitions, not to a tolerance: t[k] == k*dt, lambda[k] ==
slip_ratio at (V[k], Vw[k]), road_true[k] is the schedule's road at t[k],
and mu[k] == mu_scalar(lambda[k]) of that road.
"""

import bisect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arte_tcs.harness import (CONTROLLER_TAGS, ScenarioConfig,
                              _apply_estimate, _build_controller,
                              run_scenario)
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType
from arte_tcs.vehicle_plant import VehicleParams, plant_step, slip_ratio

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


@settings(max_examples=300, deadline=None)
@given(v=speeds, w=wheel_speeds, t_applied=finite(0.0, LIMIT),
       t_cmd=finite(0.0, 3.0 * LIMIT), dt=step_sizes, road=roads)
def test_plant_step_keeps_state_finite_and_non_negative(v, w, t_applied,
                                                        t_cmd, dt, road):
    out = plant_step(v, w, t_applied, t_cmd, dt, DEFAULT_CURVES[road], PARAMS)
    assert all(math.isfinite(x) and x >= 0.0 for x in out)
    assert out[2] <= LIMIT


@settings(max_examples=200, deadline=None)
@given(tag=st.sampled_from(CONTROLLER_TAGS), estimate=st.none() | roads,
       inputs=st.lists(st.tuples(speeds, wheel_speeds, finite(0.0, LIMIT),
                                 finite(0.0, 3.0 * LIMIT), step_sizes),
                       min_size=1, max_size=20))
def test_controller_output_within_torque_limit(tag, estimate, inputs):
    cfg = ScenarioConfig(controller=tag)
    ctrl = _build_controller(cfg)
    if estimate is not None:
        _apply_estimate(ctrl, cfg, estimate)
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
                          controller=draw(st.sampled_from(CONTROLLER_TAGS)),
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
