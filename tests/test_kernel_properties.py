"""Property test of the C span kernel and the C control laws: they record
exactly what the Python step loop and the Python per-step laws they
replaced recorded, which stay here as the reference.

`reference_plant_run` is the Python kernel closure and `reference_law`
the three per-step law closures (and the open-loop constant), their
bodies unchanged; a law's state lives on a plain object with the
controller's attribute names.  The property draws a curve and a vehicle
(the strategies of `test_loop_properties`), a step size, a law kind, its
constants and state (any float, with +-inf, nan and 1e300 among them), an
entering state that may be non-finite and a span of 1-200 steps.  Both
sides must give the same five columns, the same returned state, the same
controller state, bit for bit, and the same `SimulationDiverged` step
and message.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arte_tcs.controllers import (MaxTransmissibleTorque,
                                  ModelFollowingControl, OpenLoop,
                                  SlipRatioControl)
from arte_tcs.errors import SimulationDiverged
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction
from arte_tcs.vehicle_plant import (LAW_CONSTANT, LAW_MFC, LAW_MTTE, LAW_SRC,
                                    _diverged, law_step, make_plant_run,
                                    slip_ratio)
from test_loop_properties import PARAMS, curves, vehicles

# law kind -> (controller class, names of its constants in the law)
LAWS = {
    LAW_CONSTANT: (OpenLoop, ("t_cmd",)),
    LAW_MFC: (ModelFollowingControl,
              ("t_dem", "dw_model", "gain", "b0", "a1", "lim")),
    LAW_SRC: (SlipRatioControl,
              ("r", "lambda_ref", "base", "hi", "kp", "ki", "dt")),
    LAW_MTTE: (MaxTransmissibleTorque,
               ("dt", "jw", "r", "lag_gain", "scale", "t_grip", "t_dem",
                "floor")),
}
# the controller attributes each law reads and writes
STATE = {LAW_CONSTANT: (), LAW_MFC: ("w_model", "hp_state"),
         LAW_SRC: ("integ",), LAW_MTTE: ("_w_prev", "fd_hat")}


def reference_law(kind, constants, self):
    """The per-step law of `kind`: the Python closure each controller's
    `law(dt, t_demand)` returned, over `self`, which holds its state."""
    if kind == LAW_CONSTANT:
        t_cmd, = constants
        return lambda v, w, t_applied: t_cmd
    if kind == LAW_MFC:
        t_dem, dw_model, gain, b0, a1, lim = constants

        def law(v, w, t_applied):
            self.w_model = w_model = self.w_model + dw_model
            x = w - w_model
            y = b0 * x + self.hp_state
            self.hp_state = -b0 * x - a1 * y
            t_cmd = t_dem - gain * y
            # a nan command (from an overflowed filter state) maps to 0
            return min(t_cmd, lim) if t_cmd >= 0.0 else 0.0
        return law
    if kind == LAW_SRC:
        r, lambda_ref, base, hi, kp, ki, dt = constants

        def law(v, w, t_applied):
            err = lambda_ref - slip_ratio(v, w, r)
            u = base + kp * err + self.integ
            # integrate unless saturated with the error pushing further out
            if not ((u > hi and err > 0.0) or (u < 0.0 and err < 0.0)):
                self.integ += ki * err * dt
            if u > hi:
                return hi
            if u < 0.0:
                return 0.0
            return u
        return law
    dt, jw, r, lag_gain, scale, t_grip, t_dem, floor = constants

    def law(v, w, t_applied):
        w_prev = self._w_prev
        dw = 0.0 if w_prev is None else (w - w_prev) / dt
        self._w_prev = w
        fd_raw = (t_applied - jw * dw) / r
        fd_hat = self.fd_hat
        self.fd_hat = fd_hat = fd_hat + lag_gain * (fd_raw - fd_hat)

        t_max = scale * fd_hat
        if t_grip < t_max:
            t_max = t_grip
        # not `t_max < floor`, so that a nan ceiling (from an
        # overflowed observer) falls to the floor
        if not t_max >= floor:
            t_max = floor
        return t_dem if t_dem < t_max else t_max
    return law


def reference_plant_run(curve, params, dt):
    """The Python step loop: run(law, v, w, t_applied, lo, hi, v_col,
    w_col, cmd_col, app_col, mu_col) -> (v, w, t_applied), with the
    right-hand side written out once per RK4 stage."""
    b, c, d, e = curve.b, curve.c, curve.d, curve.e
    r, m, jw = params.r, params.m_vehicle, params.jw
    load = params.normal_load()
    roll = params.mu_roll * params.m_vehicle * params.g
    aero = 0.5 * params.rho_air * params.cda
    lim = params.torque_limit
    # exact first-order lag at the half and full step
    decay = math.exp(-0.5 * dt / params.tau_motor)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    atan, sin, isfinite = math.atan, math.sin, math.isfinite

    def run(law, v, w, t_applied, lo, hi, v_col, w_col, cmd_col, app_col,
            mu_col):
        # each step below leaves a finite state or raises, so only the
        # entering state needs a check of its own
        if not (isfinite(v) and isfinite(w) and isfinite(t_applied)):
            raise _diverged("non-finite state or command entering step",
                            lo, dt)
        for k in range(lo, hi):
            t_cmd = law(v, w, t_applied)
            v_col[k] = v
            w_col[k] = w
            cmd_col[k] = t_cmd
            app_col[k] = t_applied
            if not isfinite(t_cmd):
                raise _diverged("non-finite state or command entering step",
                                k, dt)
            if t_cmd > lim:
                t_cmd = lim
            elif t_cmd < -lim:
                t_cmd = -lim
            lag = (t_applied - t_cmd) * decay
            t_half = t_cmd + lag
            t_full = t_cmd + lag * decay

            # stage 1, at the start state (v, w) and t_applied
            vw = r * w
            denom = vw if vw > v else v
            if denom < 0.1:
                denom = 0.1
            lam = (vw - v) / denom
            if lam > 1.0:
                lam = 1.0
            elif lam < -1.0:
                lam = -1.0
            bl = b * lam
            mu = d * sin(c * atan(bl - e * (bl - atan(bl))))
            mu_col[k] = mu
            fd = mu * load
            fdr = roll + aero * v * v if v > 0.0 else 0.0
            k1v = (4.0 * fd - fdr) / m
            k1w = (t_applied - r * fd) / jw

            # stage 2, at (sv, sw) half a step along stage 1, and t_half
            sv = v + half_dt * k1v
            sw = w + half_dt * k1w
            vw = r * sw
            denom = vw if vw > sv else sv
            if denom < 0.1:
                denom = 0.1
            lam = (vw - sv) / denom
            if lam > 1.0:
                lam = 1.0
            elif lam < -1.0:
                lam = -1.0
            bl = b * lam
            fd = d * sin(c * atan(bl - e * (bl - atan(bl)))) * load
            fdr = roll + aero * sv * sv if sv > 0.0 else 0.0
            k2v = (4.0 * fd - fdr) / m
            k2w = (t_half - r * fd) / jw

            # stage 3, at (sv, sw) half a step along stage 2, and t_half
            sv = v + half_dt * k2v
            sw = w + half_dt * k2w
            vw = r * sw
            denom = vw if vw > sv else sv
            if denom < 0.1:
                denom = 0.1
            lam = (vw - sv) / denom
            if lam > 1.0:
                lam = 1.0
            elif lam < -1.0:
                lam = -1.0
            bl = b * lam
            fd = d * sin(c * atan(bl - e * (bl - atan(bl)))) * load
            fdr = roll + aero * sv * sv if sv > 0.0 else 0.0
            k3v = (4.0 * fd - fdr) / m
            k3w = (t_half - r * fd) / jw

            # stage 4, at (sv, sw) a full step along stage 3, and t_full
            sv = v + dt * k3v
            sw = w + dt * k3w
            vw = r * sw
            denom = vw if vw > sv else sv
            if denom < 0.1:
                denom = 0.1
            lam = (vw - sv) / denom
            if lam > 1.0:
                lam = 1.0
            elif lam < -1.0:
                lam = -1.0
            bl = b * lam
            fd = d * sin(c * atan(bl - e * (bl - atan(bl)))) * load
            fdr = roll + aero * sv * sv if sv > 0.0 else 0.0
            k4v = (4.0 * fd - fdr) / m
            k4w = (t_full - r * fd) / jw

            v += sixth_dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            w += sixth_dt * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

            if not (isfinite(v) and isfinite(w)):
                raise _diverged("state became non-finite during step", k, dt)
            if v < 0.0:
                v = 0.0
            if w < 0.0:
                w = 0.0
            t_applied = t_full
        return v, w, t_applied

    return run


def bits(values):
    return [float(x).hex() for x in values]


# any float, and the values where IEEE rules differ most
specials = st.sampled_from((0.0, -0.0, 1e300, -1e300, math.inf, -math.inf,
                            math.nan, 5e-324))
anything = st.floats() | specials
# physical magnitudes, so that most runs go the whole span
moderate = st.floats(-1e3, 1e3)
values = moderate | anything
# the MTTE law divides by its dt and r; a zero there is no controller's
nonzero = values.filter(lambda x: x != 0.0)


@st.composite
def laws(draw):
    """(kind, constants, state attributes)"""
    kind = draw(st.sampled_from(tuple(LAWS)))
    names = LAWS[kind][1]
    constants = tuple(draw(nonzero if kind == LAW_MTTE and name in ("dt", "r")
                           else values) for name in names)
    attrs = {name: draw(values) for name in STATE[kind]}
    if "_w_prev" in attrs and draw(st.booleans()):
        attrs["_w_prev"] = None
    return kind, constants, attrs


def controller_with(kind, attrs):
    ctrl = LAWS[kind][0](PARAMS)
    for name, value in attrs.items():
        setattr(ctrl, name, value)
    return ctrl


def state_bits(holder, kind):
    return [None if getattr(holder, name) is None
            else float(getattr(holder, name)).hex() for name in STATE[kind]]


def outcome(call):
    """(returned value, diverged message or None)"""
    try:
        return call(), None
    except SimulationDiverged as exc:
        return None, str(exc)


FILL = -1.25  # what an unwritten column entry holds on both sides


def snow_law(cls, estimate):
    """A controller's law constants at the snow launch's step and demand,
    without a road estimate or with the snow peak installed."""
    ctrl = cls(PARAMS)
    if estimate:
        snow = RoadType.SNOW
        ctrl.set_estimate(snow, *peak_friction(DEFAULT_CURVES[snow]))
    return ctrl.law(1e-4, 400.0)[1]


@settings(max_examples=400, deadline=None)
@given(curve=curves, params=vehicles,
       dt=st.floats(1e-6, 5e-3), law=laws(),
       entering=st.tuples(st.floats(0.0, 100.0) | anything,
                          st.floats(0.0, 400.0) | anything,
                          st.floats(0.0, 700.0) | anything),
       lo=st.integers(0, 50), steps=st.integers(1, 200))
# each controller's law on the snow launch, from its reset state, with
# ARTE off and on (SRC regulates, unsaturated, only with the snow peak)
@example(curve=DEFAULT_CURVES[RoadType.SNOW], params=PARAMS, dt=1e-4,
         law=(LAW_MTTE, snow_law(MaxTransmissibleTorque, True),
              {"_w_prev": None, "fd_hat": 3000.0}),
         entering=(1.0, 1.0 / 0.28, 0.0), lo=0, steps=200)
@example(curve=DEFAULT_CURVES[RoadType.SNOW], params=PARAMS, dt=1e-4,
         law=(LAW_MFC, snow_law(ModelFollowingControl, False),
              {"w_model": 1.0 / 0.28, "hp_state": 0.0}),
         entering=(1.0, 1.0 / 0.28, 0.0), lo=0, steps=200)
@example(curve=DEFAULT_CURVES[RoadType.SNOW], params=PARAMS, dt=1e-4,
         law=(LAW_SRC, snow_law(SlipRatioControl, True), {"integ": 0.0}),
         entering=(1.0, 1.0 / 0.28, 0.0), lo=0, steps=200)
# SRC at base -inf: an infinite gain takes the integrator to +inf at
# step lo, and u = -inf + inf is a nan command at step lo + 1
@example(curve=DEFAULT_CURVES[RoadType.ASPHALT], params=PARAMS, dt=1e-4,
         law=(LAW_SRC, (0.28, 0.1, -math.inf, 300.0, 50.0, math.inf, 1e-4),
              {"integ": 0.0}),
         entering=(10.0, 10.0 / 0.28, 0.0), lo=7, steps=50)
# MFC with an overflowing filter: its nan output maps to 0
@example(curve=DEFAULT_CURVES[RoadType.GRAVEL], params=PARAMS, dt=5e-3,
         law=(LAW_MFC, (400.0, 1e300, 50.0, 1e300, -1e300, 700.0),
              {"w_model": 0.0, "hp_state": 1e300}),
         entering=(0.0, 0.0, 0.0), lo=3, steps=20)
# the plant diverges during a step: drag overflows
@example(curve=DEFAULT_CURVES[RoadType.STONE], params=PARAMS, dt=1e-4,
         law=(LAW_CONSTANT, (100.0,), {}), entering=(1e300, 1.0, 0.0),
         lo=0, steps=5)
def test_c_kernel_matches_python_reference_bit_for_bit(curve, params, dt, law,
                                                       entering, lo, steps):
    kind, constants, attrs = law
    hi = lo + steps
    ref_state = SimpleNamespace(**attrs)
    ref_cols = [[FILL] * hi for _ in range(5)]
    ref_run = reference_plant_run(curve, params, dt)
    want, want_err = outcome(lambda: ref_run(
        reference_law(kind, constants, ref_state), *entering, lo, hi,
        *ref_cols))

    ctrl = controller_with(kind, attrs)
    cols = [np.full(hi, FILL) for _ in range(5)]
    run = make_plant_run(curve, params, dt)
    got, got_err = outcome(lambda: run(
        (kind, constants), ctrl.state, *entering, lo, hi,
        [col.ctypes.data for col in cols]))

    assert got_err == want_err
    if want is not None:
        assert bits(got) == bits(want)
    for col, ref_col in zip(cols, ref_cols):
        assert bits(col.tolist()) == bits(ref_col)
    assert state_bits(ctrl, kind) == state_bits(ref_state, kind)

    # one more step of the law alone, as `Controller.update` runs it
    v, w, t_applied = entering
    want = reference_law(kind, constants, ref_state)(v, w, t_applied)
    got = law_step((kind, constants), ctrl.state, v, w, t_applied)
    assert bits([got]) == bits([want])
    assert state_bits(ctrl, kind) == state_bits(ref_state, kind)


@pytest.mark.parametrize("lo", [0, 3])
def test_c_kernel_checks_the_entering_state_of_an_empty_span(lo):
    # lo == hi runs no step, but a non-finite state still stops the run
    run = make_plant_run(DEFAULT_CURVES[RoadType.SNOW], PARAMS, 1e-4)
    cols = [np.full(lo, FILL) for _ in range(5)]
    pointers = [col.ctypes.data for col in cols]
    with pytest.raises(SimulationDiverged, match=r"^non-finite state or "
                       r"command entering step at .* \(step %d\)$" % lo):
        run((LAW_CONSTANT, (0.0,)), [], math.nan, 1.0, 0.0, lo, lo, pointers)
    assert run((LAW_CONSTANT, (0.0,)), [], 1.0, 2.0, 3.0, lo, lo,
               pointers) == (1.0, 2.0, 3.0)
    assert all((col == FILL).all() for col in cols)
