"""Single-wheel longitudinal vehicle model.

One driven wheel is simulated and the chassis sees the tractive force of
all four, so the model is

    Jw * dw/dt = T - r * Fd
    M  * dV/dt = 4 * Fd - Fdr

with Fd = mu(lambda) * N, wheel normal load N = (M/4 + m_wheel) * g, and
running resistance Fdr = rolling + aerodynamic drag (zero at standstill).
Slip is

    lambda = (Vw - V) / max(Vw, V, 0.1)       Vw = r * w

so the ratio stays defined through launch from rest.  Motor torque
follows the command through a first-order lag with time constant
tau_motor; the lag is advanced by its exact solution each step, and the
mechanical pair (V, w) by classic RK4 with the lagged torque evaluated
at the stage times.  States are clamped non-negative (forward driving
only).

`make_plant_run(curve, params, dt)` builds the one kernel, once per road
segment: the curve's B/C/D/E, the normal load, the resistance
coefficients, the torque limit and the lag decay are bound once.  The
kernel owns the step loop: one call runs a span of steps against a
controller law `law(v, w, t_applied) -> t_cmd`, writes the state, the
command and mu at the start state (which its first RK4 stage computes
anyway) to the trace columns, and names the step at which a run
diverges.  The right-hand side is written out in the loop once per RK4
stage, inlining `slip_ratio`, `mu_scalar`, `drive_force` and
`driving_resistance` with the same IEEE operations in the same order, so
its results are bit-identical to theirs and a step calls no Python
function but the law.  `plant_step` is a one-step call of the kernel at
a constant command.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, SimulationDiverged


@dataclass(frozen=True)
class VehicleParams:
    m_vehicle: float = 1400.0
    m_wheel: float = 10.0
    jw: float = 0.6
    r: float = 0.28
    tau_motor: float = 0.05
    tau_hp: float = 1000.0
    mu_roll: float = 0.015
    cda: float = 0.6
    rho_air: float = 1.2
    g: float = 9.81
    torque_limit: float = 700.0

    def validate(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError("vehicle parameter %s must be finite"
                                  % f.name)
        for name in ("m_vehicle", "m_wheel", "jw", "r", "tau_motor",
                     "tau_hp", "rho_air", "g", "torque_limit"):
            if not (getattr(self, name) > 0.0):
                raise ConfigError("vehicle parameter %s must be positive" % name)
        if self.mu_roll < 0.0 or self.cda < 0.0:
            raise ConfigError("resistance coefficients must be non-negative")
        return self

    def normal_load(self):
        return (self.m_vehicle / 4.0 + self.m_wheel) * self.g


def slip_ratio(v, w, r):
    vw = r * w
    denom = vw if vw > v else v
    if denom < 0.1:
        denom = 0.1
    return (vw - v) / denom


def driving_resistance(v, params):
    """Rolling plus aerodynamic resistance at chassis speed v.

    Pure formula; the plant only lets it act while the vehicle moves.
    """
    return (params.mu_roll * params.m_vehicle * params.g
            + 0.5 * params.rho_air * params.cda * v * v)


def drive_force(v, w, curve, params):
    lam = slip_ratio(v, w, params.r)
    return curve.mu_scalar(lam) * params.normal_load()


def _diverged(what, k, dt):
    return SimulationDiverged("%s at t = %.9g s (step %d)" % (what, k * dt, k))


def make_plant_run(curve, params, dt):
    """Step loop for one road curve, vehicle and step size.

    Returns run(law, v, w, t_applied, lo, hi, v_col, w_col, cmd_col,
    app_col, mu_col) -> (v, w, t_applied).  Step k of lo..hi-1 asks
    law(v, w, t_applied) for the command, writes the state and the
    command to column k and the friction coefficient at the start state
    to mu_col[k], and the state after step hi-1 is returned.  A
    non-finite state or command raises SimulationDiverged naming the step.

    The right-hand side is written out once per RK4 stage, not called
    as a helper: four Python calls a step cost about a sixth of the
    snow-launch benchmark's time.  So a step calls only the law and the
    `math` builtins.  Each stage computes slip (with the 0.1 floor), the
    +-1 clamp, the Magic Formula, the load, the resistance (only while
    moving) and the two accelerations, with the operations of
    `slip_ratio`, `mu_scalar`, `drive_force` and `driving_resistance` in
    their order; a change to one stage belongs in all four.
    """
    if not 0.0 < dt <= 5e-3:
        raise ConfigError("plant step size must lie in (0, 5e-3] s")
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


def plant_step(v, w, t_applied, t_cmd, dt, curve, params):
    """Advance one step; returns (v, w, t_applied) at t + dt."""
    column = [0.0]  # the one-step records are not kept
    return make_plant_run(curve, params, dt)(
        lambda v, w, t_applied: t_cmd, v, w, t_applied, 0, 1,
        column, column, column, column, column)
