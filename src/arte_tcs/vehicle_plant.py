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
at the stage times.  `derivs` is the single right-hand side: every RK4
stage calls it, and it is built from `drive_force` and
`driving_resistance`, so each formula above exists once.  States are
clamped non-negative (forward driving only).
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


def first_order_lag(x, u, tau, dt):
    """Exact one-step discretization of tau * x' = u - x."""
    if dt > tau / 5.0:
        raise ConfigError("step %g too coarse for time constant %g" % (dt, tau))
    return x + (1.0 - math.exp(-dt / tau)) * (u - x)


def drive_force(v, w, curve, params):
    lam = slip_ratio(v, w, params.r)
    return curve.mu_scalar(lam) * params.normal_load()


def derivs(v, w, torque, curve, params):
    """(dV/dt, dw/dt) at the given state and applied torque."""
    fd = drive_force(v, w, curve, params)
    fdr = driving_resistance(v, params) if v > 0.0 else 0.0
    dv = (4.0 * fd - fdr) / params.m_vehicle
    dw = (torque - params.r * fd) / params.jw
    return dv, dw


def plant_step(v, w, t_applied, t_cmd, dt, curve, params):
    """Advance one step; returns (v, w, t_applied) at t + dt."""
    p = params
    if not 0.0 < dt <= 5e-3:
        raise ConfigError("plant step size must lie in (0, 5e-3] s")
    if not (math.isfinite(t_cmd) and math.isfinite(v) and math.isfinite(w)
            and math.isfinite(t_applied)):
        raise SimulationDiverged("non-finite state or command entering step")

    lim = p.torque_limit
    if t_cmd > lim:
        t_cmd = lim
    elif t_cmd < -lim:
        t_cmd = -lim

    # exact first-order lag at the half and full step
    decay = math.exp(-0.5 * dt / p.tau_motor)
    t_half = t_cmd + (t_applied - t_cmd) * decay
    t_full = t_cmd + (t_applied - t_cmd) * decay * decay

    h = dt
    k1v, k1w = derivs(v, w, t_applied, curve, p)
    k2v, k2w = derivs(v + 0.5 * h * k1v, w + 0.5 * h * k1w, t_half, curve, p)
    k3v, k3w = derivs(v + 0.5 * h * k2v, w + 0.5 * h * k2w, t_half, curve, p)
    k4v, k4w = derivs(v + h * k3v, w + h * k3w, t_full, curve, p)
    v2 = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    w2 = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    if not (math.isfinite(v2) and math.isfinite(w2)):
        raise SimulationDiverged("state became non-finite during step")
    if v2 < 0.0:
        v2 = 0.0
    if w2 < 0.0:
        w2 = 0.0
    return v2, w2, t_full
