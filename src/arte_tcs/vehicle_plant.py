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

`make_plant_run(curve, params, dt)` returns the one kernel for a road
segment: the curve's B/C/D/E, the normal load, the resistance
coefficients, the torque limit and the lag decay are bound once, into
buffers that this run owns with those of the law and the plant state, so
runs on several threads share none.  The kernel is C, `_kernel.c`, and
owns the step loop: one call runs a span of steps against a
controller law, given as its kind (constant command, MFC, SRC or MTTE),
its constants and its state, and writes the state, the command and mu
at the start state (which its first RK4 stage computes anyway) to the
trace columns, and names the step at which a run diverges.  The
right-hand side inlines `slip_ratio`, `mu_scalar`, `drive_force` and
`driving_resistance` with the same IEEE operations in the same order
(the same libm atan and sin, no fused multiply-add), so its results are
bit-identical to theirs.  `law_step` runs a law alone for one step, and
`plant_step` is a one-step call of the kernel at a constant command;
`_kernel` builds and loads the library.
"""

import math
from dataclasses import dataclass, fields

from . import _kernel
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


# the law kinds of the C kernel: a constant command and the three laws
LAW_CONSTANT, LAW_MFC, LAW_SRC, LAW_MTTE = range(4)
_DIVERGED = ("non-finite state or command entering step",
             "state became non-finite during step")


def make_plant_run(curve, params, dt):
    """The C span kernel for one road curve, vehicle and step size.

    Returns run(law, state, v, w, t_applied, lo, hi, columns) -> (v, w,
    t_applied).  `law` is (kind, constants) as a controller's
    `law(dt, t_demand)` returns it, and `state` the list of the law's
    state, which run reads and writes back in place.  `columns` holds the
    addresses of five float64 arrays of at least hi values: V, w, T_cmd,
    T_applied and mu.  Step k of lo..hi-1 asks the law for the command,
    writes the state and the command to column k and the friction
    coefficient at the start state to the mu column, and the state after
    step hi-1 is returned.  A non-finite state or command raises
    SimulationDiverged naming the step.

    The kernel, `_kernel.c`, is built with gcc on the first call in a
    process (OSError if it cannot be).  Its right-hand side does the
    operations of `slip_ratio` (with the +-1 clamp), `mu_scalar`,
    `drive_force` and `driving_resistance` (only while moving) in their
    order, so it is bit-identical to them.  The plant constants and the
    buffers that run fills are this run's own: a run is used by one thread
    at a time, and runs on other threads share nothing with it.
    """
    if not 0.0 < dt <= 5e-3:
        raise ConfigError("plant step size must lie in (0, 5e-3] s")
    kernel = _kernel.load()
    double = kernel.double
    values = (curve.b, curve.c, curve.d, curve.e, params.r,
              params.m_vehicle, params.jw, params.normal_load(),
              params.mu_roll * params.m_vehicle * params.g,
              0.5 * params.rho_air * params.cda, params.torque_limit,
              # exact first-order lag at the half and full step
              math.exp(-0.5 * dt / params.tau_motor),
              0.5 * dt, dt / 6.0, dt)
    plant = (double * len(values))(*values)
    run_span = kernel.run_span
    # a law's constants (at most 8) and state (at most 3), and the plant
    # state (v, w, t_applied)
    buffer, held, x = (double * 8)(), (double * 3)(), (double * 3)()

    def run(law, state, v, w, t_applied, lo, hi, columns):
        kind, constants = law
        buffer[:len(constants)] = constants
        held[:len(state)] = state
        x[0], x[1], x[2] = v, w, t_applied
        k = run_span(plant, kind, buffer, held, x, lo, hi, *columns)
        state[:] = held[:len(state)]
        if k >= 0:
            raise _diverged(_DIVERGED[k & 1], k >> 1, dt)
        return x[0], x[1], x[2]
    return run


def law_step(law, state, v, w, t_applied):
    """One step of a controller law (kind, constants): the command at
    (v, w, t_applied); `state` is read and written back in place."""
    kernel = _kernel.load()
    kind, constants = law
    double = kernel.double
    held = (double * 3)(*state)
    t_cmd = kernel.law_step(kind, (double * 8)(*constants), held, v, w,
                            t_applied)
    state[:] = held[:len(state)]
    return t_cmd


def plant_step(v, w, t_applied, t_cmd, dt, curve, params):
    """Advance one step at the command t_cmd, as given (the kernel
    clamps it and checks it is finite); returns (v, w, t_applied) at
    t + dt."""
    run = make_plant_run(curve, params, dt)
    # the step's records, written and never read
    sink = (_kernel.load().double * 1)()
    return run((LAW_CONSTANT, (t_cmd,)), [], v, w, t_applied, 0, 1,
               (sink,) * 5)
