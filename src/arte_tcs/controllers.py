"""Traction control laws.

Three anti-slip structures and an open-loop baseline that share three
calls,

    set_estimate(road, lambda_opt, mu_peak)
    law(dt, t_demand) -> (kind, constants)
    update(v, w, t_applied, t_demand, dt) -> commanded torque

so the simulation loop can swap them freely; `CONTROLLERS` maps the tag
a scenario names to its class.  `set_estimate` hands over
the road estimator's belief: the recognized road and the peak
(lambda_opt, mu_peak) of its friction curve.  `law` computes, once per
step size, demand and installed estimate, the constants of the per-step
law (filter and observer coefficients, the demand clamp) and returns
them with the law's kind; the per-step law itself is C, in the plant's
kernel (`vehicle_plant`, `_kernel.c`), which runs it at every step of a
span.  The controller's state (MFC's model speed and filter state, SRC's
integrator, MTTE's previous wheel speed and `fd_hat`) is one list of
floats, `state`, in the kernel's layout, which the kernel reads and
writes back in place at each span and step; the named fields are views
of its slots.  `update` is one step: `law(dt, t_demand)` applied once
through `vehicle_plant.law_step`.  Each controller takes what it uses of
the estimate:

ModelFollowingControl
    Integrates a nominal wheel-speed model driven by the demand and
    feeds back the high-pass-filtered speed error: T = T_dem - K * HPF(
    w - w_model).  The model inertia is the wheel plus the vehicle mass
    reflected through the contact at MFC_LAMBDA_NOMINAL slip, J = Jw +
    M * r^2 * (1 - lambda); a road estimate retunes it to lambda_opt.

SlipRatioControl
    PI regulation of the slip ratio around a target, on top of a
    friction feedforward r * N * mu_ref, clamped to the 300 N.m
    saturation.  Without a road estimate it assumes dry asphalt at the
    default target; with one, it regulates around lambda_opt with the
    feedforward at mu_peak.  Conditional anti-windup: the integrator freezes
    while the unsaturated command is pinned beyond an active limit.

MaxTransmissibleTorque
    First-order observer of the tire driving force from motor torque
    and wheel acceleration, then a torque ceiling

        T_max = (1 + c / alpha) * r * fd_hat,    c = Jw / (M/4 * r^2)

    with relaxation factor alpha in (0, 1]: smaller alpha admits more
    wheel acceleration headroom, larger alpha is more conservative.
    When the ceiling binds on a saturated surface the chassis/wheel
    acceleration ratio settles at alpha.  A road estimate switches alpha
    to the surface-matched `MTTE_ROAD_ALPHA` value and installs a grip
    ceiling alpha * r * fd_peak, fd_peak = mu_peak * N, so the command never
    requests more than alpha of the transmissible traction torque;
    without road knowledge the observer path alone has to discover the
    limit, which it can only do after slip has developed.

OpenLoop
    Passes the demand through and ignores the estimate.
"""

import math

from .errors import ConfigError
from .tire_road import DEFAULT_CURVES, RoadType
from .vehicle_plant import LAW_CONSTANT, LAW_MFC, LAW_MTTE, LAW_SRC, law_step

MFC_GAIN = 50.0
MFC_LAMBDA_NOMINAL = 0.1
SRC_SATURATION = 300.0
SRC_KP = 50.0
SRC_KI = 100.0
# default belief: dry asphalt friction at the default target slip
SRC_LAMBDA_REF = 0.1
SRC_MU_REF = float(DEFAULT_CURVES[RoadType.ASPHALT].mu(SRC_LAMBDA_REF))
MTTE_ALPHA_DEFAULT = 0.80
MTTE_TORQUE_FLOOR = 10.0

# surface-matched relaxation: the slipperier the surface, the closer the
# torque bound tracks the estimated transferable force
MTTE_ROAD_ALPHA = {
    RoadType.ASPHALT: 0.75,
    RoadType.STONE: 0.80,
    RoadType.GRAVEL: 0.85,
    RoadType.SNOW: 0.90,
}


def _slot(i):
    """A named field that views slot i of the controller's `state`."""
    return property(lambda self: self.state[i],
                    lambda self, value: self.state.__setitem__(i, value))


class Controller:
    """The shared single-step call: each subclass defines `law` and the
    `state` list its law carries from step to step."""

    def update(self, v, w, t_applied, t_demand, dt):
        """Commanded torque for one step: the law for (dt, t_demand),
        applied once."""
        return law_step(self.law(dt, t_demand), self.state, v, w, t_applied)


class ModelFollowingControl(Controller):
    w_model, hp_state = _slot(0), _slot(1)

    def __init__(self, params):
        if not params.tau_hp > 0.0:
            raise ConfigError("high-pass time constant must be positive")
        self.params = params
        self.gain = MFC_GAIN
        self.state = [0.0, 0.0]  # w_model, hp_state
        self.j_model = self._inertia(MFC_LAMBDA_NOMINAL)

    def _inertia(self, lam):
        p = self.params
        return p.jw + p.m_vehicle * p.r * p.r * (1.0 - lam)

    def set_estimate(self, road, lambda_opt, mu_peak):
        """Retune the reference-model inertia for the estimated peak slip."""
        if not (0.0 <= lambda_opt <= 1.0):
            raise ConfigError("slip estimate must lie in [0, 1]")
        self.j_model = self._inertia(lambda_opt)

    def reset(self, w0=0.0):
        self.w_model = w0
        self.hp_state = 0.0

    def law(self, dt, t_demand):
        lim = self.params.torque_limit
        t_dem = min(max(t_demand, 0.0), lim)
        dw_model = dt * t_dem / self.j_model
        # first-order high-pass of the speed error, bilinear discretization
        a = 2.0 * self.params.tau_hp / dt
        b0 = a / (a + 1.0)
        a1 = (1.0 - a) / (a + 1.0)
        return LAW_MFC, (t_dem, dw_model, self.gain, b0, a1, lim)


class SlipRatioControl(Controller):
    integ = _slot(0)

    def __init__(self, params):
        self.params = params
        self.state = [0.0]  # integ
        self.set_estimate(RoadType.ASPHALT, SRC_LAMBDA_REF, SRC_MU_REF)

    def set_estimate(self, road, lambda_opt, mu_peak):
        """Regulate around the estimated peak slip, with the feedforward
        at the friction believed there."""
        if not (0.0 < lambda_opt < 1.0):
            raise ConfigError("slip target must lie in (0, 1)")
        if not (0.0 < mu_peak <= 1.5):
            raise ConfigError("reference friction must lie in (0, 1.5]")
        self.lambda_ref = lambda_opt
        self.base = self.params.r * self.params.normal_load() * mu_peak

    def reset(self):
        self.integ = 0.0

    def law(self, dt, t_demand):
        p = self.params
        hi = min(max(t_demand, 0.0), p.torque_limit, SRC_SATURATION)
        return LAW_SRC, (p.r, self.lambda_ref, self.base, hi, SRC_KP, SRC_KI,
                         dt)


class MaxTransmissibleTorque(Controller):
    fd_hat = _slot(2)

    def __init__(self, params, alpha=MTTE_ALPHA_DEFAULT):
        # the observer's time constant is the motor lag's
        if params.tau_motor <= 0.0:
            raise ConfigError("observer time constant must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ConfigError("relaxation factor must lie in (0, 1]")
        self.params = params
        self.alpha = alpha
        self.state = [0.0, 0.0, 0.0]  # has_prev, w_prev, fd_hat
        self.fd_peak = None
        inertia = (params.m_vehicle / 4.0) * params.r * params.r
        if not inertia > 0.0:
            raise ConfigError("equivalent inertia m_vehicle/4 * r^2 "
                              "underflows to zero")
        self.c = params.jw / inertia

    @property
    def _w_prev(self):
        """The previous wheel speed; None while the flag is 0."""
        has_prev, w_prev = self.state[0:2]
        return w_prev if has_prev else None

    @_w_prev.setter
    def _w_prev(self, w):
        self.state[0:2] = (0.0, 0.0) if w is None else (1.0, w)

    def set_estimate(self, road, lambda_opt, mu_peak):
        """Adopt the surface-matched relaxation factor and the grip
        ceiling of the estimated peak friction."""
        if not mu_peak > 0.0:
            raise ConfigError("peak friction must be positive")
        self.alpha = MTTE_ROAD_ALPHA[road]
        self.fd_peak = mu_peak * self.params.normal_load()

    def reset(self, fd_hat0=0.0):
        self.fd_hat = fd_hat0
        self._w_prev = None

    def law(self, dt, t_demand):
        p = self.params
        tau = p.tau_motor
        if dt > tau / 5.0:
            raise ConfigError("step %g too coarse for time constant %g"
                              % (dt, tau))
        # the observer is the exact one-step solution of tau * x' = u - x
        lag_gain = 1.0 - math.exp(-dt / tau)
        jw, r = p.jw, p.r
        scale = (1.0 + self.c / self.alpha) * r
        t_grip = (math.inf if self.fd_peak is None
                  else self.alpha * r * self.fd_peak)
        t_dem = min(max(t_demand, 0.0), p.torque_limit)
        return LAW_MTTE, (dt, jw, r, lag_gain, scale, t_grip, t_dem,
                          MTTE_TORQUE_FLOOR)


class OpenLoop(Controller):
    """Pass the demand straight through (baseline, no slip control)."""

    def __init__(self, params):
        self.params = params
        self.state = []

    def set_estimate(self, road, lambda_opt, mu_peak):
        """No slip control, so no use for a road estimate."""

    def law(self, dt, t_demand):
        return LAW_CONSTANT, (min(max(t_demand, 0.0),
                                  self.params.torque_limit),)


# the controller tags a scenario can name, each with its class
CONTROLLERS = {"mfc": ModelFollowingControl, "src": SlipRatioControl,
               "mtte": MaxTransmissibleTorque, "open": OpenLoop}
