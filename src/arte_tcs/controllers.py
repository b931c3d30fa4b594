"""Traction control laws.

Three anti-slip structures and an open-loop baseline that share three
calls,

    set_estimate(road, lambda_opt, mu_peak)
    law(dt, t_demand) -> law(v, w, t_applied) -> commanded torque
    update(v, w, t_applied, t_demand, dt) -> commanded torque

so the simulation loop can swap them freely.  `set_estimate` hands over
the road estimator's belief: the recognized road and the peak
(lambda_opt, mu_peak) of its friction curve.  `law` binds the step size,
the demand, the installed estimate and the constants derived from them
(filter and observer coefficients, the demand clamp) once, and returns
the per-step law that the plant kernel calls; it stays valid until the
next `set_estimate`.  The controller's state (MFC's model speed and
filter state, SRC's integrator, MTTE's `fd_hat` and previous wheel
speed) stays on the object.  `update` is one step: `law(dt, t_demand)`
applied once.  Each controller takes what it uses of the estimate:

ModelFollowingControl
    Integrates a nominal wheel-speed model driven by the demand and
    feeds back the high-pass-filtered speed error: T = T_dem - K * HPF(
    w - w_model).  The model inertia is the wheel plus the vehicle mass
    reflected through the contact at a nominal slip, J = Jw +
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
from .vehicle_plant import VehicleParams, slip_ratio

# the controller tags a scenario can name
CONTROLLERS = ("mfc", "src", "mtte", "open")

MFC_GAIN = 50.0
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


class Controller:
    """The shared single-step call: each subclass defines `law`."""

    def update(self, v, w, t_applied, t_demand, dt):
        """Commanded torque for one step: the law for (dt, t_demand),
        applied once."""
        return self.law(dt, t_demand)(v, w, t_applied)


class ModelFollowingControl(Controller):
    def __init__(self, params=None, lambda_nominal=0.1):
        self.params = VehicleParams() if params is None else params
        if not self.params.tau_hp > 0.0:
            raise ConfigError("high-pass time constant must be positive")
        self.gain = MFC_GAIN
        self.w_model = 0.0
        self.hp_state = 0.0
        self.j_model = self._inertia(lambda_nominal)

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
        gain = self.gain
        # first-order high-pass of the speed error, bilinear discretization
        a = 2.0 * self.params.tau_hp / dt
        b0 = a / (a + 1.0)
        a1 = (1.0 - a) / (a + 1.0)

        def law(v, w, t_applied):
            self.w_model = w_model = self.w_model + dw_model
            x = w - w_model
            y = b0 * x + self.hp_state
            self.hp_state = -b0 * x - a1 * y
            t_cmd = t_dem - gain * y
            # a nan command (from an overflowed filter state) maps to 0
            return min(t_cmd, lim) if t_cmd >= 0.0 else 0.0
        return law


class SlipRatioControl(Controller):
    def __init__(self, params=None):
        self.params = VehicleParams() if params is None else params
        self.integ = 0.0
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
        r, lambda_ref, base = p.r, self.lambda_ref, self.base
        hi = min(max(t_demand, 0.0), p.torque_limit, SRC_SATURATION)
        kp, ki = SRC_KP, SRC_KI

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


class MaxTransmissibleTorque(Controller):
    def __init__(self, params=None, alpha=MTTE_ALPHA_DEFAULT, tau_obs=None,
                 fd_hat0=0.0):
        self.params = VehicleParams() if params is None else params
        self.tau_obs = self.params.tau_motor if tau_obs is None else tau_obs
        if self.tau_obs <= 0.0:
            raise ConfigError("observer time constant must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ConfigError("relaxation factor must lie in (0, 1]")
        self.alpha = alpha
        self.fd_hat = fd_hat0
        self.fd_peak = None
        self._w_prev = None
        p = self.params
        inertia = (p.m_vehicle / 4.0) * p.r * p.r
        if not inertia > 0.0:
            raise ConfigError("equivalent inertia m_vehicle/4 * r^2 "
                              "underflows to zero")
        self.c = p.jw / inertia

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
        tau = self.tau_obs
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
        floor = MTTE_TORQUE_FLOOR

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


class OpenLoop(Controller):
    """Pass the demand straight through (baseline, no slip control)."""

    def __init__(self, params=None):
        self.params = VehicleParams() if params is None else params

    def set_estimate(self, road, lambda_opt, mu_peak):
        """No slip control, so no use for a road estimate."""

    def law(self, dt, t_demand):
        t_cmd = min(max(t_demand, 0.0), self.params.torque_limit)
        return lambda v, w, t_applied: t_cmd
