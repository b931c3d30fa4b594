"""Traction control laws.

Three anti-slip structures and an open-loop baseline that share two
calls,

    update(v, w, t_applied, t_demand, dt) -> commanded torque
    set_estimate(road, lambda_opt, mu_peak)

so the simulation loop can swap them freely.  `set_estimate` hands over
the road estimator's belief: the recognized road and the peak
(lambda_opt, mu_peak) of its friction curve.  Each controller takes what
it uses of it:

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

from .errors import ConfigError
from .tire_road import DEFAULT_CURVES, RoadType
from .vehicle_plant import VehicleParams, first_order_lag, slip_ratio

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


class HighPassFilter:
    """First-order high-pass, bilinear discretization, tau in seconds."""

    def __init__(self, tau):
        if tau <= 0.0:
            raise ConfigError("high-pass time constant must be positive")
        self.tau = tau
        self._s = 0.0

    def reset(self):
        self._s = 0.0

    def step(self, x, dt):
        a = 2.0 * self.tau / dt
        b0 = a / (a + 1.0)
        a1 = (1.0 - a) / (a + 1.0)
        y = b0 * x + self._s
        self._s = -b0 * x - a1 * y
        return y


class ModelFollowingControl:
    def __init__(self, params=None, lambda_nominal=0.1):
        self.params = VehicleParams() if params is None else params
        self.gain = MFC_GAIN
        self.hpf = HighPassFilter(self.params.tau_hp)
        self.w_model = 0.0
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
        self.hpf.reset()

    def update(self, v, w, t_applied, t_demand, dt):
        lim = self.params.torque_limit
        t_dem = min(max(t_demand, 0.0), lim)
        self.w_model += dt * t_dem / self.j_model
        err = self.hpf.step(w - self.w_model, dt)
        t_cmd = t_dem - self.gain * err
        # a nan command (from an overflowed filter state) maps to 0
        return min(t_cmd, lim) if t_cmd >= 0.0 else 0.0


class SlipRatioControl:
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

    def update(self, v, w, t_applied, t_demand, dt):
        p = self.params
        hi = min(max(t_demand, 0.0), p.torque_limit, SRC_SATURATION)
        lam = slip_ratio(v, w, p.r)
        err = self.lambda_ref - lam
        u = self.base + SRC_KP * err + self.integ
        # integrate unless saturated with the error pushing further out
        if not ((u > hi and err > 0.0) or (u < 0.0 and err < 0.0)):
            self.integ += SRC_KI * err * dt
        if u > hi:
            return hi
        if u < 0.0:
            return 0.0
        return u


class MaxTransmissibleTorque:
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
        self.c = p.jw / ((p.m_vehicle / 4.0) * p.r * p.r)

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

    def update(self, v, w, t_applied, t_demand, dt):
        p = self.params
        if self._w_prev is None:
            dw = 0.0
        else:
            dw = (w - self._w_prev) / dt
        self._w_prev = w
        fd_raw = (t_applied - p.jw * dw) / p.r
        self.fd_hat = first_order_lag(self.fd_hat, fd_raw, self.tau_obs, dt)

        t_max = (1.0 + self.c / self.alpha) * p.r * self.fd_hat
        if self.fd_peak is not None:
            t_grip = self.alpha * p.r * self.fd_peak
            if t_grip < t_max:
                t_max = t_grip
        # not `t_max < MTTE_TORQUE_FLOOR`, so that a nan ceiling (from an
        # overflowed observer) falls to the floor
        if not t_max >= MTTE_TORQUE_FLOOR:
            t_max = MTTE_TORQUE_FLOOR
        t_dem = min(max(t_demand, 0.0), p.torque_limit)
        return t_dem if t_dem < t_max else t_max


class OpenLoop:
    """Pass the demand straight through (baseline, no slip control)."""

    def __init__(self, params=None):
        self.params = VehicleParams() if params is None else params

    def set_estimate(self, road, lambda_opt, mu_peak):
        """No slip control, so no use for a road estimate."""

    def update(self, v, w, t_applied, t_demand, dt):
        lim = self.params.torque_limit
        return min(max(t_demand, 0.0), lim)
