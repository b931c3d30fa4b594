"""Scenario configuration, the simulation loop, and comparison reports.

A scenario wires one controller to the quarter-vehicle plant over a road
schedule. Road estimation can be off, fed the true road (oracle), or run
a trained classifier on per-window synthetic audio so misclassification
propagates into the torque path.
"""

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arte_classifier import SelectionMask, arte_estimate, load_model
from .arte_dsp import AudioClip, frame_length
from .controllers import (MaxTransmissibleTorque, ModelFollowingControl,
                          OpenLoop, SlipRatioControl)
from .errors import ConfigError, SimulationDiverged
from .robustness import nu_gap, plant_family
from .synth_corpus import class_clip
from .tire_road import DEFAULT_CURVES, RoadType, peak_friction
from .vehicle_plant import VehicleParams, plant_step, slip_ratio

CONTROLLER_TAGS = ("mfc", "src", "mtte", "open")
ARTE_MODES = ("off", "oracle", "classifier")
ARTE_PERIOD_MIN = 0.1

# surface-matched relaxation: the slipperier the surface, the closer the
# torque bound tracks the estimated transferable force
ALPHA_BY_ROAD = {
    RoadType.ASPHALT: 0.75,
    RoadType.STONE: 0.80,
    RoadType.GRAVEL: 0.85,
    RoadType.SNOW: 0.90,
}

TRACE_HEADER = "t,V,Vw,lambda,T_cmd,T_applied,mu,road_true,road_est"
SCENARIO_FLOAT_KEYS = ("duration_s", "dt", "torque_demand", "arte_period_s",
                       "v0", "fd_hat0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Defaults describe the snow-launch benchmark."""

    duration_s: float = 8.0
    dt: float = 1e-4
    torque_demand: float = 400.0
    road_schedule: tuple = ((0.0, RoadType.SNOW),)
    controller: str = "mtte"
    arte_mode: str = "off"
    arte_period_s: float = 0.1
    seed: int = 0
    v0: float = 1.0
    fd_hat0: float = 3000.0
    model_path: str = None
    params: VehicleParams = field(default_factory=VehicleParams)

    def validate(self):
        for name in SCENARIO_FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("scenario %s must be finite" % name)
        if self.duration_s <= 0.0:
            raise ConfigError("scenario duration must be positive")
        if not 0.0 < self.dt <= 5e-3:
            raise ConfigError("scenario dt must lie in (0, 5e-3] s")
        if self.torque_demand < 0.0:
            raise ConfigError("torque demand must be non-negative")
        if self.v0 < 0.0:
            raise ConfigError("initial speed must be non-negative")
        if self.seed < 0:
            raise ConfigError("scenario seed must be non-negative")
        if self.controller not in CONTROLLER_TAGS:
            raise ConfigError("unknown controller %r" % (self.controller,))
        if self.arte_mode not in ARTE_MODES:
            raise ConfigError("unknown arte mode %r" % (self.arte_mode,))
        if self.arte_period_s < ARTE_PERIOD_MIN:
            raise ConfigError("estimation period must be at least 0.1 s")
        if self.arte_mode == "classifier" and not self.model_path:
            raise ConfigError("classifier mode needs a model path")
        sched = tuple(self.road_schedule)
        if not sched:
            raise ConfigError("road schedule must not be empty")
        if sched[0][0] != 0.0:
            raise ConfigError("road schedule must start at t = 0")
        times = [t for t, _ in sched]
        if not all(math.isfinite(t) for t in times):
            raise ConfigError("road schedule times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("road schedule times must strictly increase")
        for _, road in sched:
            if not isinstance(road, RoadType):
                raise ConfigError("schedule entries must name road types")
        self.params.validate()
        return self


@dataclass
class SimTrace:
    t: np.ndarray
    v: np.ndarray
    vw: np.ndarray
    lam: np.ndarray
    t_cmd: np.ndarray
    t_applied: np.ndarray
    mu: np.ndarray
    road_true: list
    road_est: list
    dt: float


@dataclass(frozen=True)
class MetricsReport:
    slip_deviation: float
    max_torque: float
    torque_area: float
    gap: object = None


def _build_controller(cfg):
    p = cfg.params
    if cfg.controller == "mfc":
        ctrl = ModelFollowingControl(p)
        ctrl.reset(w0=cfg.v0 / p.r)
        return ctrl
    if cfg.controller == "src":
        return SlipRatioControl(p)
    if cfg.controller == "mtte":
        ctrl = MaxTransmissibleTorque(p)
        ctrl.reset(fd_hat0=cfg.fd_hat0)
        return ctrl
    return OpenLoop(p)


def _apply_estimate(ctrl, cfg, road):
    lam, mu = peak_friction(road)
    if cfg.controller == "mfc":
        ctrl.set_slip_estimate(lam)
    elif cfg.controller == "src":
        ctrl.set_reference(lam, mu)
    elif cfg.controller == "mtte":
        ctrl.set_road_estimate(ALPHA_BY_ROAD[road],
                               mu * cfg.params.normal_load())


def _classifier_window(road, cfg, invocation):
    clip = class_clip(road, seed=cfg.seed * 1000 + invocation,
                      duration_s=0.5)
    n = frame_length(clip.sample_rate)
    return AudioClip(samples=clip.samples[:n], sample_rate=clip.sample_rate)


def run_scenario(cfg):
    cfg.validate()
    p = cfg.params
    ctrl = _build_controller(cfg)
    model = mask = None
    if cfg.arte_mode == "classifier":
        model = load_model(cfg.model_path)
        mask = SelectionMask(indices=model.mask_indices)

    sched = tuple(cfg.road_schedule)
    n_steps = int(round(cfg.duration_s / cfg.dt))
    t_arr = np.empty(n_steps)
    v_arr = np.empty(n_steps)
    vw_arr = np.empty(n_steps)
    lam_arr = np.empty(n_steps)
    cmd_arr = np.empty(n_steps)
    app_arr = np.empty(n_steps)
    mu_arr = np.empty(n_steps)
    road_true, road_est = [], []

    v, w, t_applied = cfg.v0, cfg.v0 / p.r, 0.0
    sched_i = 0
    next_arte = 0.0
    invocation = 0
    estimate = None
    for k in range(n_steps):
        t = k * cfg.dt
        while sched_i + 1 < len(sched) and t >= sched[sched_i + 1][0]:
            sched_i += 1
        road = sched[sched_i][1]

        if cfg.arte_mode != "off" and t >= next_arte - 1e-12:
            if cfg.arte_mode == "oracle":
                estimate = road
            else:
                window = _classifier_window(road, cfg, invocation)
                estimate, _, _ = arte_estimate(model, mask, window)
            _apply_estimate(ctrl, cfg, estimate)
            invocation += 1
            next_arte += cfg.arte_period_s

        lam = slip_ratio(v, w, p.r)
        curve = DEFAULT_CURVES[road]
        t_cmd = ctrl.update(v, w, t_applied, cfg.torque_demand, cfg.dt)

        t_arr[k] = t
        v_arr[k] = v
        vw_arr[k] = w * p.r
        lam_arr[k] = lam
        cmd_arr[k] = t_cmd
        app_arr[k] = t_applied
        mu_arr[k] = curve.mu_scalar(lam)
        road_true.append(road)
        road_est.append(estimate)

        try:
            v, w, t_applied = plant_step(v, w, t_applied, t_cmd, cfg.dt,
                                         curve, p)
        except SimulationDiverged as exc:
            raise SimulationDiverged(str(exc), t=t, step=k) from exc

    return SimTrace(t=t_arr, v=v_arr, vw=vw_arr, lam=lam_arr, t_cmd=cmd_arr,
                    t_applied=app_arr, mu=mu_arr, road_true=road_true,
                    road_est=road_est, dt=cfg.dt)


def slip_deviation(trace):
    """Time-averaged |slip|."""
    if len(trace.t) == 0:
        raise ConfigError("empty trace")
    return float(np.mean(np.abs(trace.lam)))


def max_torque(trace):
    if len(trace.t) == 0:
        raise ConfigError("empty trace")
    return float(np.max(trace.t_applied))


def torque_area(trace):
    """Mean applied torque; normalizing by duration removes its units."""
    if len(trace.t) == 0:
        raise ConfigError("empty trace")
    return float(np.mean(trace.t_applied))


def metrics(trace, gap=None):
    return MetricsReport(slip_deviation=slip_deviation(trace),
                         max_torque=max_torque(trace),
                         torque_area=torque_area(trace),
                         gap=gap)


def compare(tcs_list, arte_modes, base_cfg):
    """Cross-product of controllers and estimation modes, same scenario."""
    rows = []
    for tag in tcs_list:
        for mode in arte_modes:
            cfg = replace(base_cfg, controller=tag, arte_mode=mode)
            trace = run_scenario(cfg)
            gap = None
            if tag in ("mfc", "src", "mtte"):
                nominal, worst = plant_family(tag, cfg.params,
                                              arte_on=(mode != "off"))
                gap = nu_gap(nominal, worst)
            rows.append((tag, mode, metrics(trace, gap=gap)))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for k in range(len(trace.t)):
            est = trace.road_est[k]
            fh.write("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s\n" % (
                trace.t[k], trace.v[k], trace.vw[k], trace.lam[k],
                trace.t_cmd[k], trace.t_applied[k], trace.mu[k],
                trace.road_true[k].value,
                "none" if est is None else est.value))


def compare_lines(rows):
    lines = ["controller,arte_mode,slip_deviation,max_torque,"
             "torque_area,gap"]
    for tag, mode, rep in rows:
        gap = "" if rep.gap is None else "%.9g" % rep.gap.value
        lines.append("%s,%s,%.9g,%.9g,%.9g,%s" % (
            tag, mode, rep.slip_deviation, rep.max_torque,
            rep.torque_area, gap))
    return lines


def write_compare_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(compare_lines(rows)) + "\n")


def _number(convert, section, key, text):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError("[%s] %s = %r is not a number"
                          % (section, key, text)) from None


def load_scenario(path):
    """Scenario from a key = value file; see ScenarioConfig for defaults."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse scenario file %s: %s"
                          % (path, exc)) from None
    kwargs = {}
    for key, text in sections.get("scenario", {}).items():
        if key in SCENARIO_FLOAT_KEYS:
            kwargs[key] = _number(float, "scenario", key, text)
        elif key == "seed":
            kwargs[key] = _number(int, "scenario", key, text)
        elif key in ("controller", "arte_mode"):
            kwargs[key] = text.strip().lower()
        elif key == "model":
            kwargs["model_path"] = text.strip()
        else:
            raise ConfigError("unknown scenario key %r" % key)
    if "schedule" in sections:
        entries = [(_number(float, "schedule", t, t),
                    RoadType.from_name(road))
                   for t, road in sections["schedule"].items()]
        entries.sort(key=lambda item: item[0])
        kwargs["road_schedule"] = tuple(entries)
    if "vehicle" in sections:
        fields = {key: _number(float, "vehicle", key, text)
                  for key, text in sections["vehicle"].items()}
        try:
            kwargs["params"] = replace(VehicleParams(), **fields)
        except TypeError as exc:
            raise ConfigError("unknown vehicle parameter") from exc
    return ScenarioConfig(**kwargs).validate()
