"""Scenario configuration, the simulation loop, and comparison reports.

A scenario wires one controller to the quarter-vehicle plant over a road
schedule. Road estimation can be off, fed the true road (oracle), or run
a trained classifier on per-window synthetic audio so misclassification
propagates into the torque path.

`run_scenario`'s step loop keeps only what feeds back into the dynamics:
it records V, w, T_cmd and T_applied per step, and the steps at which the
true road or the estimate changes.  The other trace columns are derived
after the loop with the same IEEE operations as their per-step
definitions: t = k*dt, Vw = w*r, lambda as `slip_ratio`, and mu by
mapping the true road's `mu_scalar` over each road segment, so every
column is bit-identical to what a per-step recording would hold.  The road
columns are int8 indices into `ROADS`, with -1 for "no estimate";
`SimTrace.road_true`/`road_est` decode them to `RoadType`/None and
`write_trace_csv` maps them to names.
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
from .vehicle_plant import VehicleParams, plant_step

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
TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s\n"
# rows formatted per write: bounds the writer's temporary Python objects
TRACE_CHUNK_ROWS = 4096

# road index <-> road; index -1 (no estimate) selects the last entry
ROADS = tuple(RoadType)
ROAD_INDEX = {road: k for k, road in enumerate(ROADS)}
NO_ESTIMATE = -1
_ROAD_OBJECTS = np.array(ROADS + (None,), dtype=object)
_ROAD_NAMES = tuple(road.value for road in ROADS) + ("none",)
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
    """Per-step columns; the roads as int8 indices into `ROADS`."""

    t: np.ndarray
    v: np.ndarray
    vw: np.ndarray
    lam: np.ndarray
    t_cmd: np.ndarray
    t_applied: np.ndarray
    mu: np.ndarray
    road_true_idx: np.ndarray
    road_est_idx: np.ndarray  # NO_ESTIMATE where the estimator is off
    dt: float

    @property
    def road_true(self):
        return _ROAD_OBJECTS[self.road_true_idx].tolist()

    @property
    def road_est(self):
        return _ROAD_OBJECTS[self.road_est_idx].tolist()


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


def _spans(changes, n):
    """(first step, end step, value) of each (step, value) change, held
    until the next change or step n."""
    ends = [k for k, _ in changes[1:]] + [n]
    return [(lo, hi, value) for (lo, value), hi in zip(changes, ends)]


def _held_column(changes, n):
    """int8 column of road indices; NO_ESTIMATE before the first change."""
    col = np.full(n, NO_ESTIMATE, dtype=np.int8)
    for lo, hi, index in _spans(changes, n):
        col[lo:hi] = index
    return col


def run_scenario(cfg):
    cfg.validate()
    p = cfg.params
    ctrl = _build_controller(cfg)
    model = mask = None
    if cfg.arte_mode == "classifier":
        model = load_model(cfg.model_path)
        mask = SelectionMask(indices=model.mask_indices)

    sched = tuple(cfg.road_schedule)
    dt = cfg.dt
    n_steps = int(round(cfg.duration_s / dt))
    v_arr = np.empty(n_steps)
    w_arr = np.empty(n_steps)
    cmd_arr = np.empty(n_steps)
    app_arr = np.empty(n_steps)
    segments = []  # (first step, road index) of each schedule entry
    estimates = []  # (first step, road index) of each installed estimate

    v, w, t_applied = cfg.v0, cfg.v0 / p.r, 0.0
    sched_i = -1
    next_switch = 0.0
    next_arte = 0.0
    arte_due = -1e-12 if cfg.arte_mode != "off" else math.inf
    invocation = 0
    for k in range(n_steps):
        t = k * dt
        if t >= next_switch:
            while sched_i + 1 < len(sched) and t >= sched[sched_i + 1][0]:
                sched_i += 1
            road = sched[sched_i][1]
            curve = DEFAULT_CURVES[road]
            segments.append((k, ROAD_INDEX[road]))
            next_switch = (sched[sched_i + 1][0] if sched_i + 1 < len(sched)
                           else math.inf)

        if t >= arte_due:
            if cfg.arte_mode == "oracle":
                estimate = road
            else:
                window = _classifier_window(road, cfg, invocation)
                estimate, _, _ = arte_estimate(model, mask, window)
            _apply_estimate(ctrl, cfg, estimate)
            estimates.append((k, ROAD_INDEX[estimate]))
            invocation += 1
            next_arte += cfg.arte_period_s
            arte_due = next_arte - 1e-12

        t_cmd = ctrl.update(v, w, t_applied, cfg.torque_demand, dt)
        v_arr[k] = v
        w_arr[k] = w
        cmd_arr[k] = t_cmd
        app_arr[k] = t_applied

        try:
            v, w, t_applied = plant_step(v, w, t_applied, t_cmd, dt,
                                         curve, p)
        except SimulationDiverged as exc:
            raise SimulationDiverged(str(exc), t=t, step=k) from exc

    # derived columns, each with the operations of its per-step definition
    vw_arr = w_arr * p.r
    denom = np.maximum(np.where(vw_arr > v_arr, vw_arr, v_arr), 0.1)
    lam_arr = (vw_arr - v_arr) / denom  # slip_ratio
    # mu_scalar, not the vectorized mu: np.arctan is not libm's atan, and
    # the recorded mu would move by up to several ulp
    mu_arr = np.empty(n_steps)
    for lo, hi, index in _spans(segments, n_steps):
        mu_scalar = DEFAULT_CURVES[ROADS[index]].mu_scalar
        mu_arr[lo:hi] = np.fromiter(map(mu_scalar, lam_arr[lo:hi].tolist()),
                                    float, hi - lo)
    return SimTrace(t=np.arange(n_steps) * dt, v=v_arr, vw=vw_arr,
                    lam=lam_arr, t_cmd=cmd_arr, t_applied=app_arr, mu=mu_arr,
                    road_true_idx=_held_column(segments, n_steps),
                    road_est_idx=_held_column(estimates, n_steps), dt=dt)


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
    columns = (trace.t, trace.v, trace.vw, trace.lam, trace.t_cmd,
               trace.t_applied, trace.mu)
    roads = (trace.road_true_idx, trace.road_est_idx)
    names = _ROAD_NAMES.__getitem__
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for lo in range(0, len(trace.t), TRACE_CHUNK_ROWS):
            part = slice(lo, lo + TRACE_CHUNK_ROWS)
            cells = [col[part].tolist() for col in columns]
            cells += [map(names, col[part].tolist()) for col in roads]
            fh.write("".join(map(TRACE_ROW.__mod__, zip(*cells))))


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
