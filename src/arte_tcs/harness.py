"""Scenario configuration, the simulation loop, and comparison reports.

A scenario wires one controller to the quarter-vehicle plant over a road
schedule. Road estimation can be off, fed the true road (oracle), or run
a trained classifier on the 0.1 s of the run's road audio before each
estimator tick, so misclassification propagates into the torque path.

`run_scenario` plans, runs spans, then derives columns.  The plan depends
on the config alone: the first step of each road segment, and the belief
(road, lambda_opt, mu_peak) formed at each estimator tick -- the oracle's
from the true road's curve, the classifier's from `arte_estimate`.  The
run is cut into spans at those steps; each span is one call of the C
plant kernel (`make_plant_run`, per segment) against the controller's law
(its constants recomputed after `set_estimate` at each tick) and its state
list, which the kernel writes in place, so it ends with the run's state.
The kernel writes V, w, T_cmd, T_applied and mu (at the start state, from
its first RK4 stage) straight into the five numpy columns it is given.
The other columns are derived with the IEEE operations of their per-step
definitions: t = k*dt, Vw = w*r and lambda as `slip_ratio`; the road
columns, int8 indices into `ROADS` with -1 for "no estimate", are held
from the plan's steps.  So every column is bit-identical to what a loop of
single steps would record.  `SimTrace.road_true`/`road_est` decode the
roads to `RoadType`/None and `write_trace_csv` maps them to names.

`write_trace_csv` prints the same bytes as "%.9g" per float cell: the C
kernel (`_kernel.c`, loaded through `vehicle_plant` before the file is
opened, so a missing gcc leaves no file) formats chunks of
TRACE_CHUNK_ROWS rows into one reused buffer, which is written out.

Scenario and curve files are INI files, read by one section reader
(`_read_sections`) and one converter of float fields (`_from_section`);
an unknown section or key is a ConfigError.
"""

import bisect
import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .arte_classifier import SelectionMask, arte_estimate, load_model
from .controllers import (CONTROLLERS, MaxTransmissibleTorque,
                          ModelFollowingControl, OpenLoop, SlipRatioControl)
from .errors import ConfigError
from .robustness import FAMILY_BOXES, nu_gap, plant_family
# class_clip is not called here: bench/layertrace.py looks it up here
from .synth_corpus import SAMPLE_RATE, RoadStream, class_clip
from .tire_road import DEFAULT_CURVES, MuLambdaCurve, RoadType, peak_friction
# plant_step is not called here: bench/layertrace.py looks it up here
from .vehicle_plant import (VehicleParams, _load_kernel, make_plant_run,
                            plant_step)

ARTE_MODES = ("off", "oracle", "classifier")
ARTE_PERIOD_MIN = 0.1
# longest run, in steps: 1000 s at the default dt
MAX_STEPS = 10_000_000

TRACE_HEADER = "t,V,Vw,lambda,T_cmd,T_applied,mu,road_true,road_est"
# rows formatted per write, into one buffer of TRACE_CHUNK_ROWS rows of at
# most _TRACE_ROW_MAX bytes: seven cells of up to 16 bytes and two road
# names of up to 7, each with its separator (CELL_MAX and NAME_SLOT in
# _kernel.c)
TRACE_CHUNK_ROWS = 2048
_TRACE_ROW_MAX = 7 * 17 + 2 * 8

# road index <-> road; index -1 (no estimate) selects the last entry
ROADS = tuple(RoadType)
ROAD_INDEX = {road: k for k, road in enumerate(ROADS)}
NO_ESTIMATE = -1
_ROAD_OBJECTS = np.array(ROADS + (None,), dtype=object)
# by road index + 1: the name in 8 bytes, NUL-padded, "none" (index -1)
# first
_ROAD_NAME_SLOTS = b"".join(name.encode().ljust(8, b"\0") for name in
                            ("none",) + tuple(road.value for road in ROADS))
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
        # run_scenario rounds duration/dt half to even: 0.5 is 0 steps
        if self.duration_s / self.dt <= 0.5:
            raise ConfigError("scenario duration must cover at least one step")
        if self.duration_s / self.dt > MAX_STEPS:
            raise ConfigError("scenario duration must not exceed %d steps"
                              % MAX_STEPS)
        if self.torque_demand < 0.0:
            raise ConfigError("torque demand must be non-negative")
        if self.v0 < 0.0:
            raise ConfigError("initial speed must be non-negative")
        if self.seed < 0:
            raise ConfigError("scenario seed must be non-negative")
        if self.controller not in CONTROLLERS:
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
        return MaxTransmissibleTorque(p, fd_hat0=cfg.fd_hat0)
    return OpenLoop(p)


def _held_column(changes, n):
    """int8 column of road indices from (first step, road index) changes,
    each held until the next; NO_ESTIMATE before the first change."""
    col = np.full(n, NO_ESTIMATE, dtype=np.int8)
    ends = [k for k, _ in changes[1:]] + [n]
    for (lo, index), hi in zip(changes, ends):
        col[lo:hi] = index
    return col


def _first_step(x, n, dt):
    """The first step k in [0, n) with k * dt >= x, else n: the step at
    which a loop testing `k * dt >= x` at each step would first fire."""
    guess = x / dt
    k = max(0, math.ceil(guess)) if guess < n else n
    while k > 0 and (k - 1) * dt >= x:
        k -= 1
    while k < n and k * dt < x:
        k += 1
    return k


def _plan(cfg, n):
    """(segments, beliefs): what a run of n steps does, before it runs.

    `segments` holds (first step, road index) of each schedule entry due
    before step n; of entries due at one step the later wins.  `beliefs`
    maps each estimator tick's first step to the (road, lambda_opt,
    mu_peak) installed there.  `_first_step` searches from 0, yet no two
    ticks share a step and each lies after the last, as in a per-step
    loop: ticks are arte_period_s >= 0.1 s apart, steps at most 5e-3 s.

    The oracle believes the true road at the tick.  The classifier hears
    the run's `RoadStream`, seeded by cfg.seed, whose segments start at
    the first sample at or after each entry's time (of entries due at one
    sample the later wins), and classifies the 0.1 s before the tick's
    step; a window across a switch hears both roads.  Its level rule is
    fixed per road (see `RoadStream`), so no belief depends on audio after
    its tick: changing the schedule after a time changes no belief
    installed at or before it.
    """
    dt, sched = cfg.dt, cfg.road_schedule
    starts = {_first_step(t, n, dt): ROAD_INDEX[road] for t, road in sched}
    starts.pop(n, None)
    beliefs = {}
    if cfg.arte_mode == "classifier":
        model = load_model(cfg.model_path)
        mask = SelectionMask(indices=model.mask_indices)
        # sample j is heard at j * h; m samples reach past the last step
        h = 1.0 / SAMPLE_RATE
        m = math.ceil(n * dt / h) + 1
        audio = {_first_step(t, m, h): road for t, road in sched}
        audio.pop(m, None)
        stream = RoadStream(audio.items(), cfg.seed)
    next_arte = math.inf if cfg.arte_mode == "off" else 0.0
    while (k := _first_step(next_arte - 1e-12, n, dt)) < n:
        if cfg.arte_mode == "oracle":
            # the true road at step k: the last entry with t <= k*dt
            road = sched[bisect.bisect_right(sched, k * dt,
                                             key=lambda e: e[0]) - 1][1]
            beliefs[k] = (road,) + peak_friction(DEFAULT_CURVES[road])
        else:
            window = stream.window(_first_step(k * dt, m, h))
            beliefs[k] = arte_estimate(model, mask, window)
        next_arte += cfg.arte_period_s
    return list(starts.items()), beliefs


def run_scenario(cfg):
    cfg.validate()
    p, dt = cfg.params, cfg.dt
    ctrl = _build_controller(cfg)
    n_steps = int(round(cfg.duration_s / dt))
    segments, beliefs = _plan(cfg, n_steps)
    roads = dict(segments)
    bounds = sorted(roads.keys() | beliefs.keys()) + [n_steps]

    columns = [np.empty(n_steps) for _ in range(5)]
    v_arr, w_arr, cmd_arr, app_arr, mu_arr = columns
    pointers = [col.ctypes.data for col in columns]
    x = cfg.v0, cfg.v0 / p.r, 0.0  # the plant state (v, w, t_applied)
    law = ctrl.law(dt, cfg.torque_demand)
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in roads:
            run = make_plant_run(DEFAULT_CURVES[ROADS[roads[lo]]], p, dt)
        if lo in beliefs:
            ctrl.set_estimate(*beliefs[lo])
            law = ctrl.law(dt, cfg.torque_demand)
        x = run(law, ctrl.state, *x, lo, hi, pointers)

    # derived columns, each with the operations of its per-step definition
    vw_arr = w_arr * p.r
    denom = np.maximum(np.where(vw_arr > v_arr, vw_arr, v_arr), 0.1)
    lam_arr = (vw_arr - v_arr) / denom  # slip_ratio
    return SimTrace(t=np.arange(n_steps) * dt, v=v_arr, vw=vw_arr,
                    lam=lam_arr, t_cmd=cmd_arr, t_applied=app_arr, mu=mu_arr,
                    road_true_idx=_held_column(segments, n_steps),
                    road_est_idx=_held_column(
                        [(k, ROAD_INDEX[b[0]]) for k, b in beliefs.items()],
                        n_steps))


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
    """Cross-product of controllers and estimation modes, same scenario.

    Every row's config is checked and its controller built before the
    first row runs, so a row that cannot run fails before any work."""
    cfgs = [replace(base_cfg, controller=tag, arte_mode=mode)
            for tag in tcs_list for mode in arte_modes]
    for cfg in cfgs:
        _build_controller(cfg.validate())
    rows = []
    for cfg in cfgs:
        tag, mode = cfg.controller, cfg.arte_mode
        trace = run_scenario(cfg)
        gap = (nu_gap(*plant_family(tag, cfg.params, arte_on=mode != "off"))
               if tag in FAMILY_BOXES else None)
        rows.append((tag, mode, metrics(trace, gap=gap)))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def write_trace_csv(path, trace):
    """The trace as CSV: TRACE_HEADER, then per step seven "%.9g" cells
    and the true and estimated road names.  OSError naming gcc, and no
    file, if the kernel cannot be built."""
    kernel = _load_kernel()
    columns = [np.ascontiguousarray(col, dtype=np.float64) for col in (
        trace.t, trace.v, trace.vw, trace.lam, trace.t_cmd,
        trace.t_applied, trace.mu)]
    roads = [np.ascontiguousarray(idx, dtype=np.int8)
             for idx in (trace.road_true_idx, trace.road_est_idx)]
    rows = len(columns[0])
    if any(len(col) != rows for col in columns + roads):
        raise ValueError("trace columns differ in length")
    if rows and any(idx.min() < NO_ESTIMATE or idx.max() >= len(ROADS)
                    for idx in roads):
        raise ValueError("trace road index out of range")
    cells = np.array([col.ctypes.data for col in columns], dtype=np.uintp)
    out = np.empty(min(rows, TRACE_CHUNK_ROWS) * _TRACE_ROW_MAX, np.uint8)
    sources = (cells.ctypes.data, roads[0].ctypes.data, roads[1].ctypes.data,
               _ROAD_NAME_SLOTS)
    with open(path, "wb") as fh:
        fh.write(TRACE_HEADER.encode() + b"\n")
        for lo in range(0, rows, TRACE_CHUNK_ROWS):
            size = kernel.trace_rows(*sources, lo,
                                     min(lo + TRACE_CHUNK_ROWS, rows),
                                     out.ctypes.data)
            fh.write(out[:size])


def compare_lines(rows):
    lines = ["controller,arte_mode,slip_deviation,max_torque,"
             "torque_area,gap"]
    for tag, mode, rep in rows:
        gap = "" if rep.gap is None else "%.9g" % rep.gap.value
        lines.append("%s,%s,%.9g,%.9g,%.9g,%s" % (
            tag, mode, rep.slip_deviation, rep.max_torque,
            rep.torque_area, gap))
    return lines


def _number(convert, section, key, text):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError("[%s] %s = %r is not a number"
                          % (section, key, text)) from None


def _read_sections(path):
    """{section: {key: text}} of an INI file, its values read literally.
    OSError if the file cannot be read; ConfigError if configparser cannot
    parse it, or it has keys under [DEFAULT] (merged into every section)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from None
    if parser.defaults():
        raise ConfigError("%s: keys under [DEFAULT] are not allowed" % path)
    return {name: dict(parser[name]) for name in parser.sections()}


def _from_section(cls, section, keys):
    """A `cls` from one section's keys, each a float field of it; a field
    without a default is required."""
    values = {}
    for f in fields(cls):
        if f.name in keys:
            values[f.name] = _number(float, section, f.name, keys[f.name])
        elif f.default is MISSING:
            raise ConfigError("[%s] missing key %r" % (section, f.name))
    unknown = [key for key in keys if key not in values]
    if unknown:
        raise ConfigError("[%s] unknown key %r" % (section, unknown[0]))
    return cls(**values)


def load_curve_overrides(path):
    """Road -> curve from an INI file of [road] sections with keys b, c, d
    and e: the default curves with the file's roads replaced. Two sections
    naming one road ([snow], [Snow]) are a ConfigError."""
    out = dict(DEFAULT_CURVES)
    seen = {}
    for section, keys in _read_sections(path).items():
        road = RoadType.from_name(section)
        if road in seen:
            raise ConfigError("sections [%s] and [%s] both name road %r"
                              % (seen[road], section, road.value))
        seen[road] = section
        out[road] = _from_section(MuLambdaCurve, section, keys).validate()
    return out


def load_scenario(path):
    """Scenario from a key = value file; see ScenarioConfig for defaults."""
    sections = _read_sections(path)
    for name in sections:
        if name not in ("scenario", "schedule", "vehicle"):
            raise ConfigError("unknown scenario section [%s]" % name)
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
            raise ConfigError("[scenario] unknown key %r" % key)
    if "schedule" in sections:
        kwargs["road_schedule"] = tuple(sorted(
            ((_number(float, "schedule", t, t), RoadType.from_name(road))
             for t, road in sections["schedule"].items()),
            key=lambda entry: entry[0]))
    if "vehicle" in sections:
        kwargs["params"] = _from_section(VehicleParams, "vehicle",
                                         sections["vehicle"])
    return ScenarioConfig(**kwargs).validate()
