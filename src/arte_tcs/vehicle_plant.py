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
coefficients, the torque limit and the lag decay are bound once (and
kept per curve, vehicle and step size).  The kernel is C, `_kernel.c`,
and owns the step loop: one call runs a span of steps against a
controller law, given as its kind (constant command, MFC, SRC or MTTE),
its constants and its state, and writes the state, the command and mu
at the start state (which its first RK4 stage computes anyway) to the
trace columns, and names the step at which a run diverges.  The
right-hand side inlines `slip_ratio`, `mu_scalar`, `drive_force` and
`driving_resistance` with the same IEEE operations in the same order
(the same libm atan and sin, no fused multiply-add), so its results are
bit-identical to theirs.  `law_step` runs a law alone for one step, and
`plant_step` is a one-step call of the kernel at a constant command.  The
same library formats the trace CSV's rows for `harness.write_trace_csv`
(`arte_trace_rows`), runs the road audio's AR filter for `synth_corpus`
(`arte_ar_filter`, scipy's lfilter bit for bit) and solves the LPC
normal equations for `arte_dsp` (`arte_levinson`, Durbin's recursion: the
Levinson recursion of scipy's solve_toeplitz in its symmetric form, where
the forward, backward and solution vectors are one, bit for bit).

The kernel is built with gcc (`KERNEL_CFLAGS`) on the first call that
needs it, never at import, into `__pycache__/_kernel-<digest>.so` beside
this file (digest of source, flags and machine; other builds there are
removed), or a temporary directory if that one cannot be written, and
loaded through ctypes.  Without gcc, or if the build fails, the call
raises OSError naming gcc (exit 4 at the CLI).
"""

import math
import os
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


# the law kinds of the C kernel: a constant command and the three laws
LAW_CONSTANT, LAW_MFC, LAW_SRC, LAW_MTTE = range(4)
_DIVERGED = ("non-finite state or command entering step",
             "state became non-finite during step")
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "_kernel.c")
KERNEL_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# where built kernels are kept, one file per digest of source, flags and
# machine; a temporary directory stands in if this one cannot be written
_KERNEL_DIR = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__")
_kernel = None  # the loaded kernel, once the first call has built it
_plants = {}  # (id(curve), id(params), dt) -> (curve, params, constants)


class _Kernel:
    """The loaded library, its five entries typed, and the argument
    buffers that every call fills: the package runs one thread, and no
    entry calls back into Python, so one set serves all calls."""

    def __init__(self, path):
        import ctypes

        lib = ctypes.CDLL(path)
        doubles = ctypes.POINTER(ctypes.c_double)
        self.run_span = lib.arte_run_span
        self.run_span.argtypes = ((doubles, ctypes.c_int, doubles, doubles,
                                   doubles, ctypes.c_longlong,
                                   ctypes.c_longlong)
                                  + (ctypes.c_void_p,) * 5)
        self.run_span.restype = ctypes.c_longlong
        self.law_step = lib.arte_law_step
        self.law_step.argtypes = (ctypes.c_int, doubles, doubles,
                                  ctypes.c_double, ctypes.c_double,
                                  ctypes.c_double)
        self.law_step.restype = ctypes.c_double
        self.trace_rows = lib.arte_trace_rows
        self.trace_rows.argtypes = ((ctypes.c_void_p,) * 3
                                    + (ctypes.c_char_p, ctypes.c_longlong,
                                       ctypes.c_longlong, ctypes.c_void_p))
        self.trace_rows.restype = ctypes.c_longlong
        address, size = ctypes.c_void_p, ctypes.c_int
        self.ar_filter = lib.arte_ar_filter
        self.ar_filter.argtypes = (ctypes.c_double, address, size, address,
                                   ctypes.c_longlong, address)
        self.ar_filter.restype = ctypes.c_int
        self.levinson = lib.arte_levinson
        self.levinson.argtypes = (address, size, address)
        self.levinson.restype = ctypes.c_int
        # the most taps of a filter, and the largest Levinson system
        self.max_taps = size.in_dll(lib, "arte_max_taps").value
        self.double = ctypes.c_double
        # a law's constants (at most 8) and state (at most 3), and the
        # plant state (v, w, t_applied)
        self.constants = (ctypes.c_double * 8)()
        self.state = (ctypes.c_double * 3)()
        self.x = (ctypes.c_double * 3)()
        # plant_step's one-step records, written and never read
        self._sink = ctypes.c_double()
        self.sink = ctypes.addressof(self._sink)


def _build_kernel(source, path):
    """Compile `source` to `path` with gcc, through a temporary file in
    the same directory that replaces `path` whole, so that two processes
    building at once each load a complete library."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=".kernel-", suffix=".tmp")
    os.close(fd)
    try:
        try:
            out = subprocess.run(
                ["gcc", *KERNEL_CFLAGS, "-o", tmp, source, "-lm"],
                capture_output=True, text=True)
        except FileNotFoundError:
            raise OSError("cannot build the compiled kernel: gcc is not "
                          "on PATH") from None
        if out.returncode != 0:
            first = (out.stderr.strip().splitlines() or ["no message"])[0]
            raise OSError("gcc failed to build the compiled kernel %s: %s"
                          % (source, first))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_kernel():
    """The kernel library, built on the first call of the process (into
    `_KERNEL_DIR`, unless a build for this source is there) and loaded.
    OSError naming gcc if it cannot be built."""
    global _kernel
    if _kernel is not None:
        return _kernel
    import contextlib
    import glob
    import hashlib
    import platform

    with open(_KERNEL_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(" ".join(KERNEL_CFLAGS).encode() + b"\0"
               + platform.machine().encode())
    name = "_kernel-%s.so" % key.hexdigest()
    path = os.path.join(_KERNEL_DIR, name)
    if not os.path.exists(path):
        directory = _KERNEL_DIR
        try:
            os.makedirs(directory, exist_ok=True)
            writable = os.access(directory, os.W_OK | os.X_OK)
        except OSError:
            writable = False
        if not writable:
            import atexit
            import shutil
            import tempfile

            directory = tempfile.mkdtemp(prefix="arte_tcs-kernel-")
            atexit.register(shutil.rmtree, directory, True)
        path = os.path.join(directory, name)
        _build_kernel(_KERNEL_SOURCE, path)
        # drop the builds of other sources (a process that has loaded one
        # keeps it)
        stale = glob.glob(os.path.join(glob.escape(directory), "_kernel-*.so"))
        for old in set(stale) - {path}:
            with contextlib.suppress(OSError):
                os.remove(old)
    _kernel = _Kernel(path)
    return _kernel


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
    order, so it is bit-identical to them.  The plant constants are kept
    per (curve, params) object and dt, for the next call.
    """
    if not 0.0 < dt <= 5e-3:
        raise ConfigError("plant step size must lie in (0, 5e-3] s")
    kernel = _kernel or _load_kernel()
    double = kernel.double
    key = (id(curve), id(params), dt)
    entry = _plants.get(key)
    if entry is None:
        values = (curve.b, curve.c, curve.d, curve.e, params.r,
                  params.m_vehicle, params.jw, params.normal_load(),
                  params.mu_roll * params.m_vehicle * params.g,
                  0.5 * params.rho_air * params.cda, params.torque_limit,
                  # exact first-order lag at the half and full step
                  math.exp(-0.5 * dt / params.tau_motor),
                  0.5 * dt, dt / 6.0, dt)
        if len(_plants) >= 64:
            _plants.clear()
        # the entry holds curve and params, so their ids stay theirs
        entry = _plants[key] = (curve, params,
                                (double * len(values))(*values))
    plant = entry[2]
    run_span = kernel.run_span
    buffer, held, x = kernel.constants, kernel.state, kernel.x

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
    kernel = _kernel or _load_kernel()
    kind, constants = law
    kernel.constants[:len(constants)] = constants
    held = kernel.state
    held[:len(state)] = state
    t_cmd = kernel.law_step(kind, kernel.constants, held, v, w, t_applied)
    state[:] = held[:len(state)]
    return t_cmd


def plant_step(v, w, t_applied, t_cmd, dt, curve, params):
    """Advance one step at the command t_cmd, as given (the kernel
    clamps it and checks it is finite); returns (v, w, t_applied) at
    t + dt."""
    run = make_plant_run(curve, params, dt)
    return run((LAW_CONSTANT, (t_cmd,)), [], v, w, t_applied, 0, 1,
               (_kernel.sink,) * 5)
