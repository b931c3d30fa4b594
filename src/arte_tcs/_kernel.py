"""The Python side of `_kernel.c`, the one C library of the package: its
build, its load, and its five entries, typed -- the plant span and one
law step (for `vehicle_plant`), the trace CSV's rows (`harness`), and the
road audio's AR filter and LPC's Levinson solve, wrapped here as
`ar_filter` and `levinson` (`synth_corpus`, `arte_dsp`).

`load()` builds the library with gcc (`KERNEL_CFLAGS`) on its first call,
never at import, into `__pycache__/_kernel-<digest>.so` beside this file
(digest of source, flags and machine; other builds there are removed),
or a temporary directory if that one cannot be written, and loads it
through ctypes; a lock makes it one build and one load per process,
however many threads ask at once.  Without gcc, or if the build fails,
it raises OSError naming gcc (exit 4 at the CLI).
"""

import os
import threading

import numpy as np

from .errors import ConfigError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
KERNEL_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# built libraries, one per digest of source, flags and machine (a
# temporary directory stands in if this one cannot be written)
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_loaded = None  # the loaded library, once the first load() has built it
_lock = threading.Lock()  # held while the library is built and loaded


class _Kernel:
    """The loaded library and its five entries, typed.  Every entry works
    on buffers its caller owns and calls no Python, and ctypes releases
    the GIL for each call, so calls from several threads run at once."""

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
        # the most taps of a filter (and Levinson equations), and the most
        # bytes of a trace cell and of a road name, separator included
        self.max_taps = size.in_dll(lib, "arte_max_taps").value
        self.cell_max = size.in_dll(lib, "arte_cell_max").value
        self.name_slot = size.in_dll(lib, "arte_name_slot").value
        self.double = ctypes.c_double


def _build(source, path):
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


def load():
    """The library, built on the first call of the process (into
    `_CACHE_DIR`, unless a build of this source is there) and loaded under
    `_lock`, so threads that ask at once share one build."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = _Kernel(_path())
    return _loaded


def _path():
    """The path of the library built from `_SOURCE`, built there first if
    it is not."""
    import contextlib
    import glob
    import hashlib
    import platform

    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(" ".join(KERNEL_CFLAGS).encode() + b"\0"
               + platform.machine().encode())
    name = "_kernel-%s.so" % key.hexdigest()
    path = os.path.join(_CACHE_DIR, name)
    if not os.path.exists(path):
        directory = _CACHE_DIR
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
        _build(_SOURCE, path)
        # drop other sources' builds (a process that loaded one keeps it)
        stale = glob.glob(os.path.join(glob.escape(directory), "_kernel-*.so"))
        for old in set(stale) - {path}:
            with contextlib.suppress(OSError):
                os.remove(old)
    return path


def ar_filter(gain, den, x, z):
    """scipy's lfilter([gain], den, x, zi=z) in place, bit for bit
    (`arte_ar_filter`): den, x and z are contiguous float64 arrays, and x
    and z become the output and the final state.  ConfigError for a filter
    beyond the kernel's bound or a state of the wrong length."""
    kernel = load()
    if not 1 < len(den) <= kernel.max_taps or len(z) != len(den) - 1:
        raise ConfigError("an AR filter takes 2 to %d taps and one state "
                          "value fewer" % kernel.max_taps)
    if kernel.ar_filter(gain, den.ctypes.data, len(den), x.ctypes.data,
                        len(x), z.ctypes.data):
        raise ConfigError("an AR filter needs a[0] not 0")


def levinson(r, order):
    """The x with T x = r[1:order + 1], T the symmetric Toeplitz matrix of
    r[:order], r a float64 array: `arte_levinson`, Durbin's symmetric form
    of the recursion in scipy's `solve_toeplitz`, bit for bit.  ConfigError
    for an order beyond the kernel's bound or a singular principal minor."""
    kernel = load()
    if not 0 < order <= kernel.max_taps or len(r) <= order:
        raise ConfigError("Levinson takes 1 to %d equations and their "
                          "right-hand side" % kernel.max_taps)
    x = np.empty(order)
    if kernel.levinson(r.ctypes.data, order, x.ctypes.data):
        raise ConfigError("LPC normal equations have a singular principal "
                          "minor")
    return x
