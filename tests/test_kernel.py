"""The C library's build and load (`arte_tcs._kernel`), and the package's
structure around it: the library has one Python home, which every other
module reaches through its public names."""

import ast
import glob
import os
import subprocess
import sys
import threading

import pytest

import arte_tcs
import arte_tcs._kernel as _kernel
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType
from arte_tcs.vehicle_plant import VehicleParams, plant_step

P = VehicleParams()
PACKAGE = os.path.dirname(os.path.abspath(arte_tcs.__file__))


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), env.get("PYTHONPATH")) if p)
    return env


def test_no_module_imports_a_private_name_of_a_sibling():
    private = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            # `from .x import _y`; `from . import _x` names a module
            if (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level or node.module.startswith("arte_tcs"))):
                private += ["%s: %s.%s" % (os.path.basename(path),
                                           node.module, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_the_audio_modules_do_not_load_the_plant():
    probe = ("import sys, arte_tcs.arte_dsp, arte_tcs.synth_corpus\n"
             "print('arte_tcs.vehicle_plant' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout == "False\n"


def test_kernel_source_compiles_without_warnings(tmp_path):
    # the run-time build does not use -Werror, so that a new compiler's
    # warning cannot stop a run; this keeps the source clean instead
    out = subprocess.run(
        ["gcc", "-Wall", "-Wextra", "-Werror", *_kernel.KERNEL_CFLAGS,
         "-o", str(tmp_path / "kernel.so"), _kernel._SOURCE,
         "-lm"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_a_kernel_build_removes_stale_builds(tmp_path, monkeypatch):
    # the build of another source version goes once this one is built,
    # and this one loads
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_kernel-0000.so").write_bytes(b"a stale build")
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(cache))
    monkeypatch.setattr(_kernel, "_loaded", None)
    curve = DEFAULT_CURVES[RoadType.SNOW]
    assert plant_step(1.0, 4.0, 0.0, 100.0, 1e-4, curve, P) == (
        1.0002551561714126, 3.9559334964928254, 0.19980013326669166)
    built, = os.listdir(cache)
    assert built != "_kernel-0000.so"
    assert built.startswith("_kernel-") and built.endswith(".so")


def test_threads_loading_a_cold_kernel_build_it_once(tmp_path,
                                                     monkeypatch):
    # four threads ask for the kernel at once: one builds it, and all
    # four get that one library
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_kernel, "_loaded", None)
    builds = []
    build = _kernel._build

    def counted(source, path):
        builds.append(path)
        build(source, path)

    monkeypatch.setattr(_kernel, "_build", counted)
    start = threading.Barrier(4)
    loaded = [None] * 4

    def load(i):
        start.wait()
        loaded[i] = _kernel.load()

    threads = [threading.Thread(target=load, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert loaded[0] is not None
    assert all(kernel is loaded[0] for kernel in loaded)


def test_failed_kernel_build_names_gcc(tmp_path, monkeypatch):
    broken = tmp_path / "_kernel.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_kernel, "_SOURCE", str(broken))
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernel, "_loaded", None)
    with pytest.raises(OSError, match=r"^gcc failed to build the compiled "
                       r"kernel .*_kernel\.c: "):
        plant_step(1.0, 4.0, 0.0, 100.0, 1e-4, DEFAULT_CURVES[RoadType.SNOW],
                   P)
    # the temporary output is gone with the failed build
    assert os.listdir(tmp_path / "cache") == []


def test_two_processes_build_one_kernel(tmp_path):
    # two interpreters build into one empty cache at once: each loads a
    # whole library and takes the same step, and one library is left
    code = ("import sys\n"
            "import arte_tcs._kernel as kernel\n"
            "import arte_tcs.vehicle_plant as vp\n"
            "from arte_tcs.tire_road import DEFAULT_CURVES, RoadType\n"
            "kernel._CACHE_DIR = sys.argv[1]\n"
            "print(vp.plant_step(1.0, 4.0, 0.0, 100.0, 1e-4,"
            " DEFAULT_CURVES[RoadType.SNOW], vp.VehicleParams()))")
    cache = tmp_path / "cache"
    procs = [subprocess.Popen([sys.executable, "-c", code, str(cache)],
                              env=fresh_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert [stdout for stdout, _ in outs] == [
        "(1.0002551561714126, 3.9559334964928254, 0.19980013326669166)\n"
    ] * 2
    left = os.listdir(cache)
    assert len(left) == 1 and left[0].startswith("_kernel-")
    assert left[0].endswith(".so")
