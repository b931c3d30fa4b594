"""Benchmark for arte-tcs: one workload per process, result on the last line.

    python3 bench/run.py --workload snow_compare --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is repeated, and passes of the workload run back to back for
``--seconds``. Each timing is a median, in seconds at the nominal host
speed that hostspeed.py calibrates. ``--trace 1`` alternates untraced and
traced passes, and reports the per-layer metrics of the traced ones plus
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("snow_compare", "switch_classifier", "acoustic_batch")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_LAYERS = ("synth_corpus.build_corpus", "arte_classifier.train_mlp")
PASS_INFO = {  # per-layer metric -> (PassResult.info key, unit)
    "harness.write_trace_csv.bytes": ("csv_bytes", "bytes"),
    "harness.estimate_wrong_frac": ("estimate_wrong_frac", "fraction"),
    "arte_classifier.accuracy": ("accuracy", "fraction"),
}
TRACE_OVERHEAD = "trace.overhead_s"
SETUP_REPEATS = 5


def import_program():
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    if not (SRC / "arte_tcs" / "__init__.py").is_file():
        sys.exit("error: no arte_tcs package under %s; run the benchmark "
                 "from the root of a checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import arte_tcs
    if SRC not in Path(arte_tcs.__file__).resolve().parents:
        sys.exit("error: arte_tcs was imported from %s, not from %s"
                 % (arte_tcs.__file__, SRC))


def per_layer_units():
    from layertrace import MU_SCALAR_CALLS, SELF_TIMED, TIMED_LAYERS
    units = {}
    for layer in TIMED_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".busy_s"] = "s"
        if layer in SELF_TIMED:
            units[layer + ".self_s"] = "s"
    units[MU_SCALAR_CALLS] = "count"
    units.update({name: unit for name, (_, unit) in PASS_INFO.items()})
    units[TRACE_OVERHEAD] = "s"
    return units


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "arte_tcs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, workload):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "inputs": workload.inputs(), "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def summarize(values, unit):
    """Median; for counts the lower median, so that a count stays whole."""
    if not values:
        return 0
    if unit in ("s", "fraction"):
        return statistics.median(values)
    return statistics.median_low(values)


class Setups:
    """A workload's set-ups: their (seconds, seconds at nominal host
    speed), and their layer metrics when traced."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.times = []
        self.layers = []

    def run(self):
        if self.tracer is None:
            self.times.append(self.workload.setup_once())
            return
        self.tracer.reset()
        with self.tracer.installed():
            seconds, nominal = self.workload.setup_once()
        self.times.append((seconds, nominal))
        self.layers.append((self.tracer.metrics(), nominal / seconds))


def run_passes(workload, seconds, tracer, setups, repeats):
    """Passes back to back until the next would end after ``seconds``;
    with a tracer every second pass is traced, and at least one of each
    kind runs.

    The first set-up runs before the passes, which need it. The other
    ``repeats - 1`` run between the first passes, so that their median
    samples more than one phase of the host's load.
    """
    setups.run()
    log = {"passes": {False: [], True: []}, "units": 0, "layers": [],
           "infos": [], "spans": [], "attempted": 0, "failed": 0,
           "digests": {}}
    start = perf_counter()
    last = 0.0
    k = 0
    while (k < (2 if tracer else 1)
           or perf_counter() - start + last <= seconds):
        if k > 0 and len(setups.times) < repeats:
            setups.run()
        traced = tracer is not None and k % 2 == 1
        k += 1
        t0 = perf_counter()
        try:
            if traced:
                tracer.reset()
                with tracer.installed():
                    res = workload.run_pass()
                layers = tracer.metrics()
                log["spans"] = list(tracer.spans)
            else:
                res = workload.run_pass()
        except Exception:
            traceback.print_exc()
            log["attempted"] += workload.ops_per_pass()
            log["failed"] += workload.ops_per_pass()
            print("FAIL pass %d raised; its %d %s count as failed"
                  % (k, workload.ops_per_pass(), workload.op_label))
            continue
        finally:
            last = perf_counter() - t0
        log["attempted"] += res.attempted
        log["failed"] += len(res.failures)
        for op, problems in sorted(res.failures.items()):
            print("FAIL pass %d %s: %s" % (k, op, "; ".join(problems)))
        for key, value in res.digests.items():
            if log["digests"].setdefault(key, value) != value:
                print("note: %s differs between passes" % key)
        log["passes"][traced].append(res.parts)
        raw = sum(s for s, _ in res.parts.values())
        nominal = sum(n for _, n in res.parts.values())
        if traced:
            log["layers"].append((layers, nominal / raw))
        if log["units"] not in (0, res.units):
            print("note: passes did different amounts of work")
        log["units"] = res.units
        log["infos"].append(res.info)
        print("pass %d %s wall_s %.6f nominal %.6f %s %d parts %s" % (
            k, "traced" if traced else "untraced", raw, nominal,
            workload.unit_label, res.units, json.dumps(res.parts)))
    while len(setups.times) < repeats:
        setups.run()
    return log


def describe(label, timings):
    """Print the measured and the nominal-speed times side by side."""
    if timings:
        raw = [t for t, _ in timings]
        print("%s: %d, measured s min %.6f median %.6f max %.6f; "
              "at nominal host speed median %.6f" % (
                  label, len(raw), min(raw), statistics.median(raw),
                  max(raw), statistics.median(n for _, n in timings)))


def pass_seconds(passes):
    """Nominal-speed time of one pass: the sum over its parts of each
    part's median, which uses every part's samples."""
    if not passes:
        return 0.0
    return sum(statistics.median(parts[name][1] for parts in passes)
               for name in passes[0])


def whole_passes(passes):
    return [(sum(s for s, _ in parts.values()),
             sum(n for _, n in parts.values())) for parts in passes]


def end_to_end_metrics(workload, setups, log):
    describe("set-ups", setups.times)
    describe("untraced passes", whole_passes(log["passes"][False]))
    wall = pass_seconds(log["passes"][False])
    metrics = {
        "setup_s": summarize([n for _, n in setups.times], "s"),
        "wall_s": wall,
        "work_per_s": log["units"] / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("%s_per_s %.6g (work_per_s)" % (workload.unit_label,
                                          metrics["work_per_s"]))
    return metrics, END_TO_END


def per_layer_metrics(setups, log):
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        layer = name.rsplit(".", 1)[0]
        source = setups.layers if layer in SETUP_LAYERS else log["layers"]
        # times scaled to the nominal host speed of the pass they ran in
        metrics[name] = summarize(
            [m[name] * scale if unit == "s" else m[name]
             for m, scale in source if name in m], unit)
    for name, (key, unit) in PASS_INFO.items():
        metrics[name] = summarize(
            [i[key] for i in log["infos"] if key in i], unit)
    describe("traced passes", whole_passes(log["passes"][True]))
    metrics[TRACE_OVERHEAD] = (pass_seconds(log["passes"][True])
                               - pass_seconds(log["passes"][False]))
    spans = log["spans"]
    print("spans of the last traced pass " + json.dumps([
        (name, parent, round(t0 - spans[0][2], 6), round(t1 - t0, 6))
        for name, parent, t0, t1 in spans]))
    return metrics, units


def run_workload(args):
    from layertrace import LayerTracer
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        print("manifest " + json.dumps(manifest(args, workload)))
        tracer = LayerTracer() if args.trace else None
        setups = Setups(workload, tracer)
        log = run_passes(workload, args.seconds, tracer, setups,
                         1 if args.tiny else SETUP_REPEATS)
        for problem in workload.setup_failures:
            print("FAIL setup: %s" % problem)
        for key, value in sorted(log["digests"].items()):
            print("sha256 %s %s" % (key, value))
        if tracer is None:
            metrics, units = end_to_end_metrics(workload, setups, log)
        else:
            metrics, units = per_layer_metrics(setups, log)
        attempted, failed = log["attempted"], log["failed"]
        print("ops_failed_frac %.6g (%d of %d %s)" % (
            failed / attempted if attempted else 1.0, failed, attempted,
            workload.op_label))
        for name, value in metrics.items():
            print("metric %s %.9g %s" % (name, value, units[name]))
        correct = failed == 0 and not workload.setup_failures and attempted > 0
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        print("== %s" % name, flush=True)
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=900)
        sys.stdout.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("error: workload %s exited %d" % (name, out.returncode))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    return combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
