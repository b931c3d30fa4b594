"""Outside-in layer tracing: wrap a layer's public function where its caller
looks it up, and time each call.

Per-step functions (the plant step and the controllers' update) run
hundreds of thousands of times per pass, so their calls are aggregated in
memory as (name, parent) -> calls and seconds. Every other traced call
also keeps one span (name, parent, start, end). A layer's self time is its
busy time minus the busy time of the traced calls made inside it.
``tire_road.mu_scalar`` is counted but not timed: it costs ~0.3 us, which a
timing wrapper would swamp.
"""

import contextlib
from time import perf_counter

import arte_tcs.arte_classifier as arte_classifier
import arte_tcs.arte_dsp as arte_dsp
import arte_tcs.cli as cli
import arte_tcs.controllers as controllers
import arte_tcs.harness as harness
import arte_tcs.synth_corpus as synth_corpus
import arte_tcs.tire_road as tire_road

# (layer metric name, namespace the caller resolves the name in, attribute)
HOT = (
    ("vehicle_plant.plant_step", harness, "plant_step"),
    ("controllers.mfc.update", controllers.ModelFollowingControl, "update"),
    ("controllers.src.update", controllers.SlipRatioControl, "update"),
    ("controllers.mtte.update", controllers.MaxTransmissibleTorque, "update"),
)
COARSE = (
    ("cli.main", cli, "main"),
    ("harness.run_scenario", harness, "run_scenario"),
    ("harness.run_scenario", cli, "run_scenario"),
    ("harness.write_trace_csv", cli, "write_trace_csv"),
    ("robustness.plant_family", harness, "plant_family"),
    ("robustness.nu_gap", harness, "nu_gap"),
    ("synth_corpus.class_clip", harness, "class_clip"),
    ("synth_corpus.class_clip", synth_corpus, "class_clip"),
    ("synth_corpus.build_corpus", synth_corpus, "build_corpus"),
    ("arte_dsp.write_wav", synth_corpus, "write_wav"),
    ("arte_dsp.load_wav", arte_dsp, "load_wav"),
    ("arte_classifier.arte_estimate", harness, "arte_estimate"),
    ("arte_classifier.arte_estimate", arte_classifier, "arte_estimate"),
    ("arte_dsp.extract_raw", arte_classifier, "extract_raw"),
    ("arte_classifier.classify", arte_classifier, "classify"),
    ("tire_road.peak_friction", harness, "peak_friction"),
    ("tire_road.peak_friction", arte_classifier, "peak_friction"),
    ("arte_classifier.train_mlp", arte_classifier, "train_mlp"),
)
TIMED_LAYERS = tuple(dict.fromkeys(name for name, _, _ in HOT + COARSE))
SELF_TIMED = ("harness.run_scenario", "cli.main")
MU_SCALAR_CALLS = "tire_road.mu_scalar.calls"
ROOT = "<benchmark>"


@contextlib.contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class LayerTracer:
    """Collects calls, busy time and child time per (layer, parent)."""

    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.agg = {}
        self.spans = []
        self.mu_calls = [0]

    def reset(self):
        """Forget what was recorded; installed wrappers keep working."""
        # cleared in place: the wrappers hold these objects, not self
        self.stack[:] = [[ROOT, 0.0]]
        self.agg.clear()
        self.spans.clear()
        self.mu_calls[0] = 0

    def _record(self, name, parent, busy, child):
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += busy
        rec[2] += child

    def wrap_hot(self, name, fn):
        stack, record, clock = self.stack, self._record, perf_counter

        def traced(*args):
            parent = stack[-1]
            t0 = clock()
            result = fn(*args)
            busy = clock() - t0
            parent[1] += busy
            record(name, parent[0], busy, 0.0)
            return result
        return traced

    def wrap_coarse(self, name, fn):
        stack, record, spans, clock = (self.stack, self._record, self.spans,
                                       perf_counter)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                stack.pop()
                parent[1] += busy
                record(name, parent[0], busy, frame[1])
                spans.append((name, parent[0], t0, t0 + busy))
        return traced

    def wrap_counted(self, fn):
        calls = self.mu_calls

        def counted(curve, lam):
            calls[0] += 1
            return fn(curve, lam)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        with contextlib.ExitStack() as stack:
            for name, owner, attr in HOT:
                stack.enter_context(patched(
                    owner, attr, self.wrap_hot(name, getattr(owner, attr))))
            for name, owner, attr in COARSE:
                stack.enter_context(patched(
                    owner, attr, self.wrap_coarse(name, getattr(owner, attr))))
            curve_cls = tire_road.MuLambdaCurve
            stack.enter_context(patched(
                curve_cls, "mu_scalar", self.wrap_counted(curve_cls.mu_scalar)))
            yield self

    def metrics(self):
        """Flat {metric name: value} for everything recorded since reset()."""
        out = {}
        for layer in TIMED_LAYERS:
            recs = [rec for (name, _), rec in self.agg.items()
                    if name == layer]
            out[layer + ".calls"] = sum(rec[0] for rec in recs)
            busy = sum(rec[1] for rec in recs)
            out[layer + ".busy_s"] = busy
            if layer in SELF_TIMED:
                out[layer + ".self_s"] = busy - sum(rec[2] for rec in recs)
        out[MU_SCALAR_CALLS] = self.mu_calls[0]
        return out
