"""The road audio a run's classifier hears (`synth_corpus.RoadStream`) and
the beliefs `harness._plan` forms from it: causal, seeded apart from the
training corpus, held in memory that does not grow with the run, and,
formed ahead in a worker thread, the run that beliefs formed at their
ticks give, bit for bit."""

import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arte_tcs.harness as harness
from arte_tcs.arte_classifier import (SelectionMask, arte_estimate,
                                      load_model, prune_features, save_model,
                                      split_dataset, train_mlp)
from arte_tcs.arte_dsp import Frame, extract_raw, frame_length
from arte_tcs.harness import (NO_ESTIMATE, ScenarioConfig,
                              _build_controller, _first_step, run_scenario)
from arte_tcs.synth_corpus import (SAMPLE_RATE, RoadStream, _ar_output,
                                   _noise_bed, _stream_levels, build_corpus,
                                   class_clip)
from arte_tcs.tire_road import DEFAULT_CURVES, ROAD_INDEX, RoadType
from arte_tcs.vehicle_plant import make_plant_run, slip_ratio

WINDOW = frame_length(SAMPLE_RATE)
FOUR_ROADS = ((0.0, RoadType.ASPHALT), (2.03, RoadType.SNOW),
              (4.1, RoadType.GRAVEL), (6.0, RoadType.STONE))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """The model `arte-tcs train` writes with its default seeds."""
    train, _ = split_dataset(build_corpus(seed=1), 0.3, seed=4)
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(path, train_mlp(train, prune_features(train), seed=0))
    return str(path)


def heard(cfg):
    """{tick step: (belief, window samples)} of cfg's plan."""
    windows = []

    def recording(model, mask, window):
        windows.append(window.samples.copy())
        return arte_estimate(model, mask, window)

    with mock.patch.object(harness, "arte_estimate", recording):
        _, ticks, beliefs = harness._plan(cfg,
                                          int(round(cfg.duration_s / cfg.dt)))
        formed = list(beliefs)
    return {k: (belief, window)
            for k, belief, window in zip(ticks, formed, windows, strict=True)}


def test_levels_are_those_of_the_seed_0_corpus_clip():
    noise, noise_ms = _noise_bed(0)
    for k, (road, (gain, bed_gain)) in enumerate(_stream_levels().items()):
        clip = class_clip(road, 0).samples
        raw = _ar_output(road, len(clip), seed=k)
        # the stream's bed is unit variance, the corpus's of mean square
        # noise_ms
        np.testing.assert_allclose(
            raw * gain + noise * (bed_gain / math.sqrt(noise_ms)), clip,
            rtol=0.0, atol=1e-12)


def test_window_across_a_switch_hears_the_earlier_road_up_to_it():
    switch, end = 8481, 9600  # the window [8000, 9600) is gravel from 8481
    for first, then in ((RoadType.STONE, RoadType.GRAVEL),
                        (RoadType.ASPHALT, RoadType.SNOW)):
        alone = RoadStream([(0, first)], seed=5).window(end).samples
        across = RoadStream([(0, first), (switch, then)],
                            seed=5).window(end).samples
        cut = switch - (end - WINDOW)
        assert np.array_equal(across[:cut], alone[:cut])
        assert np.all(across[cut:] != alone[cut:])


def test_windows_read_one_stream():
    """Windows are slices of one stream however it is read: close
    together, overlapping, or far apart with blocks never kept between."""
    segments = [(0, RoadType.GRAVEL), (20_000, RoadType.SNOW),
                (41_000, RoadType.STONE)]
    ends = (0, 800, 1600, 17_000, 40_000, 40_001, 90_000)
    stream = RoadStream(segments, seed=2)
    read = [stream.window(end).samples for end in ends]
    for end, samples in zip(ends, read):
        assert len(samples) == WINDOW
        alone = RoadStream(segments, seed=2).window(end).samples
        assert np.array_equal(alone, samples)
    assert np.array_equal(read[1][:800], read[0][800:])
    assert np.array_equal(read[2][:800], read[1][800:])


def test_no_window_is_a_corpus_frame_or_another_runs(model_path):
    """At scenario seeds 0-3 no window the classifier hears has the raw
    features of a frame that `build_corpus` draws at corpus seeds 0-3 (a
    window equal to a frame would have its features), and no two windows
    of the four runs are equal."""
    corpus = {row.tobytes() for seed in range(4)
              for row in build_corpus(seed).features}
    windows = set()
    for seed in range(4):
        cfg = ScenarioConfig(road_schedule=FOUR_ROADS, seed=seed,
                             arte_mode="classifier", model_path=model_path)
        heard_here = [w for _, w in heard(cfg).values()]
        assert len(heard_here) == 80
        for window in heard_here:
            frame = Frame(samples=window, origin_offset=0)
            assert extract_raw(frame).tobytes() not in corpus
            windows.add(window.tobytes())
    assert len(windows) == 4 * 80


roads = st.sampled_from(tuple(RoadType))
times = st.floats(0.01, 2.0, allow_nan=False)


@st.composite
def later_changes(draw):
    """(schedule, duration, the changed schedule and duration, t): the
    change moves, re-roads or adds an entry after t, or lengthens the
    run."""
    entry_times = sorted(set(draw(st.lists(times, max_size=4))))
    schedule = tuple(zip([0.0] + entry_times,
                         draw(st.lists(roads, min_size=len(entry_times) + 1,
                                       max_size=len(entry_times) + 1))))
    duration = draw(st.floats(0.1, 2.0))
    t = draw(st.floats(0.0, duration))
    later = [i for i, (te, _) in enumerate(schedule) if te > t]
    kinds = ["add", "lengthen"] + (["move", "road"] if later else [])
    kind = draw(st.sampled_from(kinds))
    new, new_duration = list(schedule), duration
    if kind == "lengthen":
        new_duration = duration + draw(st.floats(0.01, 1.0))
    elif kind == "add":
        te = draw(st.floats(t, t + 2.0, exclude_min=True))
        if te in entry_times:
            te = math.nextafter(te, math.inf)
        new = sorted(new + [(te, draw(roads))], key=lambda e: e[0])
    else:
        i = draw(st.sampled_from(later))
        te, road = new[i]
        if kind == "road":
            new[i] = (te, draw(roads.filter(lambda r: r is not road)))
        else:
            lo = max(t, new[i - 1][0])
            hi = new[i + 1][0] if i + 1 < len(new) else lo + 2.0
            new[i] = (draw(st.floats(lo, hi, exclude_min=True,
                                     exclude_max=True)), road)
    return schedule, duration, tuple(new), new_duration, t


@settings(max_examples=60, deadline=None)
@given(case=later_changes(), period=st.floats(0.1, 0.35))
@example(  # a later switch moved inside a stone segment, one inside gravel
    case=(((0.0, RoadType.STONE), (1.05, RoadType.GRAVEL),
           (1.7, RoadType.ASPHALT)), 2.0,
          ((0.0, RoadType.STONE), (1.05, RoadType.GRAVEL),
           (1.62, RoadType.ASPHALT)), 2.0, 1.5), period=0.1)
@example(
    case=(((0.0, RoadType.ASPHALT), (0.5, RoadType.STONE),
           (0.93, RoadType.SNOW)), 1.5,
          ((0.0, RoadType.ASPHALT), (0.5, RoadType.STONE),
           (0.9, RoadType.SNOW)), 1.5, 0.85), period=0.1)
def test_later_schedule_changes_no_earlier_belief(model_path, case, period):
    schedule, duration, new, new_duration, t = case
    base = ScenarioConfig(duration_s=duration, road_schedule=schedule,
                          arte_mode="classifier", arte_period_s=period,
                          model_path=model_path)
    before = heard(base)
    after = heard(replace(base, road_schedule=new, duration_s=new_duration))
    for k, (belief, window) in before.items():
        if k * base.dt <= t:
            assert after[k][0] == belief
            assert np.array_equal(after[k][1], window)


def drain(plan):
    """Form every belief of a plan, keeping none."""
    for _ in plan[2]:
        pass


def test_plan_memory_does_not_grow_with_the_run(model_path):
    """A 100 s run's plan holds one block and one window of audio, not
    the run's 1.6 million samples (12.8 MB per float array)."""
    cfg = ScenarioConfig(duration_s=100.0, road_schedule=FOUR_ROADS,
                         arte_mode="classifier", model_path=model_path)
    # loads the kernel and the stream's levels
    drain(harness._plan(replace(cfg, duration_s=1.0), 10_000))
    peaks = []
    for n in (100_000, 1_000_000):
        tracemalloc.start()  # traces the worker thread's allocations too
        try:
            drain(harness._plan(cfg, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 5e6
    assert peaks[1] < peaks[0] + 1e6


def serial_run(cfg, model_path):
    """The columns of cfg's classifier run, each belief formed on this
    thread at its tick, from `RoadStream.window` and `arte_estimate`, and
    each span between ticks and switches run through `make_plant_run`."""
    p, dt, sched = cfg.params, cfg.dt, cfg.road_schedule
    n = int(round(cfg.duration_s / dt))
    model = load_model(model_path)
    mask = SelectionMask(indices=model.mask_indices)
    h = 1.0 / SAMPLE_RATE
    m = math.ceil(n * dt / h) + 1
    audio = {_first_step(t, m, h): road for t, road in sched}
    audio.pop(m, None)
    stream = RoadStream(audio.items(), cfg.seed)
    segments = {_first_step(t, n, dt): road for t, road in sched}
    segments.pop(n, None)
    ticks, next_arte = [], 0.0
    while (k := _first_step(next_arte - 1e-12, n, dt)) < n:
        ticks.append(k)
        next_arte += cfg.arte_period_s

    ctrl = _build_controller(cfg)
    columns = [np.empty(n) for _ in range(5)]
    pointers = [col.ctypes.data for col in columns]
    true_idx = np.empty(n, np.int8)
    est_idx = np.full(n, NO_ESTIMATE, np.int8)
    x = cfg.v0, cfg.v0 / p.r, 0.0
    law = ctrl.law(dt, cfg.torque_demand)
    bounds = sorted(segments.keys() | set(ticks)) + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in segments:
            run = make_plant_run(DEFAULT_CURVES[segments[lo]], p, dt)
            true_idx[lo:] = ROAD_INDEX[segments[lo]]
        if lo in ticks:
            belief = arte_estimate(model, mask, stream.window(
                _first_step(lo * dt, m, h)))
            ctrl.set_estimate(*belief)
            law = ctrl.law(dt, cfg.torque_demand)
            est_idx[lo:] = ROAD_INDEX[belief[0]]
        x = run(law, ctrl.state, *x, lo, hi, pointers)
    v, w, t_cmd, t_applied, mu = columns
    vw = [b * p.r for b in w.tolist()]
    lam = [slip_ratio(a, b, p.r) for a, b in zip(v.tolist(), w.tolist())]
    return {"t": [k * dt for k in range(n)], "v": v, "vw": vw, "lam": lam,
            "t_cmd": t_cmd, "t_applied": t_applied, "mu": mu,
            "road_true_idx": true_idx, "road_est_idx": est_idx}


@st.composite
def classifier_runs(draw):
    duration = draw(st.floats(0.3, 1.5))
    switches = sorted(set(draw(st.lists(st.floats(0.01, duration),
                                        max_size=3))))
    schedule = tuple(zip([0.0] + switches,
                         draw(st.lists(roads, min_size=len(switches) + 1,
                                       max_size=len(switches) + 1))))
    return ScenarioConfig(duration_s=duration, road_schedule=schedule,
                          controller=draw(st.sampled_from(("src", "mtte"))),
                          arte_mode="classifier",
                          seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=20, deadline=None)
@given(cfg=classifier_runs())
def test_beliefs_formed_ahead_give_the_serial_run_bit_for_bit(model_path,
                                                               cfg):
    cfg = replace(cfg, model_path=model_path)
    # the threads trade the interpreter lock every microsecond, so that
    # the worker's beliefs interleave the spans as finely as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = run_scenario(cfg)
    finally:
        sys.setswitchinterval(interval)
    for name, want in serial_run(cfg, model_path).items():
        got = getattr(trace, name)
        assert got.dtype == np.asarray(want).dtype
        assert got.tobytes() == np.asarray(want).tobytes(), name
