"""Golden SHA-256 digests of the default 8 s snow launch, of a launch
over four roads (oracle and classifier estimates), of the acoustic
features, and of the default classifier model file.

`golden/snow_launch.sha256` pins the bytes of the `simulate` trace CSV
for mfc, src and mtte with the estimator off and oracle, and of the
`compare` table over the same six runs.  The digests were taken once,
before any refactor of the code they cover; a change that alters one
alters behaviour and must say so, not regenerate the file.
"""

import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import arte_tcs.cli as cli
import arte_tcs.harness as harness
from arte_tcs.arte_dsp import AudioClip, extract_raw, sample_frames
from arte_tcs.harness import (ScenarioConfig, compare, compare_lines,
                              run_scenario, write_trace_csv)
from arte_tcs.synth_corpus import (OVERLAP_SNR_DB, SAMPLE_RATE, _ar_output,
                                   _clean_seed, _peak, build_corpus,
                                   export_wavs)
from arte_tcs.tire_road import RoadType

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "snow_launch.sha256")
CONTROLLERS = ("mfc", "src", "mtte")
MODES = ("off", "oracle")


def golden(name, path=GOLDEN):
    with open(path) as fh:
        table = dict(reversed(line.split()) for line in fh if line.strip())
    return table[name]


@pytest.fixture(scope="module")
def traces():
    base = ScenarioConfig()
    return {(tag, mode): run_scenario(replace(base, controller=tag,
                                              arte_mode=mode))
            for tag in CONTROLLERS for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tag", CONTROLLERS)
def test_trace_csv_digest(traces, tmp_path, tag, mode):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), traces[(tag, mode)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == golden("trace_%s_%s.csv" % (tag, mode))


def test_compare_table_digest(traces, monkeypatch):
    # compare() runs the six scenarios pinned above; serving them from the
    # fixture leaves only the metrics, the gap and the formatting to check
    monkeypatch.setattr(harness, "run_scenario",
                        lambda cfg: traces[(cfg.controller, cfg.arte_mode)])
    rows = compare(CONTROLLERS, MODES, ScenarioConfig())
    text = "\n".join(compare_lines(rows)) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == golden("compare.csv")


# --- acoustic front end -------------------------------------------------
#
# `golden/acoustic.sha256` pins the bytes of the 20-element raw feature
# rows: the whole seed-1 training corpus, and frames sampled from every
# road class at 16 kHz (1600-sample frames) and, resampled, at 44.1 kHz
# (4410-sample frames, a second FFT size).  Taken before the front end
# was reworked; a change to one is a change to every trained model.

ACOUSTIC = os.path.join(os.path.dirname(__file__), "golden",
                        "acoustic.sha256")
FRAMES_PER_ROAD = 6


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def one_second_clip(road, seed):
    """`class_clip(road, seed)` as it is made, but 1 s long: the road's AR
    output and the seed's noise bed, each peak-normalized to 0.9, mixed
    OVERLAP_SNR_DB apart and scaled back to peak 1 if above it."""
    clean = _ar_output(road, SAMPLE_RATE, _clean_seed(road, seed))
    clean *= 0.9 / _peak(clean)
    noise = np.random.default_rng(1000 * seed + 999).standard_normal(
        SAMPLE_RATE)
    noise *= 0.9 / _peak(noise)
    mixed = np.square(clean)
    gain = math.sqrt(np.mean(mixed) / (np.mean(noise ** 2)
                                       * 10.0 ** (OVERLAP_SNR_DB / 10.0)))
    np.multiply(noise, gain, out=mixed)
    mixed += clean
    peak = _peak(mixed)
    if peak > 1.0:
        mixed /= peak
    return AudioClip(mixed, SAMPLE_RATE)


def road_clips(rate):
    """One 1 s 16 kHz class clip per road, linearly resampled to `rate`."""
    clips = []
    for road in RoadType:
        clip = one_second_clip(road, seed=2)
        t_in = np.arange(len(clip.samples)) / clip.sample_rate
        t_out = np.arange(int(round(t_in[-1] * rate)) + 1) / rate
        clips.append(AudioClip(np.interp(t_out, t_in, clip.samples), rate))
    return clips


def frame_rows(rate):
    rows = [extract_raw(frame)
            for k, clip in enumerate(road_clips(rate))
            for frame in sample_frames(clip, FRAMES_PER_ROAD, seed=30 + k)]
    return np.vstack(rows)


def test_corpus_features_digest():
    assert sha(build_corpus(seed=1).features) == golden(
        "corpus_seed1_features", ACOUSTIC)


@pytest.mark.parametrize("rate", (16000, 44100))
def test_frame_features_digest(rate):
    rows = frame_rows(rate)
    assert rows.shape == (len(RoadType) * FRAMES_PER_ROAD, 20)
    assert sha(rows) == golden("extract_raw_%d" % rate, ACOUSTIC)


# `export_wavs_seed0_2` pins the WAV tree that `export_wavs` writes for
# seed 0 with two clips per class: each file's path relative to the root,
# a NUL, then its bytes, in the order the paths are returned.  Taken
# before the export learned to draw each seed's noise bed once.

def test_export_wavs_digest(tmp_path):
    paths = export_wavs(str(tmp_path), seed=0, clips_per_class=2)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, tmp_path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == golden("export_wavs_seed0_2", ACOUSTIC)


# --- road switching -----------------------------------------------------
#
# `golden/switch_launch.sha256` pins the `simulate` trace CSV of src and
# mtte with the oracle estimator over an 8 s asphalt -> snow -> gravel ->
# stone launch whose switch times lie off the 1e-4 s step grid.  It covers
# what the snow launch cannot: the friction column across several curves
# and the mapping of road indices back to names.  Taken before the trace
# recording was reworked.

SWITCH = os.path.join(os.path.dirname(__file__), "golden",
                      "switch_launch.sha256")
SWITCH_SCHEDULE = ((0.0, RoadType.ASPHALT), (2.03, RoadType.SNOW),
                   (4.1, RoadType.GRAVEL), (6.0, RoadType.STONE))


@pytest.mark.parametrize("tag", ("src", "mtte"))
def test_switch_launch_trace_digest(tmp_path, tag):
    cfg = ScenarioConfig(road_schedule=SWITCH_SCHEDULE, controller=tag,
                         arte_mode="oracle")
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), run_scenario(cfg))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == golden("trace_%s_oracle.csv" % tag, SWITCH)


# --- classifier in the loop ---------------------------------------------
#
# `golden/switch_classifier.sha256` pins the same src and mtte launch over
# four roads with the trained classifier in the loop: the model that
# `arte-tcs train` writes with its default seeds.  It covers the hand-off
# of each estimate (road, lambda_opt, mu_peak) from the classifier to the
# controller, which the oracle goldens reach only from the true road.
# Taken before that hand-off was reworked, re-recorded when training
# gained heavy-ball momentum (a new default model), and again when the
# classifier came to hear one causal audio stream per run: the 0.1 s
# before each tick, not the first 0.1 s of a fresh clip of the road at it.

CLASSIFIER = os.path.join(os.path.dirname(__file__), "golden",
                          "switch_classifier.sha256")


@pytest.fixture(scope="module")
def default_model(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "model.txt")
    assert cli.main(["train", "--out", path]) == 0
    return path


@pytest.mark.parametrize("tag", ("src", "mtte"))
def test_switch_launch_classifier_trace_digest(tmp_path, default_model, tag):
    cfg = ScenarioConfig(road_schedule=SWITCH_SCHEDULE, controller=tag,
                         arte_mode="classifier", model_path=default_model)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), run_scenario(cfg))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == golden("trace_%s_classifier.csv" % tag, CLASSIFIER)


# `golden/default_model.sha256` pins the bytes of the model file that
# `arte-tcs train` writes with its default seeds.  Taken before the
# training loop was rewritten to work in preallocated buffers, and
# re-recorded when training gained heavy-ball momentum and the loss
# target it now reaches.  `full_features_model.txt` is the same with
# `--full-features`, taken before that path trained through a mask of
# all 20 features.

MODEL = os.path.join(os.path.dirname(__file__), "golden",
                     "default_model.sha256")


def test_default_model_file_digest(default_model):
    with open(default_model, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == golden("model.txt", MODEL)


def test_full_features_model_file_digest(tmp_path):
    path = str(tmp_path / "model.txt")
    assert cli.main(["train", "--full-features", "--out", path]) == 0
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == golden("full_features_model.txt", MODEL)
