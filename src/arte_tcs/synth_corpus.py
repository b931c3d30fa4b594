"""Deterministic synthetic road audio.

Each road class has one constant sound in `ROAD_SOUNDS`: an AR filter
whose poles are a resonant pair shared by every class plus a
class-specific pair, driven by white noise, with dense impulse bursts on
top for stone and gravel.  A shared broadband noise bed at 10 dB SNR
keeps the classes from separating trivially.  The bed depends on the
seed alone, not on the road, so `build_corpus` and `export_wavs` draw it
once per seed and mix it into every road's clip of that seed.
"""

import math
import os

import numpy as np

from .arte_dsp import AudioClip, extract_raw, sample_frames, write_wav
from .arte_classifier import FeatureDataset
from .errors import ConfigError
from .tire_road import RoadType

SAMPLE_RATE = 16000
DEFAULT_DURATION_S = 3.5
FRAMES_PER_CLASS = 30
OVERLAP_SNR_DB = 10.0


def _pair(freq_hz, radius):
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    p = radius * np.exp(1j * theta)
    return (p, np.conj(p))


# Every class carries the same 1 kHz body resonance; only the second
# pole pair and the excitation statistics identify the surface.
_SHARED = _pair(1000.0, 0.88)


def _sound(freq_hz, impulse_rate=0.0):
    den = np.poly(_SHARED + _pair(freq_hz, 0.80)).real
    den.flags.writeable = False
    return den, impulse_rate


# road -> (AR denominator, impulse rate in Hz; 0 for a white drive only)
ROAD_SOUNDS = {
    RoadType.ASPHALT: _sound(800.0),
    RoadType.STONE: _sound(1800.0, impulse_rate=160.0),
    RoadType.GRAVEL: _sound(1200.0, impulse_rate=320.0),
    RoadType.SNOW: _sound(300.0),
}


def synth_clip(road, duration_s=DEFAULT_DURATION_S, seed=0):
    """The road's AR-filtered excitation, peak-normalized to 0.9, labeled."""
    # imported here so that runs without the estimator never load scipy
    from scipy.signal import lfilter
    if duration_s < 0.5:
        raise ConfigError("clip duration must be at least 0.5 s")
    den, impulse_rate = ROAD_SOUNDS[road]
    n = int(round(duration_s * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    drive = rng.standard_normal(n)
    if impulse_rate > 0.0:
        hits = rng.random(n) < impulse_rate / SAMPLE_RATE
        count = int(hits.sum())
        drive[hits] += (rng.uniform(3.0, 6.0, count)
                        * rng.choice((-1.0, 1.0), count))
    x = lfilter([1.0], den, drive)
    x *= 0.9 / _peak(x)
    return AudioClip(samples=x, sample_rate=SAMPLE_RATE, label=road)


def _peak(x):
    """max |x| without a full-length |x| temporary."""
    return max(x.max(), -x.min())


def _noise_bed(seed, duration_s=DEFAULT_DURATION_S):
    """The broadband bed `class_clip` mixes in at seed, peak 0.9, and its
    mean square."""
    n = int(round(duration_s * SAMPLE_RATE))
    noise = np.random.default_rng(1000 * seed + 999).standard_normal(n)
    noise *= 0.9 / _peak(noise)
    noise.flags.writeable = False  # shared by every road of the seed
    return noise, np.mean(noise ** 2)


def class_clip(road, seed=0, duration_s=DEFAULT_DURATION_S, *, bed=None):
    """One labeled clip for a road class under the shared noise bed at
    OVERLAP_SNR_DB, deterministic in seed; peak at most 1.

    `bed` is `_noise_bed(seed, duration_s)`, passed by callers that mix
    several roads of one seed; without it the bed is drawn here.
    """
    k = list(RoadType).index(road)
    clean = synth_clip(road, duration_s, seed=1000 * seed + k).samples
    noise, noise_ms = _noise_bed(seed, duration_s) if bed is None else bed
    mixed = np.square(clean)  # its buffer then takes the mix
    gain = math.sqrt(np.mean(mixed)
                     / (noise_ms * 10.0 ** (OVERLAP_SNR_DB / 10.0)))
    np.multiply(noise, gain, out=mixed)
    mixed += clean
    peak = _peak(mixed)
    if peak > 1.0:
        mixed /= peak
    return AudioClip(mixed, SAMPLE_RATE, road)


def build_corpus(seed=0):
    """Labeled 20-dim feature rows, FRAMES_PER_CLASS per road."""
    rows, labels = [], []
    bed = _noise_bed(seed)
    for k, road in enumerate(RoadType):
        clip = class_clip(road, seed, bed=bed)
        frames = sample_frames(clip, FRAMES_PER_CLASS,
                               seed=1000 * seed + 500 + k)
        for frame in frames:
            rows.append(extract_raw(frame))
            labels.append(road)
    return FeatureDataset(np.vstack(rows), labels).fit_normalization()


def export_wavs(root, seed=0, clips_per_class=1):
    """Write `<root>/<road>/<seed>_<index>.wav` files; returns the paths,
    road by road.  Clip i of every road is seed + i, so the files are
    written index by index, one noise bed each."""
    roads = list(RoadType)
    for road in roads:
        os.makedirs(os.path.join(root, road.value), exist_ok=True)
    paths = [os.path.join(root, road.value, "%d_%d.wav" % (seed, i))
             for road in roads for i in range(clips_per_class)]
    for i in range(clips_per_class):
        bed = _noise_bed(seed + i)
        for k, road in enumerate(roads):
            write_wav(paths[k * clips_per_class + i],
                      class_clip(road, seed + i, bed=bed))
    return paths
