"""Deterministic synthetic road audio.

Each road class is an AR-filtered excitation built from a resonant pole
pair shared by every class plus a class-specific pair; stone and gravel
add dense impulse bursts on top of the white drive. A shared broadband
noise bed at 10 dB SNR keeps the classes from separating trivially.
"""

import os
from dataclasses import dataclass

import numpy as np

from .arte_dsp import AudioClip, extract_raw, mix_noise, sample_frames, write_wav
from .arte_classifier import FeatureDataset
from .errors import ConfigError
from .tire_road import RoadType

SAMPLE_RATE = 16000
DEFAULT_DURATION_S = 3.5
FRAMES_PER_CLASS = 30
OVERLAP_SNR_DB = 10.0


@dataclass(frozen=True)
class ClassSpec:
    road: RoadType
    poles: tuple
    excitation: str = "white"
    impulse_rate: float = 0.0
    gain: float = 1.0

    def validate(self):
        if not 2 <= len(self.poles) <= 4:
            raise ConfigError("need 2-4 AR poles, got %d" % len(self.poles))
        if any(abs(p) >= 1.0 for p in self.poles):
            raise ConfigError("AR poles must lie inside the unit circle")
        if self.excitation not in ("white", "impulsive"):
            raise ConfigError("excitation must be 'white' or 'impulsive'")
        if self.excitation == "impulsive" and self.impulse_rate <= 0.0:
            raise ConfigError("impulsive excitation needs a positive rate")
        if self.gain <= 0.0:
            raise ConfigError("gain must be positive")
        return self


def _pair(freq_hz, radius):
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    p = radius * np.exp(1j * theta)
    return (p, np.conj(p))


# Every class carries the same 1 kHz body resonance; only the second
# pole pair and the excitation statistics identify the surface.
_SHARED = _pair(1000.0, 0.88)

DEFAULT_SPECS = {
    RoadType.ASPHALT: ClassSpec(RoadType.ASPHALT,
                                _SHARED + _pair(800.0, 0.80)),
    RoadType.STONE: ClassSpec(RoadType.STONE,
                              _SHARED + _pair(1800.0, 0.80),
                              excitation="impulsive", impulse_rate=160.0),
    RoadType.GRAVEL: ClassSpec(RoadType.GRAVEL,
                               _SHARED + _pair(1200.0, 0.80),
                               excitation="impulsive", impulse_rate=320.0),
    RoadType.SNOW: ClassSpec(RoadType.SNOW,
                             _SHARED + _pair(300.0, 0.80)),
}


def synth_clip(spec, duration_s=DEFAULT_DURATION_S, seed=0):
    """AR-filtered excitation, peak-normalized to 0.9, labeled."""
    # imported here so that runs without the estimator never load scipy
    from scipy.signal import lfilter
    spec.validate()
    if duration_s < 0.5:
        raise ConfigError("clip duration must be at least 0.5 s")
    n = int(round(duration_s * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    drive = spec.gain * rng.standard_normal(n)
    if spec.excitation == "impulsive":
        hits = rng.random(n) < spec.impulse_rate / SAMPLE_RATE
        count = int(hits.sum())
        drive[hits] += (rng.uniform(3.0, 6.0, count)
                        * rng.choice((-1.0, 1.0), count))
    a = np.poly(spec.poles)
    if np.max(np.abs(a.imag)) > 1e-9:
        raise ConfigError("AR poles must come in conjugate pairs")
    x = lfilter([1.0], a.real, drive)
    x *= 0.9 / np.max(np.abs(x))
    return AudioClip(samples=x, sample_rate=SAMPLE_RATE,
                     label=spec.road).validate()


def overlap_noise(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x *= 0.9 / np.max(np.abs(x))
    return AudioClip(samples=x, sample_rate=SAMPLE_RATE)


def class_clip(road, seed=0, duration_s=DEFAULT_DURATION_S):
    """One noisy labeled clip for a road class, deterministic in seed."""
    k = list(RoadType).index(road)
    clip = synth_clip(DEFAULT_SPECS[road], duration_s, seed=1000 * seed + k)
    noise = overlap_noise(len(clip.samples), seed=1000 * seed + 999)
    return mix_noise(clip, noise, OVERLAP_SNR_DB)


def build_corpus(seed=0):
    """Labeled 20-dim feature rows, FRAMES_PER_CLASS per road."""
    rows, labels = [], []
    for k, road in enumerate(RoadType):
        clip = class_clip(road, seed)
        frames = sample_frames(clip, FRAMES_PER_CLASS,
                               seed=1000 * seed + 500 + k)
        for frame in frames:
            rows.append(extract_raw(frame))
            labels.append(road)
    ds = FeatureDataset(np.vstack(rows), labels).validate()
    return ds.fit_normalization()


def export_wavs(root, seed=0, clips_per_class=1):
    """Write `<root>/<road>/<seed>_<index>.wav` files; returns the paths."""
    paths = []
    for road in RoadType:
        sub = os.path.join(root, road.name.lower())
        os.makedirs(sub, exist_ok=True)
        for i in range(clips_per_class):
            clip = class_clip(road, seed + i)
            path = os.path.join(sub, "%d_%d.wav" % (seed, i))
            write_wav(path, clip)
            paths.append(path)
    return paths
