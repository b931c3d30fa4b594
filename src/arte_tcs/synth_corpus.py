"""Deterministic synthetic road audio.

Each road class has one constant sound in `ROAD_SOUNDS`: an AR filter
whose poles are a resonant pair shared by every class plus a
class-specific pair, driven by white noise, with dense impulse bursts on
top for stone and gravel.  A shared broadband noise bed at 10 dB SNR
keeps the classes from separating trivially.  The bed depends on the
seed alone, not on the road, so `build_corpus` and `export_wavs` draw it
once per seed and mix it into every road's clip of that seed.

`RoadStream` is the audio a car hears over one run: the same sounds,
switched as its road schedule switches, synthesized block by block as
the run's estimator reads it.
"""

import functools
import math
import os

import numpy as np

from .arte_dsp import (AudioClip, extract_raw, frame_length,
                       sample_frames, write_wav)
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
    if duration_s < 0.5:
        raise ConfigError("clip duration must be at least 0.5 s")
    x = _ar_output(road, int(round(duration_s * SAMPLE_RATE)), seed)
    x *= 0.9 / _peak(x)
    return AudioClip(samples=x, sample_rate=SAMPLE_RATE, label=road)


def _ar_output(road, n, seed):
    """n samples of the road's AR filter, driven from rest by white noise
    plus its impulses, all drawn from one generator: the normals first,
    then the hit mask, the amplitudes and the signs."""
    # imported here so that runs without the estimator never load scipy
    from scipy.signal import lfilter
    den, impulse_rate = ROAD_SOUNDS[road]
    rng = np.random.default_rng(seed)
    drive = rng.standard_normal(n)
    if impulse_rate > 0.0:
        hits = rng.random(n) < impulse_rate / SAMPLE_RATE
        count = int(hits.sum())
        drive[hits] += (rng.uniform(3.0, 6.0, count)
                        * rng.choice((-1.0, 1.0), count))
    return lfilter([1.0], den, drive)


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
    clean = synth_clip(road, duration_s, seed=_clean_seed(road, seed)).samples
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


def _clean_seed(road, seed):
    """The seed of the `synth_clip` inside `class_clip(road, seed)`."""
    return 1000 * seed + list(RoadType).index(road)


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


# --- one run's road audio -------------------------------------------------

# a run's audio draws from the streams SeedSequence([scenario seed,
# STREAM_TAG]) spawns: their entropy words (seed, STREAM_TAG, 0, 0, spawn
# index) are those of no integer seed below 2**128, so of no generator
# that the corpus, another run or another stream of this run draws from
STREAM_TAG = 0x41525445
# samples of the first road heard before t = 0: one window, so that an
# estimator tick at t = 0 always has a full one
PREROLL = frame_length(SAMPLE_RATE)
# samples synthesized at a time: a stream holds one block and one window
STREAM_BLOCK = 16000


@functools.cache
def _stream_levels():
    """road -> (gain of its AR output, gain of the unit-variance bed): the
    levels of its corpus clip of seed 0, `class_clip(road, 0)`.  That clip
    is its AR output peak-normalized to 0.9, plus a bed OVERLAP_SNR_DB
    below that in mean square, the mix divided by its peak if above 1."""
    n = int(round(DEFAULT_DURATION_S * SAMPLE_RATE))
    noise, noise_ms = _noise_bed(0)
    levels = {}
    for road in RoadType:
        ref = _ar_output(road, n, _clean_seed(road, 0))
        gain = 0.9 / _peak(ref)
        ref *= gain
        bed_gain = math.sqrt(np.mean(np.square(ref))
                             / 10.0 ** (OVERLAP_SNR_DB / 10.0))
        ref += noise * (bed_gain / math.sqrt(noise_ms))
        scale = 1.0 / max(1.0, _peak(ref))
        levels[road] = (gain * scale, bed_gain * scale)
    return levels


def _stream_blocks(segments, seed):
    """The stream of `RoadStream(segments, seed)` in consecutive blocks of
    STREAM_BLOCK samples, from sample -PREROLL on."""
    from scipy.signal import lfilter
    drive_rng, hit_rng, kick_rng, bed_rng = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence([seed, STREAM_TAG]).spawn(4))
    levels = _stream_levels()
    starts = [k for k, _ in segments[1:]] + [math.inf]
    roads = [road for _, road in segments]
    i, pos, zi = 0, -PREROLL, None
    while True:
        # one draw per sample from each generator, whatever the road
        drive = drive_rng.standard_normal(STREAM_BLOCK)
        hit = hit_rng.random(STREAM_BLOCK)
        kick = kick_rng.uniform(-3.0, 3.0, STREAM_BLOCK)
        out = bed_rng.standard_normal(STREAM_BLOCK)
        lo = 0
        while lo < STREAM_BLOCK:
            if pos + lo == starts[i]:
                i, zi = i + 1, None
            hi = min(STREAM_BLOCK, starts[i] - pos)
            den, impulse_rate = ROAD_SOUNDS[roads[i]]
            gain, bed_gain = levels[roads[i]]
            if zi is None:  # a segment's filter starts at rest
                zi = np.zeros(len(den) - 1)
            x = drive[lo:hi]
            if impulse_rate > 0.0:
                hits = hit[lo:hi] < impulse_rate / SAMPLE_RATE
                # (-6, -3] or [3, 6), as the corpus's hits
                kicks = kick[lo:hi][hits]
                x[hits] += kicks + np.copysign(3.0, kicks)
            y, zi = lfilter([gain], den, x, zi=zi)
            part = out[lo:hi]
            part *= bed_gain
            part += y
            lo = hi
        pos += STREAM_BLOCK
        yield out


class RoadStream:
    """One run's road audio at SAMPLE_RATE from sample 0 at t = 0, read
    as the 0.1 s windows that end at given samples.

    `segments` holds (first sample, road) per schedule entry, strictly
    increasing from sample 0; the first road is also heard over the
    PREROLL samples before 0.  Each segment is its road's AR filter from
    rest, its state carried through the segment, under one noise bed.

    Every draw depends on the seed and the sample's position alone: the
    drive, the hit mask, the hit amplitude and sign, and the bed each come
    from their own generator, spawned from SeedSequence([seed,
    STREAM_TAG]), one draw per sample.  So the stream up to a sample does
    not depend on the schedule after it.

    Level rule: a road's samples are its AR output and the bed, each
    times a fixed gain, the one it has in the road's corpus clip of seed 0
    (`_stream_levels`): the AR output peak-normalized to 0.9, the bed
    OVERLAP_SNR_DB below it in mean square, both divided by the mix's peak
    where that exceeds 1.  No level depends on a segment's length or on
    any sample of the run.

    Windows are read at non-decreasing ends; the stream keeps one block
    and one window, whatever the length of the run.
    """

    def __init__(self, segments, seed):
        self._blocks = _stream_blocks(list(segments), seed)
        self._buf = np.empty(0)  # samples [self._end - len(buf), self._end)
        self._end = -PREROLL

    def window(self, end):
        """The frame_length(SAMPLE_RATE) samples before sample `end`."""
        length = frame_length(SAMPLE_RATE)
        while self._end < end:
            self._buf = np.concatenate((self._buf[-length:],
                                        next(self._blocks)))
            self._end += STREAM_BLOCK
        hi = len(self._buf) - (self._end - end)
        if hi < length:
            raise ValueError("window before sample %d is no longer held"
                             % end)
        return AudioClip(self._buf[hi - length:hi], SAMPLE_RATE)
