"""Acoustic front end: WAV I/O, framing, and features.

A mono clip is cut into 0.1 s frames; each frame yields a 20-element
raw feature vector ordered [lpc 1..10, band 1..5, cep 1..5].
"""

import functools
import math
import wave
from dataclasses import dataclass

import numpy as np

from ._kernel import levinson
from .errors import AudioFormatError, ConfigError

SUPPORTED_RATES = (16000, 44100)
FRAME_SECONDS = 0.1
LPC_ORDER = 10
N_BANDS = 5
N_CEPSTRA = 5
EPS_FLOOR = 1e-10
BAND_LOW_HZ = 50.0


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int


@dataclass
class Frame:
    samples: np.ndarray
    origin_offset: int


def frame_length(sample_rate):
    return int(round(FRAME_SECONDS * sample_rate))


def load_wav(path):
    """Read a RIFF PCM16 mono file into an AudioClip in [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_ch = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: a truncated header
        raise AudioFormatError("not a readable PCM wav: %s"
                               % (str(exc) or "file ends early")) from exc
    if n_ch != 1:
        raise AudioFormatError("expected mono, got %d channels" % n_ch)
    if width != 2:
        raise AudioFormatError("expected 16-bit samples, got %d-byte" % width)
    if rate not in SUPPORTED_RATES:
        raise AudioFormatError(
            "sample rate %d not in %r" % (rate, SUPPORTED_RATES))
    if not raw:
        raise AudioFormatError("clip has no samples")
    if len(raw) % width:
        raise AudioFormatError("data ends inside a sample: %d bytes"
                               % len(raw))
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return AudioClip(samples=samples, sample_rate=rate)


def write_wav(path, clip):
    ints = clip.samples * 32768.0
    np.round(ints, out=ints)
    np.clip(ints, -32768, 32767, out=ints)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(clip.sample_rate)
        wf.writeframes(ints.astype("<i2").tobytes())


def sample_frames(clip, n, seed):
    """n random non-overlapping 0.1 s frames, deterministic in seed.

    Offsets are uniform over all valid non-overlapping placements.
    """
    if n < 1:
        raise ConfigError("frame count must be at least 1")
    length = frame_length(clip.sample_rate)
    total = len(clip.samples)
    if n * length > total:
        raise ConfigError(
            "need %d samples for %d frames, clip has %d"
            % (n * length, n, total))
    rng = np.random.default_rng(seed)
    # bijection between non-overlapping placements and n-subsets
    picks = np.sort(rng.choice(total - n * length + n, size=n, replace=False))
    starts = picks + np.arange(n) * (length - 1)
    return [Frame(samples=clip.samples[s:s + length].copy(), origin_offset=int(s))
            for s in starts]


# A non-finite or overflowing frame is rejected by the finiteness checks
# of `_lpc` and `extract_raw`, not warned of.  `extract_raw` enters one
# np.errstate for all its parts; the public parts each enter their own.
@np.errstate(over="ignore", invalid="ignore")
def lpc(frame):
    """Autocorrelation-method predictor coefficients of the fixed order
    p = LPC_ORDER: a with x[t] ~ a[0]*x[t-1] + ... + a[p-1]*x[t-p]."""
    return _lpc(frame)


def _lpc(frame):
    x = np.asarray(frame.samples, dtype=np.float64)
    if len(x) <= 2 * LPC_ORDER:
        raise ConfigError("frame too short for LPC order %d" % LPC_ORDER)
    r = np.array([np.dot(x[: len(x) - k], x[k:])
                  for k in range(LPC_ORDER + 1)])
    if not math.isfinite(r[0]):
        raise AudioFormatError("frame energy is not finite")
    if r[0] <= 0.0:
        raise ConfigError("all-zero frame has no LPC model")
    r /= r[0]  # finite r[0] bounds all r[k], so r is a finite float64
    r[0] *= 1.0 + 1e-9  # keeps the normal equations strictly positive definite
    return levinson(r, LPC_ORDER)


def reflection_coefficients(coeffs):
    """Lattice form of a predictor; all |k| < 1 iff minimum phase."""
    a = -np.asarray(coeffs, dtype=np.float64)  # error filter 1 + sum a_j z^-j
    ks = []
    for p in range(len(a), 0, -1):
        k = a[p - 1]
        ks.append(k)
        if abs(k) >= 1.0:
            # filter already non-minimum-phase; lower orders undefined
            ks.extend([float("nan")] * (p - 1))
            break
        if p > 1:
            a = (a[: p - 1] - k * a[: p - 1][::-1]) / (1.0 - k * k)
    return np.array(ks[::-1])


def band_edges(sample_rate):
    return np.logspace(math.log10(BAND_LOW_HZ),
                       math.log10(sample_rate / 2.0), N_BANDS + 1)


@functools.lru_cache(maxsize=8)  # one plan per rate in use; bounded
def _spectral_plan(n):
    """nfft, Hann window and band slices for an n-sample 0.1 s frame.

    Band b holds the rfft bins with edges[b] <= f < edges[b + 1], and the
    top band also a bin at exactly edges[-1] (Nyquist).  The bin
    frequencies rise, so each band is one slice of bins; a band that
    holds no bin is an empty slice and sums to 0.
    """
    nfft = 1 << (n - 1).bit_length()
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    freqs = np.fft.rfftfreq(nfft, 1.0 / (10 * n))
    edges = band_edges(10 * n)
    starts = np.searchsorted(freqs, edges[:-1], side="left")
    stops = np.searchsorted(freqs, edges[1:], side="left")
    stops[-1] = np.searchsorted(freqs, edges[-1], side="right")
    bands = tuple(slice(int(a), int(b)) for a, b in zip(starts, stops))
    return nfft, window, bands


def _spectral_features(frame, count):
    """Band log-energies and cepstrum c[1..count] from one |rfft|.  A
    large frame overflows the power spectrum; callers silence that."""
    x = np.asarray(frame.samples, dtype=np.float64)
    nfft, window, bands = _spectral_plan(len(x))
    mag = np.abs(np.fft.rfft(x * window, nfft))
    psd = np.square(mag)
    psd /= nfft
    psd[1:] *= 2.0
    if nfft % 2 == 0:
        psd[-1] /= 2.0
    energies = np.array([math.log10(psd[band].sum() + EPS_FLOOR)
                         for band in bands])
    mag += EPS_FLOOR
    np.log(mag, out=mag)
    return energies, np.fft.irfft(mag, nfft)[1:count + 1]


@np.errstate(over="ignore")
def band_energies(frame):
    """log10 energy in 5 log-spaced bands of the Hann periodogram.

    One-sided scaling is chosen so the linear band energies sum to the
    windowed time-domain energy (minus the portion below 50 Hz).
    """
    return _spectral_features(frame, N_CEPSTRA)[0]


@np.errstate(over="ignore")
def cepstrum(frame, count=N_CEPSTRA):
    """Real cepstrum coefficients c[1..count]; c[0] (pure gain) dropped."""
    return _spectral_features(frame, count)[1]


def extract_raw(frame):
    """[lpc 1..10, band 1..5, cep 1..5] as a length-20 vector."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.concatenate([_lpc(frame),
                              *_spectral_features(frame, N_CEPSTRA)])
    if not np.all(np.isfinite(raw)):  # finite energy, overflowing spectrum
        raise AudioFormatError("frame features are not finite")
    return raw
