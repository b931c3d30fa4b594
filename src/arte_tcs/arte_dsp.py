"""Acoustic front end: WAV I/O, framing, noise mixing, and features.

A mono clip is cut into 0.1 s frames; each frame yields a 20-element
raw feature vector ordered [lpc 1..10, band 1..5, cep 1..5].
"""

import functools
import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import (
    AudioFormatError,
    ChannelLayoutError,
    ConfigError,
    DegenerateSignalError,
    InsufficientAudioError,
    UnsupportedSampleRateError,
)

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
    label: object = None

    def validate(self):
        if self.sample_rate not in SUPPORTED_RATES:
            raise UnsupportedSampleRateError(
                "sample rate %r not in %r" % (self.sample_rate, SUPPORTED_RATES))
        if len(self.samples) == 0:
            raise AudioFormatError("clip has no samples")
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("clip contains non-finite samples")
        return self


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
    except wave.Error as exc:
        raise AudioFormatError("not a readable PCM wav: %s" % exc) from exc
    if n_ch != 1:
        raise ChannelLayoutError("expected mono, got %d channels" % n_ch)
    if width != 2:
        raise AudioFormatError("expected 16-bit samples, got %d-byte" % width)
    if rate not in SUPPORTED_RATES:
        raise UnsupportedSampleRateError(
            "sample rate %d not in %r" % (rate, SUPPORTED_RATES))
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples=samples, sample_rate=rate).validate()


def write_wav(path, clip):
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767)
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
        raise InsufficientAudioError(
            "need %d samples for %d frames, clip has %d"
            % (n * length, n, total))
    rng = np.random.default_rng(seed)
    # bijection between non-overlapping placements and n-subsets
    picks = np.sort(rng.choice(total - n * length + n, size=n, replace=False))
    starts = picks + np.arange(n) * (length - 1)
    return [Frame(samples=clip.samples[s:s + length].copy(), origin_offset=int(s))
            for s in starts]


# a non-finite or overflowing frame is rejected by the finiteness checks
# below, not warned of; the decorator form costs a third of a `with` block
@np.errstate(over="ignore", invalid="ignore")
def lpc(frame, order=LPC_ORDER):
    """Autocorrelation-method predictor coefficients.

    Returns a with x[t] ~ a[0]*x[t-1] + ... + a[order-1]*x[t-order].
    """
    # imported here so that runs without the estimator never load scipy
    from scipy.linalg import solve_toeplitz
    x = np.asarray(frame.samples, dtype=np.float64)
    if len(x) <= 2 * order:
        raise ConfigError("frame too short for LPC order %d" % order)
    r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)])
    if not math.isfinite(r[0]):
        raise AudioFormatError("frame energy is not finite")
    if r[0] <= 0.0:
        raise DegenerateSignalError("all-zero frame has no LPC model")
    r = r / r[0]
    r[0] *= 1.0 + 1e-9  # keeps the normal equations strictly positive definite
    return solve_toeplitz((r[:order], r[:order]), r[1:order + 1],
                          check_finite=False)  # finite r[0] bounds all r[k]


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
    """nfft, Hann window and band masks for an n-sample 0.1 s frame."""
    nfft = 1 << (n - 1).bit_length()
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    freqs = np.fft.rfftfreq(nfft, 1.0 / (10 * n))
    edges = band_edges(10 * n)
    # boolean masks, not slices: a band that holds no bin sums to 0
    masks = [(freqs >= lo) & (freqs < hi) for lo, hi in zip(edges, edges[1:])]
    masks[-1] |= freqs == edges[-1]  # the top band includes Nyquist
    for arr in (window, *masks):
        arr.flags.writeable = False
    return nfft, window, tuple(masks)


@np.errstate(over="ignore")  # extract_raw rejects a spectrum that overflows
def _spectral_features(frame, count):
    """Band log-energies and cepstrum c[1..count] from one |rfft|."""
    x = np.asarray(frame.samples, dtype=np.float64)
    nfft, window, masks = _spectral_plan(len(x))
    mag = np.abs(np.fft.rfft(x * window, nfft))
    psd = mag ** 2 / nfft
    psd[1:] *= 2.0
    if nfft % 2 == 0:
        psd[-1] /= 2.0
    bands = np.array([math.log10(psd[mask].sum() + EPS_FLOOR)
                      for mask in masks])
    return bands, np.fft.irfft(np.log(mag + EPS_FLOOR), nfft)[1:count + 1]


def band_energies(frame):
    """log10 energy in 5 log-spaced bands of the Hann periodogram.

    One-sided scaling is chosen so the linear band energies sum to the
    windowed time-domain energy (minus the portion below 50 Hz).
    """
    return _spectral_features(frame, N_CEPSTRA)[0]


def cepstrum(frame, count=N_CEPSTRA):
    """Real cepstrum coefficients c[1..count]; c[0] (pure gain) dropped."""
    return _spectral_features(frame, count)[1]


def extract_raw(frame):
    """[lpc 1..10, band 1..5, cep 1..5] as a length-20 vector."""
    raw = np.concatenate([lpc(frame), *_spectral_features(frame, N_CEPSTRA)])
    if not np.all(np.isfinite(raw)):  # finite energy, overflowing spectrum
        raise AudioFormatError("frame features are not finite")
    return raw


def mix_noise(clip, noise, snr_db):
    """Add noise at the requested SNR; +inf leaves the clip untouched."""
    if noise.sample_rate != clip.sample_rate:
        raise AudioFormatError("sample-rate mismatch: %d vs %d"
                               % (clip.sample_rate, noise.sample_rate))
    if math.isinf(snr_db) and snr_db > 0:
        return AudioClip(clip.samples.copy(), clip.sample_rate, clip.label)
    if not math.isfinite(snr_db):
        raise ConfigError("snr_db must be finite or +inf")
    n = len(clip.samples)
    reps = -(-n // len(noise.samples))
    tiled = np.tile(noise.samples, reps)[:n]
    p_sig = np.mean(clip.samples ** 2)
    p_noise = np.mean(tiled ** 2)
    if p_noise <= 0.0:
        raise DegenerateSignalError("noise clip has zero power")
    gain = math.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = clip.samples + gain * tiled
    peak = np.max(np.abs(mixed))
    if peak > 1.0:
        mixed = mixed / peak
    return AudioClip(mixed, clip.sample_rate, clip.label)

