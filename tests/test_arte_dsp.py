import math
import warnings
import wave

import numpy as np
import pytest

from arte_tcs import _kernel
from arte_tcs._kernel import levinson
from arte_tcs.arte_dsp import (
    AudioClip,
    Frame,
    band_edges,
    band_energies,
    cepstrum,
    extract_raw,
    frame_length,
    lpc,
    load_wav,
    reflection_coefficients,
    sample_frames,
    write_wav,
)
from arte_tcs.errors import AudioFormatError, ConfigError

SR = 16000


def tone(freq, seconds=1.0, amp=0.5, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return AudioClip(amp * np.sin(2.0 * np.pi * freq * t), sr)


def noise_frame(seed=3, scale=0.1):
    rng = np.random.default_rng(seed)
    return Frame(scale * rng.standard_normal(1600), 0)


def write_raw_wav(path, data_i16, channels=1, width=2, rate=SR):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(data_i16, dtype="<i2").tobytes())


def test_wav_round_trip(tmp_path):
    clip = tone(440.0)
    p = tmp_path / "t.wav"
    write_wav(p, clip)
    back = load_wav(p)
    assert back.sample_rate == SR
    assert len(back.samples) == SR
    assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768.0


def test_wav_scaling_endpoints(tmp_path):
    p = tmp_path / "ends.wav"
    write_raw_wav(p, [-32768, 0, 32767])
    clip = load_wav(p)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == 0.0
    assert clip.samples[2] == pytest.approx(32767.0 / 32768.0)


def test_wav_full_scale_survives_round_trip(tmp_path):
    p = tmp_path / "fs.wav"
    write_wav(p, AudioClip(np.array([-1.0, 1.0]), SR))
    back = load_wav(p)
    assert back.samples[0] == -1.0
    assert back.samples[1] == pytest.approx(1.0, abs=1.0 / 32768.0)


def test_load_wav_error_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "missing.wav")

    stereo = tmp_path / "stereo.wav"
    write_raw_wav(stereo, [0, 0, 0, 0], channels=2)
    with pytest.raises(AudioFormatError, match="expected mono, got 2 channels"):
        load_wav(stereo)

    rate = tmp_path / "rate.wav"
    write_raw_wav(rate, [0, 0], rate=8000)
    with pytest.raises(AudioFormatError, match="sample rate 8000 not in"):
        load_wav(rate)

    garbage = tmp_path / "garbage.wav"
    garbage.write_bytes(b"this is not a riff file at all")
    with pytest.raises(AudioFormatError):
        load_wav(garbage)

    empty = tmp_path / "empty.wav"
    write_raw_wav(empty, [])
    with pytest.raises(AudioFormatError):
        load_wav(empty)

    # cut inside the header, and inside the last sample of the data
    whole = tmp_path / "whole.wav"
    write_raw_wav(whole, [1, 2, 3])
    for name, size in (("header.wav", 30), ("odd.wav", -1)):
        cut = tmp_path / name
        cut.write_bytes(whole.read_bytes()[:size])
        with pytest.raises(AudioFormatError):
            load_wav(cut)


def test_load_wav_rejects_wrong_sample_width(tmp_path):
    p = tmp_path / "w8.wav"
    with wave.open(str(p), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(SR)
        wf.writeframes(bytes([128, 128, 128]))
    with pytest.raises(AudioFormatError):
        load_wav(p)


def test_sample_frames_basic():
    clip = tone(200.0, seconds=3.5)
    frames = sample_frames(clip, 30, seed=11)
    assert len(frames) == 30
    assert all(len(f.samples) == 1600 for f in frames)
    starts = sorted(f.origin_offset for f in frames)
    assert starts[0] >= 0
    assert starts[-1] + 1600 <= len(clip.samples)
    assert all(b - a >= 1600 for a, b in zip(starts, starts[1:]))


def test_sample_frames_deterministic_in_seed():
    clip = tone(200.0, seconds=3.5)
    a = [f.origin_offset for f in sample_frames(clip, 30, seed=7)]
    b = [f.origin_offset for f in sample_frames(clip, 30, seed=7)]
    c = [f.origin_offset for f in sample_frames(clip, 30, seed=8)]
    assert a == b
    assert a != c


def test_sample_frames_capacity():
    clip = AudioClip(np.zeros(3 * 1600), SR)
    frames = sample_frames(clip, 3, seed=0)
    assert sorted(f.origin_offset for f in frames) == [0, 1600, 3200]
    with pytest.raises(ConfigError, match="need 6400 samples for 4 frames"):
        sample_frames(clip, 4, seed=0)


def test_frame_length_by_rate():
    assert frame_length(16000) == 1600
    assert frame_length(44100) == 4410


def test_lpc_recovers_ar2_resonance():
    # decaying oscillation from poles at 0.9 exp(+-j pi/4), tiny dither
    a1, a2 = 2.0 * 0.9 * math.cos(math.pi / 4.0), -0.81
    x = np.zeros(1600)
    x[0] = 1.0
    x[1] = a1 * x[0]
    for t in range(2, 1600):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2]
    x += 1e-6 * np.random.default_rng(0).standard_normal(1600)
    coeffs = lpc(Frame(x, 0))
    assert coeffs[0] == pytest.approx(a1, rel=0.05)
    assert coeffs[1] == pytest.approx(a2, rel=0.05)


def test_lpc_white_noise_reflection_small():
    ks = reflection_coefficients(lpc(noise_frame(seed=0, scale=1.0)))
    assert len(ks) == 10
    assert np.max(np.abs(ks)) < 0.2


def test_lpc_gain_invariance():
    f = noise_frame()
    scaled = Frame(3.7 * f.samples, 0)
    assert np.max(np.abs(lpc(scaled) - lpc(f))) < 1e-9


def test_lpc_errors():
    with pytest.raises(ConfigError, match="all-zero frame has no LPC model"):
        lpc(Frame(np.zeros(1600), 0))
    with pytest.raises(ConfigError):
        lpc(Frame(np.ones(15), 0))


def test_levinson_guards():
    # the kernel solves at most max_taps equations on its stack, and a
    # singular principal minor ends in the documented error
    taps = _kernel.load().max_taps
    r = np.linspace(1.0, 0.5, taps + 2)
    for order, given in ((0, r), (taps + 1, r), (3, r[:3])):
        with pytest.raises(ConfigError, match="1 to %d equations" % taps):
            levinson(given, order)
    with pytest.raises(ConfigError, match="singular principal minor"):
        levinson(np.ones(3), 2)


NON_FINITE_FRAMES = {
    "nan": lambda: Frame(np.where(np.arange(1600) == 7, np.nan, 0.1), 0),
    "inf": lambda: Frame(np.where(np.arange(1600) == 7, -np.inf, 0.1), 0),
    "energy_overflows": lambda: Frame(np.full(1600, 1e200), 0),
}


@pytest.mark.parametrize("make", NON_FINITE_FRAMES.values(),
                         ids=NON_FINITE_FRAMES)
def test_non_finite_frame_is_an_audio_format_error(make):
    with pytest.raises(AudioFormatError):
        lpc(make())
    with pytest.raises(AudioFormatError):
        extract_raw(make())


def overflowing_spectrum_frame():
    # finite energy (4410 * 4e304 < 1.8e308), but |rfft|**2 overflows
    return Frame(2e152 * np.random.default_rng(1).standard_normal(4410), 0)


def test_overflowing_spectrum_is_an_audio_format_error():
    frame = overflowing_spectrum_frame()
    assert np.all(np.isfinite(lpc(frame)))
    with pytest.raises(AudioFormatError):
        extract_raw(frame)


REJECTED_FRAMES = dict(NON_FINITE_FRAMES,
                       spectrum_overflows=overflowing_spectrum_frame)


@pytest.mark.parametrize("make", REJECTED_FRAMES.values(),
                         ids=REJECTED_FRAMES)
def test_rejected_frame_emits_no_warning(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AudioFormatError):
            extract_raw(make())


def test_band_energy_sine_dominates_its_band():
    # 600 Hz sits inside the third of the five log-spaced bands
    edges = band_edges(SR)
    assert edges[2] < 600.0 < edges[3]
    t = np.arange(1600) / SR
    b = band_energies(Frame(np.sin(2.0 * np.pi * 600.0 * t), 0))
    assert np.argmax(b) == 2
    assert b[2] > max(v for i, v in enumerate(b) if i != 2) + 3.0


def test_band_energy_zero_frame_floors():
    b = band_energies(Frame(np.zeros(1600), 0))
    np.testing.assert_allclose(b, math.log10(1e-10))


def test_band_energy_parseval():
    f = noise_frame()
    lin = np.sum(10.0 ** band_energies(f))
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(1600) / 1600)
    windowed_energy = np.sum((f.samples * w) ** 2)
    assert lin == pytest.approx(windowed_energy, rel=0.01)


def test_band_energy_gain_shift():
    f = noise_frame()
    g = 5.0
    shift = band_energies(Frame(g * f.samples, 0)) - band_energies(f)
    np.testing.assert_allclose(shift, 2.0 * math.log10(g), atol=1e-6)


def test_cepstrum_zero_frame_is_flat():
    c = cepstrum(Frame(np.zeros(1600), 0))
    assert c.shape == (5,)
    np.testing.assert_allclose(c, 0.0)


def test_cepstrum_scale_invariance():
    f = noise_frame()
    c1 = cepstrum(f)
    c2 = cepstrum(Frame(2.0 * f.samples, 0))
    assert np.max(np.abs(c1 - c2)) < 1e-9


def test_cepstrum_impulse_train_quefrency():
    period = 100
    x = np.zeros(1600)
    x[::period] = 1.0
    c = cepstrum(Frame(x, 0), count=120)
    # rahmonic peak at the period, well clear of the low-order envelope
    peak = int(np.argmax(c[20:])) + 20 + 1
    assert abs(peak - period) <= 1


def test_extract_raw_layout_and_determinism():
    f = noise_frame()
    v = extract_raw(f)
    assert v.shape == (20,)
    np.testing.assert_array_equal(v[:10], lpc(f))
    np.testing.assert_array_equal(v[10:15], band_energies(f))
    np.testing.assert_array_equal(v[15:], cepstrum(f))
    np.testing.assert_array_equal(v, extract_raw(f))


def test_extract_raw_zero_frame_propagates():
    with pytest.raises(ConfigError, match="all-zero frame has no LPC model"):
        extract_raw(Frame(np.zeros(1600), 0))
