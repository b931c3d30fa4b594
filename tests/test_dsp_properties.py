"""Property tests for the acoustic front end.

Frames have random lengths between the shortest one LPC accepts (21
samples) and a 44.1 kHz frame (4410), so the per-length spectral plan
is built and reused across many lengths, interleaved.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arte_tcs import _kernel
from arte_tcs.arte_dsp import (EPS_FLOOR, LPC_ORDER, N_BANDS, BAND_LOW_HZ,
                               Frame, band_edges, band_energies, cepstrum,
                               extract_raw, lpc)
from arte_tcs.errors import AudioFormatError, ConfigError

MIN_LEN, MAX_LEN = 21, 4410
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def noise_frames(draw):
    """Seeded Gaussian noise over 400 decades of amplitude."""
    n = draw(st.integers(MIN_LEN, MAX_LEN))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-200.0, 200.0))
    return Frame(scale * np.random.default_rng(seed).standard_normal(n), 0)


@st.composite
def any_frames(draw):
    """Arbitrary finite samples, or noise of any amplitude."""
    if draw(st.booleans()):
        return draw(noise_frames())
    n = draw(st.integers(MIN_LEN, MAX_LEN))
    return Frame(draw(arrays(np.float64, n, elements=FINITE)), 0)


def raw_or_error(frame):
    """extract_raw's row, or None when it raises a documented error."""
    try:
        return extract_raw(frame)
    except AudioFormatError:
        return None
    except ConfigError as exc:
        if "all-zero frame has no LPC model" not in str(exc):
            raise
        return None


@settings(max_examples=60, deadline=None)
@given(st.lists(any_frames(), min_size=2, max_size=4))
def test_extract_raw_is_its_parts_or_a_documented_error(frames):
    first = [raw_or_error(f) for f in frames]
    # a second pass in reverse order reuses every cached plan
    again = [raw_or_error(f) for f in reversed(frames)][::-1]
    for frame, raw, raw2 in zip(frames, first, again):
        if raw is None:
            assert raw2 is None
            continue
        np.testing.assert_array_equal(raw, raw2)
        assert raw.shape == (20,)
        assert np.all(np.isfinite(raw))
        parts = np.concatenate([lpc(frame), band_energies(frame),
                                cepstrum(frame)])
        assert raw.tobytes() == parts.tobytes()


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("n", (1600, 4410))
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))
def test_band_energy_parseval_on_any_noise(n, seed, exponent):
    # bands plus the part below 50 Hz hold all the windowed energy
    x = 10.0 ** exponent * np.random.default_rng(seed).standard_normal(n)
    lin = np.sum(10.0 ** band_energies(Frame(x, 0))) - N_BANDS * EPS_FLOOR
    xw = x * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    nfft = 1 << (n - 1).bit_length()
    low = np.fft.rfftfreq(nfft, 1.0 / (10 * n)) < BAND_LOW_HZ
    below = 2.0 * np.sum(np.abs(np.fft.rfft(xw, nfft)[low]) ** 2) / nfft
    below -= np.abs(np.sum(xw)) ** 2 / nfft  # the DC bin is not doubled
    assert lin + below == pytest.approx(np.sum(xw ** 2), rel=1e-9)



# --- the same bits as the straightforward routes ------------------------
#
# lpc solves its normal equations with the kernel's Levinson recursion,
# and the band sums run over slices of bins; these pin both bit for bit to
# the public, obvious forms, scipy's `solve_toeplitz` (a test-only
# reference) and boolean masks.

def noise_frame(n, seed, exponent):
    return Frame(10.0 ** exponent
                 * np.random.default_rng(seed).standard_normal(n), 0)


def lpc_by_solve_toeplitz(frame, order=LPC_ORDER):
    from scipy.linalg import solve_toeplitz
    x = frame.samples
    r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)])
    r = r / r[0]
    r[0] *= 1.0 + 1e-9
    return solve_toeplitz((r[:order], r[:order]), r[1:order + 1])


@np.errstate(over="ignore")  # as band_energies: a loud frame overflows
def band_energies_by_masks(frame):
    x = frame.samples
    n = len(x)
    nfft = 1 << (n - 1).bit_length()
    xw = x * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    psd = np.abs(np.fft.rfft(xw, nfft)) ** 2 / nfft
    psd[1:] *= 2.0
    if nfft % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(nfft, 1.0 / (10 * n))
    edges = band_edges(10 * n)
    masks = [(freqs >= lo) & (freqs < hi) for lo, hi in zip(edges, edges[1:])]
    masks[-1] |= freqs == edges[-1]
    return np.array([math.log10(psd[mask].sum() + EPS_FLOOR) for mask in masks])


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("n", (1600, 4410))
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-100.0, 100.0))
def test_lpc_is_solve_toeplitz_bit_for_bit(n, seed, exponent):
    frame = noise_frame(n, seed, exponent)
    assert lpc(frame).tobytes() == lpc_by_solve_toeplitz(frame).tobytes()


@st.composite
def toeplitz_systems(draw):
    """r[0..n] of a random symmetric Toeplitz system, n up to the
    kernel's bound.  A third are normalized and ridged as `_lpc` does,
    positive definite: the autocorrelation of a sum of damped or pure
    sinusoids in white noise of any level.  The rest are arbitrary, as
    the recursion rests on symmetry alone: random signs and scales, or
    values rounded to one decimal, which makes some principal minors
    exactly singular."""
    n = draw(st.integers(1, _kernel.load().max_taps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(("lpc", "scaled", "rounded")))
    if form == "scaled":
        return rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-50.0, 50.0,
                                                                 n + 1), n
    if form == "rounded":
        scale = draw(st.sampled_from((0.3, 1.0, 3.0)))
        return np.round(scale * rng.standard_normal(n + 1), 1), n
    count = draw(st.integers(1, 8))
    k = np.arange(n + 1)
    weights = rng.uniform(0.0, 1.0, count)
    radii = rng.uniform(0.0, 1.0, count) ** draw(st.sampled_from((0.0, 0.1)))
    angles = rng.uniform(0.0, math.pi, count)
    r = (weights * radii ** k[:, None] * np.cos(angles * k[:, None])).sum(1)
    r[0] += 10.0 ** draw(st.floats(-12.0, 0.0))
    r /= r[0]
    r[0] *= 1.0 + 1e-9
    return r, n


@settings(max_examples=200, deadline=None)
@given(system=toeplitz_systems())
def test_levinson_is_scipys_bit_for_bit(system):
    from numpy.linalg import LinAlgError
    from scipy.linalg import solve_toeplitz
    from scipy.linalg._solve_toeplitz import levinson
    r, n = system
    try:
        expected = levinson(np.concatenate((r[n - 1:0:-1], r[:n])),
                            r[1:n + 1])[0]
    except LinAlgError:
        with pytest.raises(ConfigError, match="singular"):
            _kernel.levinson(r, n)
        return
    assert _kernel.levinson(r, n).tobytes() == expected.tobytes()
    assert (solve_toeplitz((r[:n], r[:n]), r[1:n + 1]).tobytes()
            == expected.tobytes())


@settings(max_examples=60, deadline=None)
@given(frame=noise_frames())
def test_band_sums_over_slices_are_the_sums_over_masks(frame):
    # every length: the band edges fall differently on every bin grid
    assert (band_energies(frame).tobytes()
            == band_energies_by_masks(frame).tobytes())
