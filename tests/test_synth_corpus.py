import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, periodogram

from arte_tcs.arte_classifier import (ROAD_ORDER, bootstrap_intra, kl_distance,
                                      prune_features, split_dataset)
from arte_tcs.arte_dsp import lpc, load_wav, reflection_coefficients, sample_frames
from arte_tcs.errors import ConfigError
from arte_tcs import _kernel
from arte_tcs._kernel import ar_filter
from arte_tcs.synth_corpus import (OVERLAP_SNR_DB, ROAD_SOUNDS, _noise_bed,
                                   build_corpus, class_clip, export_wavs,
                                   synth_clip)
from arte_tcs.tire_road import RoadType


def spectral_centroid(clip):
    freqs, psd = periodogram(clip.samples, fs=clip.sample_rate)
    return float(np.sum(freqs * psd) / np.sum(psd))


def test_clip_is_deterministic_in_seed():
    a = synth_clip(RoadType.GRAVEL, seed=7)
    b = synth_clip(RoadType.GRAVEL, seed=7)
    c = synth_clip(RoadType.GRAVEL, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_clip_length_and_peak():
    clip = synth_clip(RoadType.ASPHALT, seed=0)
    assert len(clip.samples) == 56000
    assert clip.sample_rate == 16000
    assert np.max(np.abs(clip.samples)) == pytest.approx(0.9)


def test_road_sounds_are_stable_fourth_order_filters():
    assert list(ROAD_SOUNDS) == list(RoadType)
    for road, (den, impulse_rate) in ROAD_SOUNDS.items():
        assert den.dtype == np.float64 and den.shape == (5,)
        assert den[0] == 1.0
        assert np.all(np.abs(np.roots(den)) < 1.0)
        if road in (RoadType.STONE, RoadType.GRAVEL):
            assert impulse_rate > 0.0
        else:
            assert impulse_rate == 0.0


@settings(max_examples=80, deadline=None)
@given(road=st.sampled_from(list(RoadType)),
       gain=st.floats(-10.0, 10.0, allow_subnormal=False),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       cuts=st.lists(st.integers(0, 3000), max_size=6),
       from_rest=st.booleans())
def test_ar_filter_in_chunks_is_one_lfilter_call(road, gain, seed, n, cuts,
                                                 from_rest):
    # as `_stream_blocks` runs it: x cut at random points, the state
    # carried from chunk to chunk, gives the bytes of one lfilter call
    den = ROAD_SOUNDS[road][0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.02] *= 6.0
    zi = np.zeros(4) if from_rest else rng.standard_normal(4)
    y, zf = lfilter([gain], den, x, zi=zi)
    z = zi.copy()
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    for lo, hi in zip(bounds, bounds[1:]):
        ar_filter(gain, den, x[lo:hi], z)
    assert x.tobytes() == y.tobytes()
    assert z.tobytes() == zf.tobytes()


def signed_zeros(rng, v, share):
    """v with about `share` of its entries set to +0 or -0 at random."""
    hit = rng.random(len(v)) < share
    v[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return v


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), negative_lead=st.booleans(),
       gain=st.floats(-10.0, 10.0, allow_subnormal=False)
       | st.sampled_from((0.0, -0.0)),
       zero_share=st.sampled_from((0.0, 0.3, 1.0)), n=st.integers(1, 300))
def test_gain_only_ar_filter_is_lfilter_bit_for_bit(seed, negative_lead, gain,
                                                   zero_share, n):
    # any denominator the kernel holds, its leading tap of either sign and
    # not 1, with +-0 in x, zi and the gain: the kernel's 0 / a[0] taps
    # keep scipy's signed zeros
    rng = np.random.default_rng(seed)
    taps = int(rng.integers(2, _kernel.load().max_taps + 1))
    den = signed_zeros(rng, rng.standard_normal(taps), 0.1)
    den[0] = rng.uniform(0.25, 4.0) * (-1.0 if negative_lead else 1.0)
    x = signed_zeros(rng, rng.standard_normal(n), zero_share)
    zi = signed_zeros(rng, rng.standard_normal(taps - 1), zero_share)
    y, zf = lfilter([gain], den, x, zi=zi)
    z = zi.copy()
    ar_filter(gain, den, x, z)
    assert x.tobytes() == y.tobytes()
    assert z.tobytes() == zf.tobytes()


def test_ar_filter_rejects_what_the_kernel_cannot_hold():
    # the kernel keeps at most max_taps coefficients on its stack
    taps = _kernel.load().max_taps
    x = np.ones(8)
    for den, z in ((np.ones(taps + 1), np.zeros(taps)),
                   (np.ones(1), np.zeros(0)),
                   (np.ones(5), np.zeros(5))):
        with pytest.raises(ConfigError, match="taps"):
            ar_filter(1.0, den, x, z)
    with pytest.raises(ConfigError, match=r"a\[0\]"):
        ar_filter(1.0, np.array([0.0, 1.0]), x, np.zeros(1))
    assert x.tobytes() == np.ones(8).tobytes()


def test_class_clip_noise_bed_and_peak():
    """The added noise sits OVERLAP_SNR_DB below the clean clip; a mix
    that would clip is scaled back to peak 1."""
    scaled_back = 0
    for seed in range(4):
        for k, road in enumerate(RoadType):
            clean = synth_clip(road, seed=1000 * seed + k).samples
            mixed = class_clip(road, seed)
            peak = np.max(np.abs(mixed.samples))
            assert peak <= 1.0
            if peak == 1.0:
                scaled_back += 1
                continue
            added = mixed.samples - clean
            snr_db = 10.0 * np.log10(np.mean(clean ** 2) / np.mean(added ** 2))
            assert snr_db == pytest.approx(OVERLAP_SNR_DB, abs=1e-9)
    assert 0 < scaled_back < 16


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_class_clip_on_a_shared_bed_is_the_same_clip(seed):
    class_clip(RoadType.ASPHALT, seed)  # keeps the seed's bed
    for road in RoadType:
        shared = class_clip(road, seed)
        _noise_bed.cache_clear()
        alone = class_clip(road, seed)
        assert shared.samples.tobytes() == alone.samples.tobytes()


def test_one_noise_bed_per_seed(tmp_path):
    _noise_bed.cache_clear()
    build_corpus(seed=3)
    assert _noise_bed.cache_info().misses == 1
    _noise_bed.cache_clear()
    export_wavs(str(tmp_path), seed=3, clips_per_class=2)
    assert _noise_bed.cache_info().misses == 2


def test_centroids_order_the_surfaces():
    """Snow is darkest and stone brightest on every seed tried."""
    for seed in (0, 1, 2):
        cent = {road: spectral_centroid(class_clip(road, seed))
                for road in RoadType}
        assert (cent[RoadType.SNOW] < cent[RoadType.ASPHALT]
                < cent[RoadType.GRAVEL] < cent[RoadType.STONE])
        assert cent[RoadType.STONE] - cent[RoadType.SNOW] > 400.0


def test_corpus_shape_and_labels():
    ds = build_corpus(seed=0)
    assert ds.features.shape == (120, 20)
    assert np.all(np.isfinite(ds.features))
    for road in RoadType:
        assert sum(lab is road for lab in ds.labels) == 30
    # normalization is fitted on the corpus itself
    norm = ds.normalized()
    assert np.max(np.abs(norm.mean(axis=0))) < 1e-9


def test_corpus_is_deterministic():
    a = build_corpus(seed=2)
    b = build_corpus(seed=2)
    assert np.array_equal(a.features, b.features)
    assert a.labels == b.labels


def test_lpc_fits_stay_minimum_phase():
    # every sampled frame of every class must give |k| < 1 throughout
    worst = 0.0
    for k, road in enumerate(RoadType):
        clip = class_clip(road, seed=0)
        for frame in sample_frames(clip, 30, seed=500 + k):
            refl = reflection_coefficients(lpc(frame))
            worst = max(worst, float(np.max(np.abs(refl))))
    assert worst < 1.0


def test_corpus_difficulty_window():
    """Nearest-centroid accuracy lands in [0.80, 0.98] on the held-out split."""
    ds = build_corpus(seed=1)
    train, test = split_dataset(ds, 0.3, seed=4)
    mask = prune_features(train)
    centroids = {road: train.normalized()[:, mask.indices][
        [i for i, lab in enumerate(train.labels) if lab is road]].mean(axis=0)
        for road in ROAD_ORDER}
    rows = test.normalized()[:, mask.indices]
    hits = sum(min(centroids, key=lambda r: float(
        np.sum((row - centroids[r]) ** 2))) is lab
        for row, lab in zip(rows, test.labels))
    acc = hits / len(test.labels)
    assert 0.80 <= acc <= 0.98


def test_classes_separate_beyond_sampling_noise():
    """Every inter-class KL clears 10x the same-class bootstrap floor."""
    ds = build_corpus(seed=1)
    sub = ds.select(prune_features(ds))
    roads = list(RoadType)
    inter = min(kl_distance(sub, roads[i], roads[j])
                for i in range(len(roads)) for j in range(i + 1, len(roads)))
    intra = max(bootstrap_intra(sub, road).max() for road in roads)
    assert inter > 10.0 * intra


def test_export_wavs_tree(tmp_path):
    paths = export_wavs(tmp_path, seed=0, clips_per_class=2)
    assert len(paths) == 8
    for road in RoadType:
        sub = tmp_path / road.value
        assert (sub / "0_0.wav").exists() and (sub / "0_1.wav").exists()
    clip = load_wav(paths[0])
    assert clip.sample_rate == 16000
    assert len(clip.samples) == 56000
