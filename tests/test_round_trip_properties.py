"""Property tests of the two file formats: a saved classifier model and a
PCM16 WAV file each read back to what was written.

A model file holds 9 significant digits per value, so a loaded model
classifies every feature vector as the original does, and a second save
writes the same bytes. A WAV file holds 16-bit samples, so a clip read
back lies within one PCM16 step of the written one, and a second write
reads back bit for bit.

Any finite model either fails `validate` (a weight or bias beyond
`WEIGHT_LIMIT`) or `classify` stays total on it: on any finite features
it names a road with a confidence in [0, 1], and numpy warns of nothing,
even when every output unit saturates to 0.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arte_tcs.arte_classifier import (HIDDEN_SIZES, RAW_DIM, ROAD_ORDER,
                                      WEIGHT_LIMIT, Z_LIMIT, MlpModel,
                                      classify, load_model, save_model)
from arte_tcs.arte_dsp import (SUPPORTED_RATES, AudioClip, load_wav,
                               write_wav)
from arte_tcs.errors import ModelFormatError
from arte_tcs.tire_road import RoadType

PCM16_STEP = 1.0 / 32768.0


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@st.composite
def models(draw):
    """A valid model of random weights over a random feature subset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.flatnonzero(rng.random(RAW_DIM) < draw(st.floats(0.1, 1.0)))
    if mask.size == 0:
        mask = np.array([0])
    sizes = (mask.size,) + HIDDEN_SIZES + (len(ROAD_ORDER),)
    # up to the magnitudes a trained model reaches (|weight| < 10); far
    # beyond them the output units saturate to exact ties at 1.0, which
    # the file's 9 digits may break either way
    scale = 10.0 ** draw(st.floats(-2.0, 0.5))
    weights = [scale * rng.standard_normal((n_out, n_in))
               for n_in, n_out in zip(sizes, sizes[1:])]
    biases = [scale * rng.standard_normal(n_out) for n_out in sizes[1:]]
    return MlpModel(sizes=sizes, weights=weights, biases=biases,
                    seed=draw(st.integers(0, 2**31)),
                    norm_mean=rng.standard_normal(mask.size),
                    norm_scale=rng.uniform(0.01, 10.0, mask.size),
                    mask_indices=mask).validate()


@settings(max_examples=100, deadline=None)
@given(model=models(), seed=st.integers(0, 2**32 - 1))
def test_model_save_load_round_trip(scratch, model, seed):
    path = scratch / "model.txt"
    save_model(path, model)
    text = path.read_text()
    back = load_model(path)
    assert back.sizes == model.sizes and back.seed == model.seed
    assert np.array_equal(back.mask_indices, model.mask_indices)

    rng = np.random.default_rng(seed)
    for x in rng.standard_normal((20, model.sizes[0])):
        road, confidence = classify(model, x)
        back_road, back_confidence = classify(back, x)
        assert back_road is road
        assert back_confidence == pytest.approx(confidence, rel=1e-6)

    save_model(path, back)
    assert path.read_text() == text


@settings(max_examples=100, deadline=None)
@given(samples=arrays(np.float64, st.integers(1, 2000),
                      elements=st.floats(-1.0, 1.0)),
       rate=st.sampled_from(SUPPORTED_RATES))
def test_wav_write_load_round_trip(scratch, samples, rate):
    path = scratch / "clip.wav"
    write_wav(path, AudioClip(samples=samples, sample_rate=rate))
    back = load_wav(path)
    assert back.sample_rate == rate
    assert len(back.samples) == len(samples)
    assert np.max(np.abs(back.samples - samples)) <= PCM16_STEP

    write_wav(path, back)
    assert np.array_equal(load_wav(path).samples, back.samples)


finite = st.floats(allow_nan=False, allow_infinity=False)
# weights and biases from the whole finite range, or kept within reach of
# the limit or of a trained model, so that validate accepts some models
# with extreme weights too
weight_ranges = st.sampled_from((finite, st.floats(-WEIGHT_LIMIT, WEIGHT_LIMIT),
                                 st.floats(-1e4, 1e4)))


@st.composite
def extreme_models(draw):
    """A model of any finite values, not yet validated."""
    n_in = draw(st.integers(1, RAW_DIM))
    sizes = (n_in,) + HIDDEN_SIZES + (len(ROAD_ORDER),)
    values = draw(weight_ranges)
    weights = [draw(arrays(np.float64, (n_out, fan_in), elements=values))
               for fan_in, n_out in zip(sizes, sizes[1:])]
    biases = [draw(arrays(np.float64, n_out, elements=values))
              for n_out in sizes[1:]]
    scales = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return MlpModel(sizes=sizes, weights=weights, biases=biases, seed=0,
                    norm_mean=draw(arrays(np.float64, n_in, elements=finite)),
                    norm_scale=draw(arrays(np.float64, n_in,
                                           elements=scales)),
                    mask_indices=np.arange(n_in))


def classify_quietly(model, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return classify(model, x)


@settings(max_examples=300, deadline=None)
@given(model=extreme_models(), data=st.data())
def test_classify_is_total_on_any_valid_model(model, data):
    largest = max(np.max(np.abs(v)) for v in model.weights + model.biases)
    if largest > WEIGHT_LIMIT:
        with pytest.raises(ModelFormatError, match="must not exceed"):
            model.validate()
        return
    model.validate()
    x = data.draw(arrays(np.float64, model.sizes[0], elements=finite))
    road, confidence = classify_quietly(model, x)
    assert isinstance(road, RoadType)
    assert 0.0 <= confidence <= 1.0


def test_classify_at_the_weight_limit():
    # first-layer terms of +-Z_LIMIT * WEIGHT_LIMIT: any larger weight
    # could make them +-inf, and their sum nan
    sizes = (RAW_DIM,) + HIDDEN_SIZES + (len(ROAD_ORDER),)
    signs = [np.where(np.arange(n_in) % 2, -1.0, 1.0) * np.ones((n_out, 1))
             for n_in, n_out in zip(sizes, sizes[1:])]
    model = MlpModel(sizes=sizes, weights=[WEIGHT_LIMIT * s for s in signs],
                     biases=[np.full(n, WEIGHT_LIMIT) for n in sizes[1:]],
                     seed=0, norm_mean=np.zeros(RAW_DIM),
                     norm_scale=np.ones(RAW_DIM),
                     mask_indices=np.arange(RAW_DIM)).validate()
    road, confidence = classify_quietly(model, np.full(RAW_DIM, 2 * Z_LIMIT))
    assert isinstance(road, RoadType)
    assert 0.0 <= confidence <= 1.0
    model.weights[0][0, 0] = np.nextafter(WEIGHT_LIMIT, np.inf)
    with pytest.raises(ModelFormatError, match="must not exceed"):
        model.validate()


def test_classify_with_every_output_saturated():
    sizes = (RAW_DIM,) + HIDDEN_SIZES + (len(ROAD_ORDER),)
    model = MlpModel(sizes=sizes,
                     weights=[np.zeros((n_out, n_in))
                              for n_in, n_out in zip(sizes, sizes[1:])],
                     biases=[np.zeros(n) for n in sizes[1:-1]]
                     + [np.full(len(ROAD_ORDER), -1e4)],
                     seed=0, norm_mean=np.zeros(RAW_DIM),
                     norm_scale=np.ones(RAW_DIM),
                     mask_indices=np.arange(RAW_DIM)).validate()
    assert classify_quietly(model, np.ones(RAW_DIM)) == (
        ROAD_ORDER[0], 1.0 / len(ROAD_ORDER))
