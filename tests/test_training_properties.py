"""Training in preallocated buffers equals the textbook loop bit for bit.

`train_mlp` writes every epoch into buffers allocated once. The
reference below is the plain loop it must equal, with its own
allocating forward pass: every epoch builds new arrays with `@` and the
arithmetic operators. It takes heavy-ball steps at a learning rate of
1.0, the velocity v = MOMENTUM * v + grad from v = 0 and then w -= v,
and stops below LOSS_TARGET; both constants are read from
`arte_classifier`, so the two loops share them. On any data, mask, seed
and epoch count the two give the same weights and biases by their
bytes, or stop at the same epoch with the same `SimulationDiverged`
message. `_forward`, which `classify` also runs, gives the reference
forward pass's activations bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import arte_tcs.arte_classifier as arte_classifier
from arte_tcs.arte_classifier import (FAMILIES, LOSS_TARGET, MAX_EPOCHS,
                                      MOMENTUM, RAW_DIM, ROAD_ORDER,
                                      FeatureDataset, SelectionMask, _forward,
                                      _init_model, one_hot, prune_features,
                                      split_dataset, train_mlp)
from arte_tcs.errors import SimulationDiverged
from arte_tcs.synth_corpus import build_corpus

LEARNING_RATE = 1.0
FULL = SelectionMask(indices=np.arange(RAW_DIM))


# --- the reference: the allocating loop --------------------------------

def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_forward(model, x):
    acts = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        acts.append(_logistic(z) if i == last else np.tanh(z))
    return acts


def reference_train_mlp(ds, mask, seed=0, max_epochs=MAX_EPOCHS):
    indices = np.array(mask.indices, dtype=int)
    xall = ds.normalized()[:, indices]
    y = one_hot(ds.labels)
    model = _init_model(seed, ds.norm_mean[indices], ds.norm_scale[indices],
                        indices)

    n = xall.shape[0]
    last = len(model.weights) - 1
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    for epoch in range(max_epochs):
        acts = reference_forward(model, xall)
        a = acts[-1]
        loss = float(np.mean((a - y) ** 2))
        if not np.isfinite(loss):
            raise SimulationDiverged("loss became non-finite at epoch %d"
                                     % epoch)
        if loss < LOSS_TARGET:
            break
        delta = 2.0 * (a - y) / (n * y.shape[1]) * a * (1.0 - a)
        for i in range(last, -1, -1):
            grad_w = delta.T @ acts[i]
            grad_b = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model.weights[i]) * (1.0 - acts[i] ** 2)
            vel_w[i] = MOMENTUM * vel_w[i] + grad_w
            vel_b[i] = MOMENTUM * vel_b[i] + grad_b
            model.weights[i] -= LEARNING_RATE * vel_w[i]
            model.biases[i] -= LEARNING_RATE * vel_b[i]
    return model


# --- comparison ----------------------------------------------------------

def outcome(train, features, labels, mask, seed, epochs):
    """The trained model's bytes, or the divergence message.

    Each side gets its own dataset, with its normalization fitted.
    numpy's warnings are silenced on both sides alike: huge features
    overflow the normalization, which both then report as a divergence.
    """
    ds = FeatureDataset(features.copy(), list(labels))
    try:
        with np.errstate(all="ignore"):
            model = train(ds.fit_normalization(), mask, seed=seed,
                          max_epochs=epochs)
    except SimulationDiverged as exc:
        return "diverged: %s" % exc
    return [v.tobytes() for v in (model.norm_mean, model.norm_scale,
                                  model.mask_indices, *model.weights,
                                  *model.biases)]


def assert_same_training(features, labels, mask, seed, epochs):
    got = outcome(train_mlp, features, labels, mask, seed, epochs)
    want = outcome(reference_train_mlp, features, labels, mask, seed, epochs)
    assert got == want


@st.composite
def masks(draw):
    """All 20 features or a sorted 3+2+2 selection."""
    if draw(st.booleans()):
        return FULL
    kept = []
    for start, stop, k in FAMILIES:
        kept += draw(st.lists(st.integers(start, stop - 1), min_size=k,
                              max_size=k, unique=True))
    return SelectionMask(indices=np.array(sorted(kept), dtype=int))


@st.composite
def training_data(draw):
    rows = draw(st.integers(1, 40))
    # a magnitude per example, so that huge features come whole datasets
    # at a time, not as one cell that sinks every example
    scale = draw(st.sampled_from((1.0, 1e3, 1e150, 1e300)))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    features = scale * draw(arrays(np.float64, (rows, RAW_DIM),
                                   elements=unit))
    labels = draw(st.lists(st.sampled_from(ROAD_ORDER), min_size=rows,
                           max_size=rows))
    return features, labels


@settings(max_examples=150, deadline=None)
@given(data=training_data(), mask=masks(),
       seed=st.integers(0, 2 ** 64 - 1), epochs=st.integers(0, 60))
def test_training_equals_the_textbook_loop(data, mask, seed, epochs):
    features, labels = data
    assert np.all(np.isfinite(features))
    assert_same_training(features, labels, mask, seed, epochs)


def test_nan_feature_diverges_alike():
    rng = np.random.default_rng(5)
    features = rng.standard_normal((12, RAW_DIM))
    features[3, 7] = np.nan
    labels = [ROAD_ORDER[i % len(ROAD_ORDER)] for i in range(12)]
    got = outcome(train_mlp, features, labels, FULL, 0, 10)
    assert got == "diverged: loss became non-finite at epoch 0"
    assert got == outcome(reference_train_mlp, features, labels, FULL, 0, 10)


def test_training_stops_at_the_loss_target_alike():
    # one row is fitted below LOSS_TARGET in well under 1000 epochs
    features = np.random.default_rng(1).standard_normal((1, RAW_DIM))
    labels = [ROAD_ORDER[2]]
    stopped = outcome(train_mlp, features, labels, FULL, 0, 1000)
    assert stopped == outcome(train_mlp, features, labels, FULL, 0, 2000)
    assert_same_training(features, labels, FULL, 0, 1000)


def test_default_model_equals_the_textbook_loop():
    # the corpus, split and seeds that `arte-tcs train` uses by default
    train, _ = split_dataset(build_corpus(seed=1), seed=4)
    mask = prune_features(train)
    assert_same_training(train.features, train.labels, mask, 0,
                         MAX_EPOCHS)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5), n_in=st.integers(1, RAW_DIM),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from((1.0, 30.0)))
def test_forward_equals_the_textbook_forward(rows, n_in, seed, scale):
    # classify runs _forward on one row, training on the whole batch;
    # the scale drives the logistic into saturation
    model = _init_model(seed, np.zeros(n_in), np.ones(n_in), np.arange(n_in))
    rng = np.random.default_rng(seed)
    for w, b in zip(model.weights, model.biases):
        w *= scale
        b += scale * rng.standard_normal(b.shape)
    x = rng.standard_normal((rows, n_in))
    with np.errstate(over="ignore"):
        got = _forward(model, x)
        want = reference_forward(model, x)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_training_warns_on_exp_overflow(monkeypatch):
    # runaway output weights overflow exp in the logistic; training lets
    # numpy warn of it, where classify silences it
    def runaway(*args):
        model = _init_model(*args)
        model.biases[-1][:] = -1e3
        return model

    monkeypatch.setattr(arte_classifier, "_init_model", runaway)
    train, _ = split_dataset(build_corpus(seed=1), seed=4)
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        train_mlp(train, FULL, seed=0, max_epochs=1)
