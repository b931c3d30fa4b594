import numpy as np
import pytest

from arte_tcs.arte_classifier import (FeatureDataset, RAW_DIM, ROAD_ORDER,
                                      SelectionMask, arte_estimate,
                                      bootstrap_intra, classify,
                                      confusion_matrix, kl_distance, load_model,
                                      one_hot, prune_features, save_model,
                                      split_dataset, train_mlp)
from arte_tcs.arte_dsp import AudioClip
from arte_tcs.errors import ConfigError, ModelFormatError
from arte_tcs.synth_corpus import build_corpus, class_clip
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction

A, S = RoadType.ASPHALT, RoadType.SNOW


def two_class_ds(xa, xb):
    rows = np.vstack([xa, xb])
    labels = [A] * len(xa) + [S] * len(xb)
    return FeatureDataset(rows, labels)


def canonical_split():
    ds = build_corpus(seed=1)
    train, test = split_dataset(ds, 0.3, seed=4)
    return train, test, prune_features(train)


def test_prune_keeps_constant_feature_first():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 20))
    x[:, 4] = 3.25  # zero variance beats every sibling in its family
    labels = [ROAD_ORDER[i % 4] for i in range(40)]
    mask = prune_features(FeatureDataset(x, labels).fit_normalization())
    assert 4 in mask.indices


def test_prune_ties_resolve_to_lower_index():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(40)
    x = np.tile(col[:, None], (1, 20))
    labels = [ROAD_ORDER[i % 4] for i in range(40)]
    mask = prune_features(FeatureDataset(x, labels).fit_normalization())
    assert list(mask.indices) == [0, 1, 2, 10, 11, 15, 16]


def test_prune_partition_sizes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 20))
    labels = [ROAD_ORDER[i % 4] for i in range(40)]
    mask = prune_features(FeatureDataset(x, labels).fit_normalization())
    idx = np.asarray(mask.indices)
    assert len(idx) == 7
    assert np.sum(idx < 10) == 3
    assert np.sum((idx >= 10) & (idx < 15)) == 2
    assert np.sum(idx >= 15) == 2
    assert np.all(np.diff(idx) > 0)
    assert (mask.lpc_kept, mask.band_kept, mask.cep_kept) == (3, 2, 2)


def test_mask_counts_its_families():
    # the counts come from the indices, not from the pruned 3+2+2
    full = SelectionMask(indices=np.arange(RAW_DIM))
    assert (full.lpc_kept, full.band_kept, full.cep_kept) == (10, 5, 5)
    some = SelectionMask(indices=np.array([0, 9, 10, 11, 12]))
    assert (some.lpc_kept, some.band_kept, some.cep_kept) == (2, 3, 0)


def test_prune_rejects_wrong_width():
    rng = np.random.default_rng(3)
    ds = FeatureDataset(rng.standard_normal((8, 19)),
                        [A] * 4 + [S] * 4)
    with pytest.raises(ConfigError):
        prune_features(ds)


def test_kl_identical_classes_is_zero():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((10, 5))
    ds = two_class_ds(rows, rows.copy())
    assert kl_distance(ds, A, S) == pytest.approx(0.0, abs=1e-12)


def test_kl_one_dimensional_closed_form():
    # unit-variance classes one mean apart: symmetric KL is exactly 1
    h = 1.0 / np.sqrt(2.0)
    ds = two_class_ds(np.array([[-h], [h]]), np.array([[1 - h], [1 + h]]))
    assert kl_distance(ds, A, S) == pytest.approx(1.0, abs=1e-9)


def test_kl_is_symmetric():
    rng = np.random.default_rng(5)
    ds = two_class_ds(rng.standard_normal((9, 6)),
                      2.0 + rng.standard_normal((9, 6)))
    assert kl_distance(ds, A, S) == kl_distance(ds, S, A)


def test_kl_needs_two_samples_per_class():
    ds = two_class_ds(np.zeros((1, 3)), np.ones((4, 3)))
    with pytest.raises(ConfigError):
        kl_distance(ds, A, S)


def test_bootstrap_intra_floor_and_determinism():
    rng = np.random.default_rng(6)
    ds = two_class_ds(rng.standard_normal((30, 7)),
                      5.0 + rng.standard_normal((30, 7)))
    vals = bootstrap_intra(ds, A)
    assert vals.shape == (5,)
    # same-distribution halves sit far below the 5-sigma class gap
    assert vals.max() < kl_distance(ds, A, S) / 10.0
    assert np.array_equal(vals, bootstrap_intra(ds, A))


def test_bootstrap_intra_needs_four_samples():
    ds = two_class_ds(np.zeros((3, 2)), np.ones((10, 2)))
    with pytest.raises(ConfigError):
        bootstrap_intra(ds, A)


def test_split_is_stratified_and_shares_normalization():
    ds = build_corpus(seed=0)
    train, test = split_dataset(ds, 0.3, seed=1)
    for road in RoadType:
        assert sum(lab is road for lab in train.labels) == 21
        assert sum(lab is road for lab in test.labels) == 9
    assert np.array_equal(train.norm_mean, test.norm_mean)
    assert np.array_equal(train.norm_scale, test.norm_scale)
    again, _ = split_dataset(ds, 0.3, seed=1)
    assert np.array_equal(train.features, again.features)


def test_mlp_learns_separable_clusters():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-4, 4, size=(4, 20))
    rows, labels = [], []
    for i, c in enumerate(centers):
        rows.append(c + 0.05 * rng.standard_normal((12, 20)))
        labels += [ROAD_ORDER[i]] * 12
    ds = FeatureDataset(np.vstack(rows), labels).fit_normalization()
    model = train_mlp(ds, SelectionMask(indices=np.arange(RAW_DIM)), seed=1,
                      max_epochs=500)
    _, acc = confusion_matrix(model, ds)
    assert acc == 1.0


def test_mlp_training_is_deterministic():
    train, _, mask = canonical_split()
    m1 = train_mlp(train, mask, seed=3, max_epochs=200)
    m2 = train_mlp(train, mask, seed=3, max_epochs=200)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)


def test_mlp_rejects_an_unfitted_dataset():
    # training fits nothing itself: the caller fits the normalization
    train, _, mask = canonical_split()
    raw = FeatureDataset(train.features, list(train.labels))
    with pytest.raises(ConfigError, match="normalization not fitted"):
        train_mlp(raw, mask, seed=0, max_epochs=1)
    assert raw.norm_mean is None and raw.norm_scale is None


def test_default_training_stops_at_the_loss_target():
    # the default corpus, split and seed reach LOSS_TARGET well before the
    # epoch cap, so a cap of 1000 trains the very same model
    train, _, mask = canonical_split()
    capped = train_mlp(train, mask, seed=0, max_epochs=1000)
    default = train_mlp(train, mask, seed=0)
    assert ([v.tobytes() for v in (*capped.weights, *capped.biases)]
            == [v.tobytes() for v in (*default.weights, *default.biases)])


def test_mlp_zero_epochs_still_classifies():
    train, test, mask = canonical_split()
    model = train_mlp(train, mask, seed=0, max_epochs=0)
    road, conf = classify(model, test.select(mask).features[0])
    assert road in ROAD_ORDER
    assert 0.0 < conf <= 1.0


def test_classify_rejects_wrong_width():
    train, _, mask = canonical_split()
    model = train_mlp(train, mask, seed=0, max_epochs=50)
    with pytest.raises(ConfigError):
        classify(model, np.zeros(20))


def test_classify_confidence_normalized():
    train, test, mask = canonical_split()
    model = train_mlp(train, mask, seed=0)
    for row in test.select(mask).features[:10]:
        road, conf = classify(model, row)
        assert road in ROAD_ORDER
        assert 0.0 < conf <= 1.0


def test_confusion_matrix_columns_sum_to_class_counts():
    train, test, mask = canonical_split()
    model = train_mlp(train, mask, seed=0)
    counts, acc = confusion_matrix(model, test.select(mask))
    assert counts.sum() == 36
    assert np.all(counts.sum(axis=0) == 9)  # columns are actual classes
    assert acc == pytest.approx(np.trace(counts) / 36.0)
    assert acc >= 0.85


def test_one_hot_layout():
    y = one_hot([ROAD_ORDER[2], ROAD_ORDER[0]])
    assert y.shape == (2, 4)
    assert y[0, 2] == 1.0 and y[0].sum() == 1.0
    assert y[1, 0] == 1.0 and y[1].sum() == 1.0


def test_estimate_recovers_snow_peaks():
    train, _, mask = canonical_split()
    model = train_mlp(train, mask, seed=0)
    clip = class_clip(RoadType.SNOW, seed=2)
    window = AudioClip(samples=clip.samples[:1600], sample_rate=16000)
    road, lam, mu = arte_estimate(model, mask, window)
    assert road is RoadType.SNOW
    assert (lam, mu) == peak_friction(DEFAULT_CURVES[RoadType.SNOW])


def test_estimate_rejects_short_window():
    train, _, mask = canonical_split()
    model = train_mlp(train, mask, seed=0, max_epochs=50)
    window = AudioClip(samples=np.zeros(1599) + 0.01, sample_rate=16000)
    with pytest.raises(ConfigError,
                       match="window shorter than one 0.1 s frame"):
        arte_estimate(model, mask, window)


def test_model_round_trip(tmp_path):
    train, test, mask = canonical_split()
    m1 = train_mlp(train, mask, seed=0)
    path = tmp_path / "model.txt"
    save_model(path, m1)
    m2 = load_model(path)
    assert m2.sizes == m1.sizes
    assert m2.seed == m1.seed
    assert np.array_equal(m2.mask_indices, m1.mask_indices)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.allclose(w1, w2, rtol=1e-7, atol=1e-12)
    sub = test.select(mask)
    for row in sub.features:
        assert classify(m1, row)[0] is classify(m2, row)[0]


def test_load_rejects_malformed_files(tmp_path):
    train, _, mask = canonical_split()
    model = train_mlp(train, mask, seed=0, max_epochs=50)
    good = tmp_path / "good.txt"
    save_model(good, model)
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("")
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_text("7 4 3 2 4\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_text("seven 4 3 2 4 0\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_text("\n".join(lines[:-1]) + "\n")  # truncated
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_text("\n".join(lines) + "\n0.5 0.5\n")  # trailing data
    with pytest.raises(ModelFormatError):
        load_model(bad)

    mangled = lines[:]
    mangled[2] = mangled[2].replace(mangled[2].split()[0], "x", 1)
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)

    mangled = lines[:]
    mangled[3] = " ".join(mangled[3].split()[:-1] + ["25"])  # mask index
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(ModelFormatError, match="mask indices must be below"):
        load_model(bad)


def test_selection_mask_applies_to_estimate_path():
    # a hand-built mask with the same shape contract also feeds classify
    train, test, _ = canonical_split()
    mask = SelectionMask(indices=np.array([0, 1, 2, 10, 11, 15, 16]))
    model = train_mlp(train, mask, seed=0, max_epochs=200)
    road, conf = classify(model, test.select(mask).features[0])
    assert road in ROAD_ORDER and conf > 0.0
