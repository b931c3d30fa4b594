"""Road-type classification on 20-dim acoustic feature vectors.

Pipeline: intra-class-variance pruning (20 -> 7), z-score
normalization, a small MLP with layers [7, 4, 3, 2, 4] trained by
full-batch gradient descent with heavy-ball momentum, and the estimate
hook that maps a recognized road back onto its friction curve for the
traction controllers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arte_dsp import extract_raw, frame_length, Frame
from .errors import ConfigError, ModelFormatError, SimulationDiverged
from .tire_road import DEFAULT_CURVES, ROAD_INDEX, ROAD_ORDER, peak_friction

RAW_DIM = 20
# feature families inside a raw vector: [start, stop, kept]
FAMILIES = ((0, 10, 3), (10, 15, 2), (15, 20, 2))
HIDDEN_SIZES = (4, 3, 2)
# heavy-ball momentum (Polyak 1964) at a unit learning rate
MOMENTUM = 0.9
# training stops below this MSE: the loss that plain unit-step descent
# reached after 5000 epochs on the default corpus, split and seed
# (7.245e-3), so the default model is fitted as tightly as it was
LOSS_TARGET = 7.25e-3
# upper bound on training epochs, for `train_mlp` and `arte-tcs train`
MAX_EPOCHS = 5000
VAR_FLOOR = 1e-9
BOOTSTRAP_TRIALS = 5  # half-splits of a class in `bootstrap_intra`, seed 0
# normalized features are clipped here: far beyond anything a trained model
# sees, and near enough that any finite feature vector keeps the first
# layer finite for weights and biases up to WEIGHT_LIMIT
Z_LIMIT = 1e12
# ~4.5e294: RAW_DIM * Z_LIMIT * WEIGHT_LIMIT + WEIGHT_LIMIT, the largest
# first-layer sum (a model file's mask holds at most RAW_DIM inputs), is
# half the largest float, so no sum overflows to inf, or to inf - inf =
# nan, which argmax would read as the first road
WEIGHT_LIMIT = 0.5 * np.finfo(np.float64).max / (RAW_DIM * Z_LIMIT + 1.0)


@dataclass
class FeatureDataset:
    features: np.ndarray
    labels: list
    norm_mean: np.ndarray = None
    norm_scale: np.ndarray = None

    def fit_normalization(self):
        x = self.features
        self.norm_mean = x.mean(axis=0)
        std = x.std(axis=0)
        # constant columns pass through unscaled
        self.norm_scale = np.where(std > 0.0, std, 1.0)
        return self

    def normalized(self):
        if self.norm_mean is None:
            raise ConfigError("normalization not fitted")
        return (self.features - self.norm_mean) / self.norm_scale

    def class_rows(self, road):
        idx = [i for i, lab in enumerate(self.labels) if lab is road]
        return self.features[idx]

    def select(self, mask):
        sub = FeatureDataset(self.features[:, mask.indices], list(self.labels))
        if self.norm_mean is not None:
            sub.norm_mean = self.norm_mean[mask.indices]
            sub.norm_scale = self.norm_scale[mask.indices]
        return sub


def split_dataset(ds, test_fraction=0.3, seed=0):
    """Stratified split; normalization fitted on the train side only."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for road in ROAD_ORDER:
        idx = np.array([i for i, lab in enumerate(ds.labels) if lab is road])
        if len(idx) == 0:
            continue
        rng.shuffle(idx)
        cut = int(round(test_fraction * len(idx)))
        test_idx.extend(idx[:cut])
        train_idx.extend(idx[cut:])
    train_idx.sort()
    test_idx.sort()

    def take(which):
        return FeatureDataset(ds.features[which],
                              [ds.labels[i] for i in which])

    train = take(train_idx).fit_normalization()
    test = take(test_idx)
    test.norm_mean = train.norm_mean
    test.norm_scale = train.norm_scale
    return train, test


def _kept_in(start, stop):
    """A read-only count of a mask's indices in [start, stop)."""
    return property(lambda m: sum(1 for i in m.indices if start <= i < stop))


@dataclass
class SelectionMask:
    indices: np.ndarray
    # how many indices each of FAMILIES holds
    lpc_kept, band_kept, cep_kept = (_kept_in(a, b) for a, b, _ in FAMILIES)


def prune_features(ds):
    """Keep the 3+2+2 lowest mean-intra-class-variance features.

    Ranking runs inside each family separately on normalized features;
    ties resolve to the lower feature index.
    """
    if ds.features.shape[1] != RAW_DIM:
        raise ConfigError("pruning expects %d-dim rows" % RAW_DIM)
    norm = ds.normalized()
    classes = [r for r in ROAD_ORDER if any(lab is r for lab in ds.labels)]
    scores = np.zeros(RAW_DIM)
    for road in classes:
        idx = [i for i, lab in enumerate(ds.labels) if lab is road]
        if len(idx) < 2:
            raise ConfigError("need at least 2 samples per class to prune")
        scores += norm[idx].var(axis=0, ddof=1)
    scores /= len(classes)
    kept = []
    for start, stop, k in FAMILIES:
        order = np.argsort(scores[start:stop], kind="stable")
        kept.extend(sorted(start + order[:k]))
    return SelectionMask(indices=np.array(kept, dtype=int))


def _gauss_kl(xa, xb):
    mean_a, mean_b = xa.mean(axis=0), xb.mean(axis=0)
    var_a = np.maximum(xa.var(axis=0, ddof=1), VAR_FLOOR)
    var_b = np.maximum(xb.var(axis=0, ddof=1), VAR_FLOOR)
    d2 = (mean_a - mean_b) ** 2
    forward = 0.5 * np.sum(np.log(var_b / var_a) + (var_a + d2) / var_b - 1.0)
    backward = 0.5 * np.sum(np.log(var_a / var_b) + (var_b + d2) / var_a - 1.0)
    return float(forward + backward)


def kl_distance(ds, a, b):
    """Symmetric KL between diagonal-Gaussian fits of two classes."""
    xa = ds.class_rows(a)
    xb = ds.class_rows(b)
    if len(xa) < 2 or len(xb) < 2:
        raise ConfigError("both classes need at least 2 samples")
    return _gauss_kl(xa, xb)


def bootstrap_intra(ds, road):
    """Same-class KL noise floor from BOOTSTRAP_TRIALS half-splits.

    Each trial permutes the class rows, fits diagonal Gaussians to the
    two halves and reports their symmetric KL. The max over trials is a
    conservative floor against which inter-class distances are judged.
    """
    rows = ds.class_rows(road)
    if len(rows) < 4:
        raise ConfigError("need at least 4 samples to half-split a class")
    rng = np.random.default_rng(0)
    half = len(rows) // 2
    out = np.empty(BOOTSTRAP_TRIALS)
    for t in range(BOOTSTRAP_TRIALS):
        perm = rng.permutation(len(rows))
        out[t] = _gauss_kl(rows[perm[:half]], rows[perm[half:]])
    return out


@dataclass
class MlpModel:
    sizes: tuple
    weights: list
    biases: list
    seed: int
    norm_mean: np.ndarray
    norm_scale: np.ndarray
    mask_indices: np.ndarray

    def validate(self):
        if tuple(self.sizes[1:-1]) != HIDDEN_SIZES:
            raise ModelFormatError("hidden layer sizes must be %r"
                                   % (HIDDEN_SIZES,))
        if self.sizes[-1] != len(ROAD_ORDER):
            raise ModelFormatError("output layer must have %d units"
                                   % len(ROAD_ORDER))
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.sizes[i + 1], self.sizes[i]):
                raise ModelFormatError("weight %d has shape %r, expected %r"
                                       % (i, w.shape,
                                          (self.sizes[i + 1], self.sizes[i])))
            if b.shape != (self.sizes[i + 1],):
                raise ModelFormatError("bias %d has wrong length" % i)
        # a NaN anywhere makes argmax pick the first road, asphalt
        values = [self.norm_mean, self.norm_scale, *self.weights, *self.biases]
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ModelFormatError("model holds non-finite values")
        if np.any(self.norm_scale <= 0.0):
            raise ModelFormatError("normalization scales must be positive")
        if any(np.any(np.abs(v) > WEIGHT_LIMIT)
               for v in (*self.weights, *self.biases)):
            raise ModelFormatError("weights and biases must not exceed %.3g "
                                   "in magnitude" % WEIGHT_LIMIT)
        return self


def _forward(model, x, acts=None):
    """Activations of every layer, the input first and the output last.

    Layer i writes its activation into the preallocated `acts[i + 1]`
    (`acts[0]` is the input x); with acts None the buffers are allocated
    here, one row per row of x.  Hidden layers are tanh; the output layer
    is the logistic 1 / (1 + exp(-z)), computed in place with the same
    operations in the same order, so the values are those of the
    allocating expressions bit for bit.  exp overflows to inf below
    z = -709.78, where 1 / (1 + inf) is exactly 0: `classify` ignores that
    overflow, and training lets it warn, as a sign of runaway weights.
    """
    if acts is None:
        acts = [x] + [np.empty((len(x), size)) for size in model.sizes[1:]]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[i + 1]
        np.dot(acts[i], w.T, out=z)
        z += b
        if i == last:
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        else:
            np.tanh(z, out=z)
    return acts


def _init_model(seed, norm_mean, norm_scale, mask_indices):
    """An untrained model: weights uniform in +-1/sqrt(fan-in), biases 0."""
    rng = np.random.default_rng(seed)
    sizes = (len(mask_indices),) + HIDDEN_SIZES + (len(ROAD_ORDER),)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases, seed, norm_mean, norm_scale,
                    mask_indices)


def one_hot(labels):
    return np.eye(len(ROAD_ORDER))[[ROAD_INDEX[lab] for lab in labels]]


def train_mlp(ds, mask, seed=0, max_epochs=MAX_EPOCHS):
    """Full-batch MSE backprop with heavy-ball momentum; stops when the
    loss drops below LOSS_TARGET, or after max_epochs.

    Each step sets the velocity v = MOMENTUM * v + grad, from v = 0, and
    then w -= v (a unit learning rate), on the features at mask.indices
    of ds, whose normalization must be fitted.  Every epoch writes into
    buffers allocated once before the first: the activations, the output
    error a - y, the tanh derivatives 1 - h**2, the back-propagated
    deltas, the gradients and the velocities.  Each value is computed
    with the operations, in the order, of the allocating textbook loop,
    so the weights and biases equal that loop's bit for bit
    (tests/test_training_properties.py keeps it as the reference).
    """
    indices = np.array(mask.indices, dtype=int)
    xall = ds.normalized()[:, indices]
    y = one_hot(ds.labels)
    model = _init_model(seed, ds.norm_mean[indices], ds.norm_scale[indices],
                        indices)

    n = xall.shape[0]
    last = len(model.weights) - 1
    # deltas[i] and slopes[i] are (n, sizes[i + 1]) and (n, sizes[i]):
    # the error at the output of layer i, and 1 - h**2 at its input
    acts = [xall] + [np.empty((n, size)) for size in model.sizes[1:]]
    deltas = [np.empty_like(a) for a in acts[1:]]
    slopes = [None] + [np.empty_like(a) for a in acts[1:-1]]
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    a = acts[-1]
    d = deltas[-1]
    sq = np.empty_like(d)
    one_minus_a = np.empty_like(d)
    for epoch in range(max_epochs):
        _forward(model, xall, acts)
        np.subtract(a, y, out=d)
        np.multiply(d, d, out=sq)
        # np.mean's reduction and division
        loss = float(np.add.reduce(sq, axis=None)) / sq.size
        if not math.isfinite(loss):
            raise SimulationDiverged("loss became non-finite at epoch %d"
                                     % epoch)
        if loss < LOSS_TARGET:
            break
        # 2 (a - y) / (n k) * a * (1 - a), left to right
        d *= 2.0
        d /= n * y.shape[1]
        d *= a
        np.subtract(1.0, a, out=one_minus_a)
        d *= one_minus_a
        for i in range(last, -1, -1):
            delta = deltas[i]
            np.dot(delta.T, acts[i], out=grad_w[i])
            np.add.reduce(delta, axis=0, out=grad_b[i])
            if i > 0:
                slope = slopes[i]
                np.multiply(acts[i], acts[i], out=slope)
                np.subtract(1.0, slope, out=slope)
                np.dot(delta, model.weights[i], out=deltas[i - 1])
                deltas[i - 1] *= slope
            vel_w[i] *= MOMENTUM
            vel_w[i] += grad_w[i]
            vel_b[i] *= MOMENTUM
            vel_b[i] += grad_b[i]
            model.weights[i] -= vel_w[i]
            model.biases[i] -= vel_b[i]
    return model


def classify(model, features):
    """(road, confidence); confidence from outputs normalized to sum 1.

    Outputs that all saturate to 0 give the first road at confidence
    1 / len(ROAD_ORDER).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.sizes[0],):
        raise ConfigError("expected %d features, got %r"
                          % (model.sizes[0], x.shape))
    with np.errstate(over="ignore"):
        z = (x - model.norm_mean) / model.norm_scale
        z = np.minimum(np.maximum(z, -Z_LIMIT), Z_LIMIT)
        out = _forward(model, z[None, :])[-1][0]
    total = out.sum()
    if total == 0.0:
        return ROAD_ORDER[0], 1.0 / len(ROAD_ORDER)
    probs = out / total
    k = int(np.argmax(probs))
    return ROAD_ORDER[k], float(probs[k])


def confusion_matrix(model, test):
    """Counts with rows = predicted, columns = actual, plus accuracy."""
    if len(test.labels) == 0:
        raise ConfigError("empty test set")
    counts = np.zeros((len(ROAD_ORDER), len(ROAD_ORDER)), dtype=int)
    for x, lab in zip(test.features, test.labels):
        pred, _ = classify(model, x)
        counts[ROAD_INDEX[pred], ROAD_INDEX[lab]] += 1
    accuracy = np.trace(counts) / counts.sum()
    return counts, float(accuracy)


def arte_estimate(model, mask, clip_window):
    """Window -> (road, lambda_opt, mu_peak) for the controllers."""
    length = frame_length(clip_window.sample_rate)
    if len(clip_window.samples) < length:
        raise ConfigError("window shorter than one 0.1 s frame")
    frame = Frame(samples=np.asarray(clip_window.samples[:length]),
                  origin_offset=0)
    raw = extract_raw(frame)
    road, _ = classify(model, raw[mask.indices])
    return (road,) + peak_friction(DEFAULT_CURVES[road])


def save_model(path, model):
    lines = [" ".join(str(int(s)) for s in model.sizes) + " %d" % model.seed]

    def fmt(vec):
        return " ".join("%.9g" % v for v in vec)

    lines.append(fmt(model.norm_mean))
    lines.append(fmt(model.norm_scale))
    # raw-feature positions this model consumes, so the file stands alone
    lines.append(" ".join(str(int(i)) for i in model.mask_indices))
    for w, b in zip(model.weights, model.biases):
        for row in w:
            lines.append(fmt(row))
        lines.append(fmt(b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ModelFormatError("model file is not text: %s" % exc) from None
    if not lines:
        raise ModelFormatError("empty model file")
    head = lines[0].split()
    if len(head) != 6:
        raise ModelFormatError("header must hold 5 layer sizes and a seed")
    try:
        nums = [int(t) for t in head]
    except ValueError as exc:
        raise ModelFormatError("non-integer header field") from exc
    sizes, seed = tuple(nums[:5]), nums[5]

    pos = 1

    def take_vector(n):
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError("model file truncated")
        parts = lines[pos].split()
        if len(parts) != n:
            raise ModelFormatError("expected %d values on line %d, got %d"
                                   % (n, pos + 1, len(parts)))
        pos += 1
        try:
            return np.array([float(t) for t in parts])
        except ValueError as exc:
            raise ModelFormatError("non-numeric value on line %d"
                                   % pos) from exc

    mean = take_vector(sizes[0])
    scale = take_vector(sizes[0])
    mask = take_vector(sizes[0])
    if np.any(mask != np.round(mask)) or np.any(mask < 0):
        raise ModelFormatError("mask line must hold non-negative integers")
    if np.any(mask >= RAW_DIM):
        raise ModelFormatError("mask indices must be below %d" % RAW_DIM)
    if np.any(np.diff(mask) <= 0):
        raise ModelFormatError("mask indices must strictly increase")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(np.vstack([take_vector(fan_in)
                                  for _ in range(fan_out)]))
        biases.append(take_vector(fan_out))
    if pos != len(lines):
        raise ModelFormatError("trailing data after model values")
    model = MlpModel(sizes=sizes, weights=weights, biases=biases, seed=seed,
                     norm_mean=mean, norm_scale=scale,
                     mask_indices=mask.astype(int))
    return model.validate()
