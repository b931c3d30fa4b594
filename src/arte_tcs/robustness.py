"""SISO transfer functions and the nu-gap distance between plants.

The gap is evaluated as the sup of the pointwise chordal distance over a
log frequency grid, with the usual winding-number side condition; when
the condition fails the distance is 1 by definition.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

GRID_LO = 1e-3
GRID_HI = 1e4
GRID_POINTS = 2000
REFINE_FACTOR = 10

# linearized wheel plant used for the controller robustness families:
# gain / ((J s - c) (tau1 s + 1)) with one slip-runaway pole at c/J
RUNAWAY_RATE = 5.0
GAIN_REF = 50.0
NOMINAL_SLIP = 0.10
NOMINAL_SCALE = 0.90

# (slip, gain-scale) uncertainty boxes of the controllers that have a
# family; each box contains the narrower ones (mfc in mtte in src), so the
# worst-case gaps inherit the same ordering
FAMILY_BOXES = {
    "mfc": ((0.05, 0.15), (0.75, 1.00)),
    "src": ((0.00, 0.90), (0.19, 1.00)),
    "mtte": ((0.00, 0.55), (0.40, 1.00)),
}
ARTE_SHRINK = 0.10


@dataclass(frozen=True)
class TransferFunction:
    num: np.ndarray
    den: np.ndarray

    def validate(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=np.float64))
        den = np.atleast_1d(np.asarray(self.den, dtype=np.float64))
        if den.size == 0 or num.size == 0:
            raise ConfigError("empty coefficient list")
        if den[0] == 0.0:
            raise ConfigError("leading denominator coefficient must be nonzero")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise ConfigError("coefficients must be finite")
        return self


@dataclass(frozen=True)
class GapResult:
    value: float
    winding_ok: bool
    peak_frequency: float


def make_tf(num, den):
    return TransferFunction(num=np.atleast_1d(np.asarray(num, np.float64)),
                            den=np.atleast_1d(np.asarray(den, np.float64))
                            ).validate()


def eval_freq(tf, omega):
    """num(jw)/den(jw); rejects evaluation on top of a pole."""
    s = 1j * np.asarray(omega, dtype=np.float64)
    den = np.polyval(tf.den, s)
    if np.any(np.abs(den) < 1e-300):
        raise ConfigError("pole on the evaluation grid")
    return np.polyval(tf.num, s) / den


def _on_sphere(p):
    """(p, 1) / sqrt(1 + |p|^2): the homogeneous coordinates of p scaled to
    unit length, so no product of them overflows however large p is."""
    p = np.asarray(p, dtype=np.complex128)
    # hypot keeps |p| near the float limit from overflowing when squared
    scale = 1.0 / np.hypot(1.0, np.abs(p))
    return p * scale, scale


def chordal_distance(p1, p2):
    """|p1 - p2| / sqrt((1 + |p1|^2) (1 + |p2|^2))."""
    u1, s1 = _on_sphere(p1)
    u2, s2 = _on_sphere(p2)
    return np.abs(u1 * s2 - u2 * s1)


def _degree(coeffs):
    nz = np.flatnonzero(np.abs(coeffs) > 0.0)
    if nz.size == 0:  # the zero polynomial: below every other degree
        return -1
    return len(coeffs) - 1 - nz[0]


def _limit_at_inf(tf):
    if _degree(tf.num) < _degree(tf.den):
        return 0.0
    num = np.trim_zeros(tf.num, "f")
    den = np.trim_zeros(tf.den, "f")
    return num[0] / den[0]


def _rhp_poles(tf):
    den = np.trim_zeros(tf.den, "f")
    if len(den) < 2:
        return 0
    return int(np.sum(np.roots(den).real > 0.0))


def _winding_ok(tf1, tf2, grid_points=GRID_POINTS):
    """Accumulated-phase encirclement test of 1 + conj(P2)P1.

    The half-axis grid is closed with the exact w=0 and w->inf values;
    symmetry of real-rational plants supplies the negative half. Steps
    whose phase jump exceeds pi/2 are subdivided before counting.  The
    path is divided by sqrt((1 + |P1|^2) (1 + |P2|^2)), which leaves its
    winding as it is and its magnitude at most 1.
    """
    omega = np.logspace(np.log10(GRID_LO), np.log10(GRID_HI), grid_points)
    for _ in range(8):
        (u1, s1), (u2, s2) = (
            _on_sphere(np.concatenate(([eval_freq(tf, 0.0)],
                                       eval_freq(tf, omega),
                                       [_limit_at_inf(tf)])))
            for tf in (tf1, tf2))
        path = s1 * s2 + np.conj(u2) * u1
        if np.min(np.abs(path)) < 1e-12:
            return False
        steps = np.angle(path[1:] / path[:-1])
        bad = np.flatnonzero(np.abs(steps[1:-1]) > np.pi / 2) + 1
        if bad.size == 0:
            accumulated = float(np.sum(steps))
            winding = int(round(accumulated / np.pi))
            return winding + _rhp_poles(tf1) - _rhp_poles(tf2) == 0
        insert = []
        for i in bad:
            insert.append(np.logspace(np.log10(omega[i - 1]),
                                      np.log10(omega[i]),
                                      REFINE_FACTOR + 2)[1:-1])
        omega = np.unique(np.concatenate([omega] + insert))
    return False


def nu_gap(tf1, tf2, grid_points=GRID_POINTS):
    """Sup of the chordal distance over frequency, or 1 on winding failure."""
    for tf in (tf1, tf2):
        tf.validate()
        if _degree(tf.num) > _degree(tf.den):
            raise ConfigError(
                "gap evaluation needs a proper transfer function")
    if not _winding_ok(tf1, tf2, grid_points):
        return GapResult(value=1.0, winding_ok=False, peak_frequency=0.0)
    omega = np.logspace(np.log10(GRID_LO), np.log10(GRID_HI), grid_points)
    kappa = chordal_distance(eval_freq(tf1, omega), eval_freq(tf2, omega))
    peak = int(np.argmax(kappa))
    lo = omega[max(peak - 1, 0)]
    hi = omega[min(peak + 1, len(omega) - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), grid_points)
    kfine = chordal_distance(eval_freq(tf1, fine), eval_freq(tf2, fine))
    ends = chordal_distance(*([eval_freq(tf, 0.0), _limit_at_inf(tf)]
                              for tf in (tf1, tf2)))
    candidates = np.concatenate((kappa, kfine, ends))
    grid = np.concatenate((omega, fine, [0.0, np.inf]))
    best = int(np.argmax(candidates))
    return GapResult(value=float(min(candidates[best], 1.0)),
                     winding_ok=True,
                     peak_frequency=float(grid[best]))


def _family_plant(params, slip, scale):
    j = params.jw + params.m_vehicle * params.r ** 2 * (1.0 - slip)
    den = np.convolve([j, -RUNAWAY_RATE], [params.tau_motor, 1.0])
    return make_tf([scale * GAIN_REF], den)


def _shrunk(box):
    (s_lo, s_hi), (a_lo, a_hi) = box
    s_lo = max(s_lo, NOMINAL_SLIP * (1.0 - ARTE_SHRINK))
    s_hi = min(s_hi, NOMINAL_SLIP * (1.0 + ARTE_SHRINK))
    a_lo = max(a_lo, NOMINAL_SCALE * (1.0 - ARTE_SHRINK))
    a_hi = min(a_hi, NOMINAL_SCALE * (1.0 + ARTE_SHRINK))
    return (s_lo, s_hi), (a_lo, a_hi)


def plant_family(tcs, params, arte_on=False):
    """Nominal plant plus the worst corner of the uncertainty box."""
    tag = str(tcs).lower()
    if tag not in FAMILY_BOXES:
        raise ConfigError("unknown controller tag %r" % (tcs,))
    box = FAMILY_BOXES[tag]
    if arte_on:
        box = _shrunk(box)
    (s_lo, s_hi), (a_lo, a_hi) = box
    s_mid, a_mid = 0.5 * (s_lo + s_hi), 0.5 * (a_lo + a_hi)
    nominal = _family_plant(params, NOMINAL_SLIP, NOMINAL_SCALE)
    candidates = [(s, a)
                  for s in (s_lo, s_mid, s_hi)
                  for a in (a_lo, a_mid, a_hi)
                  if not (s == s_mid and a == a_mid)]
    worst, worst_gap = None, -1.0
    for s, a in candidates:
        cand = _family_plant(params, s, a)
        gap = nu_gap(nominal, cand).value
        if gap > worst_gap:
            worst, worst_gap = cand, gap
    return nominal, worst
