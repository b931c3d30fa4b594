"""SISO transfer functions and the nu-gap distance between plants.

The gap is the sup of the pointwise chordal distance over frequency if the
winding condition holds and 1 if it fails (Vinnicombe, IEEE TAC 1993). A
plant is its exact num and den with their common factor cancelled. On them
the condition is decided exactly, by counting the roots of one polynomial in
rational arithmetic; the distance comes from one sweep over [0, log grid,
inf], refined near its peak, of float copies times the power of two that
brings den's largest |coefficient| into [0.5, 2), which is exact in floats.
A num that still overflows is "plant gain exceeds the float range"
(ConfigError). An inf or nan P, as on a pole, is the point at infinity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

GRID_LO = 1e-3
GRID_HI = 1e4
GRID_POINTS = 2000

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
    """num(jw)/den(jw), both first times the power of two that brings
    den's largest |coefficient| into [0.5, 1), which is exact in floats;
    rejects evaluation on top of a pole."""
    e = np.frexp(np.max(np.abs(tf.den)))[1]
    s = 1j * np.asarray(omega, dtype=np.float64)
    den = np.polyval(np.ldexp(tf.den, -e), s)
    if np.any(np.abs(den) < 1e-300):
        raise ConfigError("pole on the evaluation grid")
    return np.polyval(np.ldexp(tf.num, -e), s) / den


def _on_sphere(p):
    """(p, 1) / sqrt(1 + |p|^2): the homogeneous coordinates of p scaled to
    unit length, so no product of them overflows however large p is. A p
    with |p| inf or nan is the point at infinity, (1, 0)."""
    p = np.asarray(p, dtype=np.complex128)
    r = np.abs(p)
    far = ~(r < np.inf)
    # hypot keeps |p| near the float limit from overflowing when squared
    scale = np.where(far, 0.0, 1.0 / np.hypot(1.0, r))
    with np.errstate(invalid="ignore"):  # inf * 0 where far, replaced
        return np.where(far, 1.0, p * scale), scale


def _sweep(plant, omega, at_inf=False):
    """`_on_sphere` of P(j omega) for a `_float_copy` (num, den), then of
    P's limit at infinity if `at_inf`; on a pole P is inf or nan."""
    num, den = plant
    s = 1j * np.asarray(omega, dtype=np.float64)
    with np.errstate(all="ignore"):  # a pole or an overflow: inf or nan
        p = np.polyval(num, s) / np.polyval(den, s)
        if at_inf:
            p = np.append(p, num[0] / den[0] if len(num) == len(den) else 0.0)
    return _on_sphere(p)


def chordal_distance(p1, p2):
    """|p1 - p2| / sqrt((1 + |p1|^2) (1 + |p2|^2))."""
    u1, s1 = _on_sphere(p1)
    u2, s2 = _on_sphere(p2)
    return np.abs(u1 * s2 - u2 * s1)


def _trimmed(coeffs):
    """The coefficient list from its first nonzero entry on."""
    return coeffs[next((i for i, c in enumerate(coeffs) if c), len(coeffs)):]


def _divmod(a, b):
    """Quotient and remainder of exact coefficient lists, b trimmed."""
    quotient = []
    while len(a) >= len(b):  # a becomes the remainder of a / b
        f = a[0] / b[0]
        quotient.append(f)
        a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * len(a))]
    return quotient, _trimmed(a)


def _cancelled(num, den):
    """num/den with the exact monic gcd of the two divided out of both, for
    a trimmed den; a zero num is left as it is."""
    num = _trimmed(num)
    common, rest = den, num
    while rest:
        common, rest = rest, _divmod(common, rest)[1]
    if not num or len(common) < 2:  # zero, or already coprime
        return num or [0], den
    common = [c / common[0] for c in common]
    return _divmod(num, common)[0], _divmod(den, common)[0]


def _coprime(tf):
    """tf's exact (num, den) with their common factor cancelled."""
    from fractions import Fraction  # kept off the package import path
    return _cancelled([Fraction(c) for c in tf.num],
                      [Fraction(c) for c in tf.den])


def _float_copy(plant):
    """A `_coprime` (num, den) as float arrays, both times the power of two
    that brings den's largest |coefficient| into [0.5, 2)."""
    from fractions import Fraction
    top = max(abs(c) for c in plant[1])
    power = Fraction(2) ** (top.denominator.bit_length()
                            - top.numerator.bit_length())
    try:
        return [np.array([float(c * power) for c in x]) for x in plant]
    except OverflowError:
        raise ConfigError("plant gain exceeds the float range") from None


def _cauchy_index(p, r):
    """(Cauchy index of r/p over the real line, gcd(p, r)) for exact
    coefficient lists with deg r < deg p, from their Sturm chain."""
    chain = [_trimmed(p), _trimmed(r)]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    signs = [(c[0] > 0, (c[0] > 0) == (len(c) % 2 == 1)) for c in chain]
    plus, minus = (sum(x != y for x, y in zip(e, e[1:])) for e in zip(*signs))
    return minus - plus, chain[-1]


def _winding_ok(plant1, plant2):
    """wno det(G2~ G1) = 0 and det(G2~ G1) nonzero on the axis, exactly,
    for plants given as `_coprime` (num, den) lists.

    With P = n/d and e the Hurwitz factor of d(-s)d(s) + n(-s)n(s), the
    normalised coprime factors are N = n/e and M = d/e, so G2~ G1 is
    q(s) / (e2(-s) e1(s)) with q = d2(-s)d1(s) + n2(-s)n1(s). It holds when
    q has no root on the imaginary axis and, like e2(-s), deg d2 roots right
    of it; q has the degree m of d1 d2, as the caller has checked
    1 + conj(P2) P1 at infinity. With q(jw) = j^m (p(w) - j r(w)), q's roots
    on the axis are the real roots of gcd(p, r); without them the Cauchy
    index of r/p is m - 2k, k the roots right of the axis (Routh-Hurwitz).
    Rational arithmetic keeps products of coefficients in range and exact.
    """
    (n1, d1), (n2, d2) = plant1, plant2
    n2, d2 = ([-c if k % 2 else c for k, c in enumerate(x[::-1])][::-1]
              for x in (n2, d2))  # c(-s) from c(s)
    q = _trimmed(list(np.polyadd(np.polymul(d2, d1), np.polymul(n2, n1))))
    index, common = _cauchy_index(
        [c * (1, 0, -1, 0)[k % 4] for k, c in enumerate(q)],
        [c * (0, 1, 0, -1)[k % 4] for k, c in enumerate(q)][1:])
    slope = [c * (len(common) - 1 - k) for k, c in enumerate(common[:-1])]
    return (_cauchy_index(common, slope)[0] == 0
            and len(q) - 1 - index == 2 * (len(d2) - 1))


def nu_gap(tf1, tf2):
    """Sup of the chordal distance over frequency, or 1 on winding failure.

    A factor common to a plant's num and den is cancelled first, for the
    sweeps and the winding test alike: the gap is that of the plants, not
    of how they are written, and a cancelled pole on the grid is no pole.
    """
    plants = [_coprime(tf.validate()) for tf in (tf1, tf2)]
    if any(len(num) > len(den) for num, den in plants):
        raise ConfigError("gap evaluation needs a proper transfer function")
    copies = [_float_copy(plant) for plant in plants]
    omega = np.logspace(np.log10(GRID_LO), np.log10(GRID_HI), GRID_POINTS)
    (u1, s1), (u2, s2) = (
        _sweep(copy, np.concatenate(([0.0], omega)), at_inf=True)
        for copy in copies)
    # 1 + conj(P2) P1, divided by sqrt((1 + |P1|^2) (1 + |P2|^2))
    if (np.min(np.abs(s1 * s2 + np.conj(u2) * u1)) < 1e-12
            or not _winding_ok(*plants)):
        return GapResult(value=1.0, winding_ok=False, peak_frequency=0.0)
    sweep = np.abs(u1 * s2 - u2 * s1)  # chordal distance at 0, grid, inf
    peak = int(np.argmax(sweep[1:-1]))
    lo = omega[max(peak - 1, 0)]
    hi = omega[min(peak + 1, len(omega) - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), GRID_POINTS)
    (f1, g1), (f2, g2) = (_sweep(copy, fine) for copy in copies)
    kfine = np.abs(f1 * g2 - f2 * g1)
    candidates = np.concatenate((sweep[1:-1], kfine, sweep[[0, -1]]))
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
    if tcs not in FAMILY_BOXES:
        raise ConfigError("unknown controller tag %r" % (tcs,))
    box = FAMILY_BOXES[tcs]
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
