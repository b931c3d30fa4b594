import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arte_tcs import robustness
from arte_tcs.errors import ConfigError
from arte_tcs.robustness import (chordal_distance, eval_freq, make_tf,
                                 nu_gap, plant_family)
from arte_tcs.vehicle_plant import VehicleParams

PARAMS = VehicleParams()

BATTERY = [make_tf([1.0], [1.0, 1.0]), make_tf([1.5], [1.0, 1.0]),
           make_tf([2.0], [1.0, 0.5]), make_tf([1.0], [1.0, 2.0, 1.0]),
           make_tf([0.5], [1.0, 0.2, 4.0]), make_tf([3.0], [1.0, 3.0]),
           make_tf([1.0, 0.0], [1.0, 1.0, 1.0]), make_tf([1.0], [0.5, 1.0]),
           make_tf([-1.0], [1.0, 0.7]), make_tf([4.0], [1.0, 4.0, 8.0]),
           make_tf([2.0], [1.0, 0.1]), make_tf([1.0], [2.0, 0.3, 1.0])]


def brute_force_gap(tf1, tf2, points=1000000):
    omega = np.logspace(-4, 5, points)
    sup = np.max(chordal_distance(eval_freq(tf1, omega), eval_freq(tf2, omega)))
    at_zero = chordal_distance(eval_freq(tf1, 0.0), eval_freq(tf2, 0.0))
    return max(float(sup), float(at_zero))


def test_eval_freq_closed_forms():
    tf = make_tf([1.0], [1.0, 1.0])
    assert eval_freq(tf, 0.0) == 1.0 + 0.0j
    assert abs(eval_freq(tf, 1.0)) == pytest.approx(1.0 / np.sqrt(2.0),
                                                    abs=1e-12)
    const = make_tf([3.0], [1.0])
    for w in (0.0, 1.0, 100.0):
        assert eval_freq(const, w) == 3.0 + 0.0j


def test_eval_freq_does_not_depend_on_scale():
    # 1/(s + 1) written with subnormal coefficients: a pole test on
    # den(jw) as written would take |den| ~ 1.4e-310 for a pole
    tiny = make_tf([1e-310], [1e-310, 1e-310])
    assert eval_freq(tiny, 1.0) == 0.5 - 0.5j
    assert eval_freq(tiny, 0.0) == 1.0 + 0.0j


def test_eval_freq_rejects_pole_on_axis():
    integrator = make_tf([1.0], [1.0, 0.0])
    with pytest.raises(ConfigError, match="pole on the evaluation grid"):
        eval_freq(integrator, 0.0)


def test_gap_with_a_pole_on_the_grid():
    """An imaginary-axis pole exactly on a sweep frequency is P = inf
    there, as it is a float away: the gap is defined, not an error."""
    omega = np.logspace(np.log10(robustness.GRID_LO),
                        np.log10(robustness.GRID_HI), robustness.GRID_POINTS)
    on, off = omega[1000], np.nextafter(omega[1000], np.inf)
    assert on == 3.1750522413557483
    lag = make_tf([1.0], [1.0, 1.0])
    gaps = [nu_gap(make_tf([1.0], [1.0, 0.0, w * w]), lag) for w in (on, off)]
    assert gaps[0].value == gaps[1].value == 0.9622296863183444
    assert gaps[0].winding_ok and gaps[1].winding_ok
    # a pole at 0, the sweep's first point: |P1| = inf against P2 = 1e9
    assert nu_gap(make_tf([1.0], [1.0, 0.0]),
                  make_tf([1.0], [1.0, 1e-9])).value == pytest.approx(1e-9)


def test_chordal_distance_kernel():
    assert chordal_distance(1.25 + 0.5j, 1.25 + 0.5j) == 0.0
    assert chordal_distance(1.0, 2.0) == pytest.approx(1.0 / np.sqrt(10.0),
                                                       abs=1e-9)
    assert chordal_distance(0.0, 1e12) == pytest.approx(1.0, abs=1e-6)
    # inf (or nan) is the point at infinity
    assert chordal_distance(np.inf, 1.0) == 1.0 / np.sqrt(2.0)
    assert chordal_distance(np.inf, np.inf) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        assert chordal_distance(a, b) == chordal_distance(b, a)
        assert chordal_distance(a, b) <= 1.0


def test_gap_of_identical_plants_is_zero():
    for tf in BATTERY[:4]:
        res = nu_gap(tf, tf)
        assert res.value < 1e-9
        assert res.winding_ok


def test_gap_of_static_gains():
    res = nu_gap(make_tf([1.0], [1.0]), make_tf([2.0], [1.0]))
    assert res.value == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-9)


def test_gap_matches_brute_force_on_first_order_pair():
    res = nu_gap(make_tf([1.0], [1.0, 1.0]), make_tf([1.5], [1.0, 1.0]))
    assert res.winding_ok
    assert res.value == pytest.approx(
        brute_force_gap(make_tf([1.0], [1.0, 1.0]),
                        make_tf([1.5], [1.0, 1.0])), abs=1e-4)


def test_gap_symmetry_and_bounds_on_battery():
    for tf1, tf2 in itertools.combinations(BATTERY[:6], 2):
        fwd = nu_gap(tf1, tf2)
        rev = nu_gap(tf2, tf1)
        assert abs(fwd.value - rev.value) < 1e-9
        assert 0.0 <= fwd.value <= 1.0


# coefficients bounded away from zero keep every pole off the imaginary
# axis, where the frequency response is undefined
nonzero = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)


@st.composite
def proper_plants(draw):
    """First- or second-order plant with a numerator of at most its order."""
    order = draw(st.integers(1, 2))
    den = draw(st.lists(nonzero, min_size=order + 1, max_size=order + 1))
    num = draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                        max_size=order + 1))
    return make_tf(num, den)


@settings(max_examples=100, deadline=None)
@given(tf1=proper_plants(), tf2=proper_plants())
def test_gap_is_symmetric_and_bounded_on_random_plants(tf1, tf2):
    fwd = nu_gap(tf1, tf2)
    rev = nu_gap(tf2, tf1)
    assert fwd.value == rev.value
    assert fwd.winding_ok == rev.winding_ok
    assert 0.0 <= fwd.value <= 1.0


def times_power_of_two(tf, e):
    """tf with num and den both multiplied by 2**e: the same plant."""
    return make_tf([math.ldexp(c, e) for c in tf.num],
                   [math.ldexp(c, e) for c in tf.den])


@settings(max_examples=200, deadline=None)
@given(tf1=proper_plants(), tf2=proper_plants(),
       e=st.integers(-1000, 1000))
@example(tf1=make_tf([1.0], [1.0, 0.5, 2.0]),
         tf2=make_tf([-2.0, 1.0], [1.0, 3.0, 1.0]), e=1000)
@example(tf1=make_tf([1.0], [1.0, 0.5, 2.0]),
         tf2=make_tf([-2.0, 1.0], [1.0, 3.0, 1.0]), e=-1000)
def test_gap_does_not_depend_on_a_power_of_two_scale(tf1, tf2, e):
    # tf1 scaled by 2**e and tf2 by 2**-e, every coefficient kept a normal
    # float: the sweeps see the same floats, so every bit is the same
    assume(all(c == 0.0 or abs(math.ldexp(c, k)) >= sys.float_info.min
               for tf, k in ((tf1, e), (tf2, -e))
               for c in np.concatenate((tf.num, tf.den))))
    scaled = times_power_of_two(tf1, e), times_power_of_two(tf2, -e)
    assert nu_gap(*scaled) == nu_gap(tf1, tf2)


def test_gap_stable_under_grid_doubling(monkeypatch):
    coarse = [nu_gap(tf1, tf2).value
              for tf1, tf2 in itertools.combinations(BATTERY[:6], 2)]
    monkeypatch.setattr(robustness, "GRID_POINTS",
                        2 * robustness.GRID_POINTS)
    dense = [nu_gap(tf1, tf2).value
             for tf1, tf2 in itertools.combinations(BATTERY[:6], 2)]
    assert max(abs(c - d) for c, d in zip(coarse, dense)) < 1e-4


def scaled(tf, w0):
    """P(s / w0): the same plant with its dynamics moved by a factor w0."""
    def at(coeffs):
        return coeffs * w0 ** -np.arange(len(coeffs) - 1.0, -1.0, -1.0)
    return make_tf(at(tf.num), at(tf.den))


@settings(max_examples=1000, deadline=None)
@given(tf1=proper_plants(), tf2=proper_plants(),
       w0=st.sampled_from((1e-5, 1e-4, 1e4, 1e5)))
def test_winding_condition_does_not_depend_on_frequency_scale(tf1, tf2, w0):
    assert (nu_gap(scaled(tf1, w0), scaled(tf2, w0)).winding_ok
            == nu_gap(tf1, tf2).winding_ok)


def test_winding_condition_off_the_grid():
    # a stable and an unstable plant, at their own scale and with their
    # dynamics moved below the grid; the gap is the chordal distance at
    # w = 0, 3 / sqrt(10)
    p1 = make_tf([-2.0], [1.0, 2.0, 1.0])
    p2 = make_tf([-1.0], [1.0, -1.0])
    for w0 in (1.0, 1e-4):
        res = nu_gap(scaled(p1, w0), scaled(p2, w0))
        assert res.winding_ok
        assert res.value == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-12)


def test_gap_of_mirrored_real_poles_has_its_closed_form():
    # 1/(s + a) and 1/(s - a) both tend to 1/s as a -> 0, so their gap
    # must too: 2a / (1 + a^2), the chordal distance at w = 0
    for a in (0.5, 0.1, 1e-3):
        res = nu_gap(make_tf([1.0], [1.0, a]), make_tf([1.0], [1.0, -a]))
        assert res.winding_ok
        assert res.value == pytest.approx(2.0 * a / (1.0 + a * a), rel=1e-12)


def test_imaginary_axis_poles_on_and_off_the_grid_agree():
    # an undamped resonance enters no count, so where it sits on the axis
    # cannot change the answer
    stable = make_tf([1.0], [1.0, 1.0])
    results = set()
    for w0 in (0.3, 17.0):
        resonant = make_tf([1.0], [1.0, 0.0, w0 * w0])
        results.add(nu_gap(resonant, stable).winding_ok)
        results.add(nu_gap(stable, resonant).winding_ok)
    assert results == {True}


def test_winding_failure_forces_unit_gap():
    # mirrored pole with matched DC gain: close pointwise, far in the metric
    res = nu_gap(make_tf([1.0], [1.0, 1.0]), make_tf([-1.0], [1.0, -1.0]))
    assert res.value == 1.0
    assert not res.winding_ok


@pytest.mark.parametrize("factor", ([1.0, -1.0], [1.0, 2.0], [1.0, 0.0, 4.0],
                                    [1.0, -2.0, 5.0], [1.0, 0.0],
                                    [1.0, 0.0, 3.1750522413557483 ** 2]))
def test_common_factor_leaves_the_plant_where_it_is(factor):
    # 1/(s + 1) written with a factor of num and den in either half-plane
    # or on the axis is still 1/(s + 1), in either order; the last two put
    # the cancelled pole on the sweep's grid, at 0 and at its 1001st point
    plant = make_tf([1.0], [1.0, 1.0])
    same = make_tf(factor, np.convolve(factor, [1.0, 1.0]))
    for res in (nu_gap(plant, same), nu_gap(same, plant)):
        assert res.winding_ok
        assert res.value < 1e-12


def test_gap_rejects_improper_plants():
    differentiator = make_tf([1.0, 0.0], [1.0])
    with pytest.raises(ConfigError):
        nu_gap(differentiator, make_tf([1.0], [1.0, 1.0]))


def test_triangle_inequality_on_random_stable_plants():
    rng = np.random.default_rng(1)

    def rand_tf():
        if rng.random() < 0.5:
            return make_tf([rng.uniform(-2, 2)], [1.0, rng.uniform(0.1, 3.0)])
        wn = rng.uniform(0.5, 20.0)
        z = rng.uniform(0.2, 1.5)
        return make_tf([rng.uniform(-2, 2) * wn * wn],
                       [1.0, 2.0 * z * wn, wn * wn])

    for _ in range(40):
        a, b, c = rand_tf(), rand_tf(), rand_tf()
        gac = nu_gap(a, c).value
        assert gac <= nu_gap(a, b).value + nu_gap(b, c).value + 1e-6


def test_family_orderings():
    gaps = {}
    for tag in ("mfc", "mtte", "src"):
        nominal, worst = plant_family(tag, PARAMS, arte_on=False)
        gaps[tag] = nu_gap(nominal, worst).value
    assert gaps["mfc"] < gaps["mtte"] < gaps["src"]
    for tag in ("mfc", "mtte", "src"):
        nominal, worst = plant_family(tag, PARAMS, arte_on=True)
        assert nu_gap(nominal, worst).value < gaps[tag]


def test_family_rejects_unknown_tag():
    with pytest.raises(ConfigError):
        plant_family("pid", PARAMS)
