import ast
import glob
import math
import os

import numpy as np
import pytest

import arte_tcs
from arte_tcs.errors import ConfigError
from arte_tcs.tire_road import (
    DEFAULT_CURVES,
    ROAD_INDEX,
    ROAD_ORDER,
    MuLambdaCurve,
    RoadType,
    peak_friction,
)

# builtins that iterate an argument
ITERATING_CALLS = {"all", "any", "dict", "enumerate", "filter", "frozenset",
                   "iter", "list", "map", "max", "min", "reversed", "set",
                   "sorted", "sum", "tuple", "zip"}

# Peak locations frozen from a 2e6-point brute-force grid scan.
EXPECTED_PEAKS = {
    RoadType.ASPHALT: (0.1801945, 1.00),
    RoadType.STONE: (0.0881645, 0.82),
    RoadType.GRAVEL: (0.3893520, 0.60),
    RoadType.SNOW: (0.0346090, 0.28),
}


def test_mu_zero_at_zero_slip():
    for curve in DEFAULT_CURVES.values():
        assert curve.mu(0.0) == 0.0


def test_mu_odd_symmetry():
    lam = np.linspace(-1.0, 1.0, 101)
    for curve in DEFAULT_CURVES.values():
        np.testing.assert_allclose(curve.mu(-lam), -curve.mu(lam), atol=1e-15)


def test_initial_slope_is_bcd():
    # d(mu)/d(lambda) at 0 equals B*C*D for this parameterization
    h = 1e-8
    for curve in DEFAULT_CURVES.values():
        slope = curve.mu(h) / h
        assert slope == pytest.approx(curve.b * curve.c * curve.d, rel=1e-5)


def test_peak_locations_match_dense_scan():
    for road, (lam_exp, mu_exp) in EXPECTED_PEAKS.items():
        lam, mu = peak_friction(DEFAULT_CURVES[road])
        assert lam == pytest.approx(lam_exp, abs=2e-5)
        assert mu == pytest.approx(mu_exp, abs=1e-6)


def test_asphalt_peak_in_plausible_band():
    assert 0.1 <= peak_friction(DEFAULT_CURVES[RoadType.ASPHALT])[0] <= 0.25


def test_peak_mu_ordering_across_roads():
    peaks = {r: peak_friction(DEFAULT_CURVES[r])[1] for r in RoadType}
    assert peaks[RoadType.ASPHALT] > peaks[RoadType.STONE]
    assert peaks[RoadType.STONE] > peaks[RoadType.GRAVEL]
    assert peaks[RoadType.GRAVEL] > peaks[RoadType.SNOW]


def test_unimodal_rise_then_no_second_rise():
    # strictly increasing up to the peak, never rising back above it after
    grid = np.linspace(0.0, 1.0, 4097)
    for road in RoadType:
        vals = DEFAULT_CURVES[road].mu(grid)
        i = int(np.argmax(vals))
        assert np.all(np.diff(vals[: i + 1]) > 0)
        assert np.all(vals[i + 1 :] <= vals[i])


def test_mu_clamps_slip_outside_unit_range():
    for curve in DEFAULT_CURVES.values():
        assert curve.mu(3.7) == curve.mu(1.0)
        assert curve.mu(-2.0) == curve.mu(-1.0)
        assert curve.mu_scalar(5.0) == curve.mu_scalar(1.0)


def test_mu_stays_positive_and_bounded_on_drive_side():
    grid = np.linspace(1e-6, 1.0, 2001)
    for road, curve in DEFAULT_CURVES.items():
        vals = curve.mu(grid)
        assert np.all(vals > 0.0)
        assert np.all(vals <= curve.d + 1e-12)


def test_curve_validation_rejects_bad_params():
    with pytest.raises(ConfigError):
        MuLambdaCurve(b=-1.0, c=2.0, d=0.5, e=1.0).validate()
    with pytest.raises(ConfigError):
        MuLambdaCurve(b=10.0, c=0.5, d=0.5, e=1.0).validate()
    with pytest.raises(ConfigError):
        MuLambdaCurve(b=10.0, c=2.0, d=0.0, e=1.0).validate()
    with pytest.raises(ConfigError):
        MuLambdaCurve(b=10.0, c=2.0, d=1.6, e=1.0).validate()
    # peak_friction of such a curve would be nan
    with pytest.raises(ConfigError):
        MuLambdaCurve(b=math.inf, c=2.0, d=0.5, e=1.0).validate()


def test_road_table_indexes_every_road_once():
    assert set(ROAD_ORDER) == set(RoadType)
    assert all(ROAD_ORDER[ROAD_INDEX[road]] is road for road in RoadType)


def _road_type_iterated(node):
    """The lines at which an AST node iterates the name RoadType: as the
    iterable of a loop or comprehension, starred, or as an argument of an
    iterating builtin."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        iterated = [node.iter]
    elif isinstance(node, ast.Starred):
        iterated = [node.value]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in ITERATING_CALLS):
        iterated = node.args
    else:
        iterated = []
    return [expr.lineno for expr in iterated
            if isinstance(expr, ast.Name) and expr.id == "RoadType"]


def test_only_tire_road_iterates_road_type():
    # every other module keys roads through ROAD_ORDER and ROAD_INDEX
    package = os.path.dirname(os.path.abspath(arte_tcs.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "tire_road.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), line)
                  for node in ast.walk(tree)
                  for line in _road_type_iterated(node)]
    assert found == []
