import math

import numpy as np
import pytest

from arte_tcs.errors import ConfigError
from arte_tcs.tire_road import (
    DEFAULT_CURVES,
    MuLambdaCurve,
    RoadType,
    load_curve_overrides,
    peak_friction,
)

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


def test_load_curve_overrides(tmp_path):
    p = tmp_path / "curves.ini"
    p.write_text("[snow]\nb = 6.0\nc = 2.0\nd = 0.25\ne = 1.0\n")
    curves = load_curve_overrides(p)
    assert curves[RoadType.SNOW] == MuLambdaCurve(6.0, 2.0, 0.25, 1.0)
    # untouched roads keep defaults
    assert curves[RoadType.ASPHALT] == DEFAULT_CURVES[RoadType.ASPHALT]


def test_load_curve_overrides_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigError):
        load_curve_overrides(missing)

    bad_road = tmp_path / "bad_road.ini"
    bad_road.write_text("[ice]\nb = 5\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_road)

    missing_key = tmp_path / "missing_key.ini"
    missing_key.write_text("[snow]\nb = 5\nc = 2\nd = 0.1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(missing_key)

    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[snow]\nb = 5\nc = 2\nd = soft\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_value)

    out_of_range = tmp_path / "range.ini"
    out_of_range.write_text("[snow]\nb = 5\nc = 2\nd = 2.5\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(out_of_range)

    no_header = tmp_path / "no_header.ini"
    no_header.write_text("b = 5\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(no_header)

    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    with pytest.raises(ConfigError):
        load_curve_overrides(binary)

    bad_interpolation = tmp_path / "percent.ini"
    bad_interpolation.write_text("[snow]\nb = 5%\nc = 2\nd = 0.1\ne = 1\n")
    with pytest.raises(ConfigError):
        load_curve_overrides(bad_interpolation)
