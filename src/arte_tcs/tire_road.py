"""Tire-road friction curves.

Friction coefficient as a function of longitudinal slip, using the
four-parameter magic formula

    mu(lambda) = D * sin(C * atan(B*lambda - E*(B*lambda - atan(B*lambda))))

with one (B, C, D, E) set per road surface.  D is the peak friction
level, B*C*D the stiffness at zero slip.  The module also provides the
peak (lambda_opt, mu_peak) of each curve, computed once per curve.
Curve files are read by `harness.load_curve_overrides`.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class RoadType(enum.Enum):
    ASPHALT = "asphalt"
    STONE = "stone"
    GRAVEL = "gravel"
    SNOW = "snow"

    @classmethod
    def from_name(cls, name):
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError("unknown road type: %r" % (name,)) from None


@dataclass(frozen=True)
class MuLambdaCurve:
    b: float
    c: float
    d: float
    e: float

    def validate(self):
        # B > 0: slope sign convention, and finite, or mu is nan; C in
        # (1, 3): single-peak shape family; D in (0, 1.5]: physical
        # friction range.
        if not (0.0 < self.b < math.inf):
            raise ConfigError("curve stiffness B must be positive and finite, "
                              "got %g" % self.b)
        if not (1.0 < self.c < 3.0):
            raise ConfigError("curve shape C must lie in (1, 3), got %g" % self.c)
        if not (0.0 < self.d <= 1.5):
            raise ConfigError("curve peak D must lie in (0, 1.5], got %g" % self.d)
        if not np.isfinite(self.e):
            raise ConfigError("curve curvature E must be finite")
        return self

    def mu(self, lam):
        lam = np.clip(np.asarray(lam, dtype=float), -1.0, 1.0)
        bl = self.b * lam
        inner = bl - self.e * (bl - np.arctan(bl))
        return self.d * np.sin(self.c * np.arctan(inner))

    def mu_scalar(self, lam):
        # math-module twin of mu() for tight integration loops
        if lam > 1.0:
            lam = 1.0
        elif lam < -1.0:
            lam = -1.0
        bl = self.b * lam
        inner = bl - self.e * (bl - math.atan(bl))
        return self.d * math.sin(self.c * math.atan(inner))


DEFAULT_CURVES = {
    RoadType.ASPHALT: MuLambdaCurve(b=10.0, c=1.9, d=1.00, e=0.97),
    RoadType.STONE: MuLambdaCurve(b=12.0, c=2.3, d=0.82, e=1.00),
    RoadType.GRAVEL: MuLambdaCurve(b=4.0, c=2.0, d=0.60, e=1.00),
    RoadType.SNOW: MuLambdaCurve(b=45.0, c=2.0, d=0.28, e=1.00),
}

# slip samples on [0, 1] for the peak search
PEAK_GRID_POINTS = 4096


@functools.cache
def peak_friction(curve):
    """(lambda_opt, mu_peak) of a curve, computed once per curve.

    lambda_opt is the grid argmax on [0, 1] plus one parabolic
    refinement step through the bracketing samples; the curves here are
    smooth and unimodal on [0, 1] so this lands within ~1e-6 of the true
    peak.
    """
    grid = np.linspace(0.0, 1.0, PEAK_GRID_POINTS)
    vals = curve.mu(grid)
    i = int(np.argmax(vals))
    lam = float(grid[i])
    if 0 < i < PEAK_GRID_POINTS - 1:
        x0, x1 = grid[i - 1], grid[i]
        y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
        denom = (y0 - 2.0 * y1 + y2)
        if denom != 0.0:
            lam = float(x1 + 0.5 * (x1 - x0) * (y0 - y2) / denom)
    return lam, float(curve.mu(lam))
