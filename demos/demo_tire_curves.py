"""Friction curves for the four road classes.

Prints mu at a few slip ratios for every surface plus the peak point
each controller would aim for.  The snow curve peaks early and low,
which is why launch torque has to come down so far on that surface.
"""

import numpy as np

from arte_tcs.tire_road import DEFAULT_CURVES, RoadType, peak_friction

lams = np.array([0.02, 0.05, 0.1, 0.2, 0.4, 0.8])

header = "road      " + "".join("mu(%.2f) " % l for l in lams)
print(header)
for road in RoadType:
    curve = DEFAULT_CURVES[road]
    row = "".join("%8.3f " % m for m in curve.mu(lams))
    print("%-10s%s" % (road.value, row))

print()
print("peak operating points:")
for road in RoadType:
    lam, mu = peak_friction(DEFAULT_CURVES[road])
    print("  %-8s lambda_opt=%.4f mu_peak=%.3f" % (road.value, lam, mu))
