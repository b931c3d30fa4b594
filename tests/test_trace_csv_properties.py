"""Property test of the trace CSV: `write_trace_csv` writes exactly the
bytes of one `TRACE_ROW % row` per step, the per-row formatter it
replaced, which stays here as the reference.

Cells come from all doubles and from the cases the C kernel's cell
formatter must get right: every decimal exponent X from -5 to 8 and every
printed fraction length from 0 to 12; doubles whose 9-digit rounding is
an exact binary tie (half to even); doubles next to a decimal midpoint,
where the rounded product lands on .5 but the exact one does not; the
boundaries of fixed notation, where rounding carries a cell into the
next decimal exponent; a nan with its sign bit set.  Row counts cross
the writer's chunk boundaries.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arte_tcs.harness import (TRACE_CHUNK_ROWS, TRACE_HEADER, SimTrace,
                              write_trace_csv)
from arte_tcs.tire_road import ROAD_ORDER

TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s\n"
ROAD_NAMES = [road.value for road in ROAD_ORDER] + ["none"]

# a nan with its sign bit set, which glibc's printf prints as "-nan"
SIGNED_NAN = struct.unpack("<d", struct.pack("<Q", 0xfff8000000000001))[0]
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
            math.nan, SIGNED_NAN, math.inf, -math.inf, 1e300, -1e300,
            1.7976931348623157e308)
# next to 9-digit midpoints: fl(x * 10**(8 - X)) ends in .5 while the
# exact product lies below it (first of each pair) or above it (second)
NEAR_MIDPOINTS = [0.0006625859194999999, 0.0009504144605,
                  0.8857944925, 0.9653321795,
                  5841.090775, 5841.090775000001,
                  6734893.274999999, 6734893.275]
# exact binary ties at the ninth digit: half to even rounds them down
EXACT_TIES = [1234567.125, 2.0 ** -13, -2.0 ** -13]
# rounding carries each into the next decimal exponent: "100000000",
# "1e+09", "0.0001" and "1e-05"
NOTATION_BOUNDARIES = [99999999.95, 999999999.5, 9.99999999995e-05,
                       9.9999999994e-06]


def reference_csv(trace):
    columns = (trace.t, trace.v, trace.vw, trace.lam, trace.t_cmd,
               trace.t_applied, trace.mu)
    names = ([ROAD_NAMES[k] for k in roads.tolist()]
             for roads in (trace.road_true_idx, trace.road_est_idx))
    rows = zip(*(col.tolist() for col in columns), *names)
    return (TRACE_HEADER + "\n"
            + "".join(TRACE_ROW % row for row in rows)).encode()


@st.composite
def decimals(draw):
    """The double nearest a decimal of exponent X with up to 9 digits."""
    x = draw(st.integers(-5, 8))
    places = draw(st.integers(max(0, -x), 8 - x))
    digits = draw(st.integers(10 ** (x + places), 10 ** (x + places + 1) - 1))
    return draw(st.sampled_from((1, -1))) * digits / 10 ** places


@st.composite
def binary_ties(draw):
    """odd / 2**(9 - X) in [10**X, 10**(X + 1)): times 10**(8 - X) it is
    odd * 5**(8 - X) / 2, a tie at the ninth digit."""
    x = draw(st.integers(-4, 6))
    scale = 2 ** (9 - x)
    lo = math.ceil(Fraction(10) ** x * scale)
    hi = math.ceil(Fraction(10) ** (x + 1) * scale)
    odd = draw(st.integers(lo // 2, (hi - 2) // 2)) * 2 + 1
    return draw(st.sampled_from((1, -1))) * odd / scale


@st.composite
def near_midpoints(draw):
    """A 9-digit decimal midpoint of exponent X, or a double beside it."""
    x = draw(st.integers(-5, 8))
    k = draw(st.integers(10**8, 10**9 - 1))
    mid = Fraction(2 * k + 1, 2) * Fraction(10) ** (x - 8)
    value = mid.numerator / mid.denominator
    step = draw(st.sampled_from((-math.inf, None, math.inf)))
    return value if step is None else math.nextafter(value, step)


cells = st.one_of(st.floats(), st.sampled_from(SPECIALS), decimals(),
                  binary_ties(), near_midpoints())
row_counts = st.one_of(
    st.integers(0, 40),
    st.sampled_from((TRACE_CHUNK_ROWS - 1, TRACE_CHUNK_ROWS,
                     TRACE_CHUNK_ROWS + 1, 4095, 4096, 4097)))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace_csv")


@settings(max_examples=150, deadline=None)
@given(values=st.lists(cells, min_size=1, max_size=60),
       roads=st.lists(st.integers(-1, 3), min_size=1, max_size=8),
       rows=row_counts)
@example(values=NEAR_MIDPOINTS + EXACT_TIES, roads=[-1, 0, 1, 2, 3],
         rows=len(NEAR_MIDPOINTS + EXACT_TIES))
@example(values=list(SPECIALS), roads=[3, -1], rows=4097)
@example(values=NOTATION_BOUNDARIES + [-v for v in NOTATION_BOUNDARIES],
         roads=[0], rows=8)
def test_trace_csv_bytes_match_reference(out_dir, values, roads, rows):
    # column j, step i holds values[(j * rows + i) % len(values)]
    columns = np.resize(np.array(values, dtype=float), (7, rows))
    road_idx = np.resize(np.array(roads, dtype=np.int8), (2, rows))
    trace = SimTrace(*columns, road_true_idx=road_idx[0],
                     road_est_idx=road_idx[1])
    path = out_dir / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == reference_csv(trace)
