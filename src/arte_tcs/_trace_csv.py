"""The trace CSV's float cells, "%.9g" % x for a block of doubles at once.

%.9g prints x in fixed notation when X, the decimal exponent of x rounded
to 9 significant digits, lies in [-4, 8]: the 9-digit mantissa with its
point after digit X + 1, trailing zeros (and a bare point) dropped.  For
X in [-4, 6] a cell is rendered with numpy into three little-endian
8-byte words padded with NUL: the sign and at most 7 integer digits,
right-aligned; the point and fraction digits 1-7; fraction digits 8-12,
NULs and the separator.  The mantissa is rounded half to even on the
exact binary value, and the digits come from np.uint64 arithmetic, so no
Python formatting call runs per cell.  Every other cell (exponent form,
+-0, nan, inf) is "%.9g" % x.  `harness.write_trace_csv` drops the NULs.
"""

import numpy as np

_P10 = 10.0 ** np.arange(15)  # exact doubles
_U = np.uint64
_U10 = _U(10) ** np.arange(11, dtype=_U)
# per step: divisor, multiplier and shift that divide by it in each lane,
# lane mask, lane width in bits; see _digits8
_LANE_STEPS = tuple(tuple(map(_U, step)) for step in (
    (10**4, 109951163, 40, 0xFFFFFFFF, 32),
    (100, 10486, 20, 0x0000007F0000007F, 16),
    (10, 103, 10, 0x000F000F000F000F, 8)))
_ASCII_0 = _U(0x3030303030303030)  # eight '0's
_POINT_ASCII_0 = _U(0x303030303030302E)  # '.', then seven '0's
_LOW7 = _U(0x7F7F7F7F7F7F7F7F)
# by integer-part length n in 1..7: keep the top n bytes; '-' below them
_INT_KEEP = np.array([0] + [2**64 - 2**(64 - 8 * n) for n in range(1, 8)],
                     dtype=_U)
_MINUS_AT = np.array([0] + [ord("-") << 8 * (7 - n) for n in range(1, 8)],
                     dtype=_U)
_COMMA_LAST = _U(ord(",") << 56)


def _split(v):
    """Veltkamp's split of doubles v into hi + lo, each of at most 26
    significant bits, so that products of halves are exact."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _mantissa9(a, x):
    """a * 10**(8 - x) rounded half to even on its exact value.

    The powers of ten are exact doubles, so only the product y rounds.
    Where y ends in .5 the sign of its rounding error, exact from
    Dekker's two-product, decides; elsewhere rint(y) is already right.
    a is finite and in [1e-5, 1e8)."""
    y = a * _P10[8 - x]
    m = np.rint(y)
    tie = np.abs(y - m) == 0.5
    if tie.any():
        y = y[tie]
        (a_hi, a_lo), (p_hi, p_lo) = _split(a[tie]), _split(_P10[8 - x[tie]])
        err = a_lo * p_lo - (((y - a_hi * p_hi) - a_lo * p_hi)
                             - a_hi * p_lo)
        m[tie] = np.where(err == 0.0, m[tie], np.floor(y) + (err > 0.0))
    return m


def _digits8(v):
    """Overwrite each v < 10**8 with its eight decimal digits as byte
    values 0-9, the leading digit in the lowest byte; return v.

    Each step splits every lane into quotient (low half) and remainder
    (high half) by a multiply and shift exact below 10**8."""
    for div, mul, shift, mask, width in _LANE_STEPS:
        q = v * mul
        q >>= shift
        q &= mask
        v -= q * div
        v <<= width
        v |= q
    return v


def _through_last_nonzero(v):
    """0xFF in each byte of v at or below its highest nonzero byte; each
    byte of v is below 0x80."""
    v = v | (v >> _U(8))
    v |= v >> _U(16)
    v |= v >> _U(32)
    v += _LOW7
    v &= ~_LOW7
    v >>= _U(7)
    v *= _U(0xFF)
    return v


def fill_cells(vals, words):
    """Write the cells "%.9g," of vals, (rows, cols) doubles, into words,
    (rows, 3 * cols) words, three per cell."""
    a = np.abs(vals)
    in_range = (a >= 1e-5) & (a < 1e8)
    a[~in_range] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    m = _mantissa9(a, x)
    # x from log10 may be off by one, and rounding may carry to 10**9
    off = (m >= 1e9) | (m < 1e8)
    if off.any():
        x[off] += np.where(m[off] >= 1e9, 1, -1)
        m[off] = _mantissa9(a[off], x[off])
    slow = ~(in_range & (x >= -4) & (x <= 6) & (m >= 1e8) & (m < 1e9))
    del a
    m[slow] = 1e8
    x[slow] = 0
    # |cell| * 10**12 is below 10**19 < 2**64
    whole, frac = np.divmod(m.astype(_U) * _U10[x + 4], _U(10**12))
    del m
    frac_hi, frac_lo = np.divmod(frac, _U(10**5))
    frac_lo *= _U(1000)
    # a 0, then fraction digits 1-7; fraction digits 8-12, then three 0s
    frac_hi, frac_lo = _digits8(frac_hi), _digits8(frac_lo)
    keep_lo = _through_last_nonzero(frac_lo)
    keep_hi = _through_last_nonzero(frac_hi | (keep_lo & _U(1)) << _U(56))
    int_len = np.clip(x + 1, 1, 7)
    words[:, 0::3] = ((_digits8(whole) + _ASCII_0) & _INT_KEEP[int_len]
                      | np.where(vals < 0.0, _MINUS_AT[int_len], _U(0)))
    words[:, 1::3] = (frac_hi + _POINT_ASCII_0) & keep_hi
    words[:, 2::3] = (frac_lo + _ASCII_0) & keep_lo | _COMMA_LAST
    for row, col in zip(*np.nonzero(slow)):
        text = ("%.9g" % vals[row, col]).encode().ljust(23, b"\0") + b","
        words[row, 3 * col:3 * col + 3] = np.frombuffer(text, dtype="<u8")
