/* The plant's span kernel, the traction control laws, the trace CSV's
   rows, and the road audio's AR filter and the LPC Levinson solve.

   `arte_run_span` runs steps lo..hi-1 of the quarter-vehicle plant
   against one controller law; `arte_law_step` runs the law alone for one
   step; `arte_trace_rows` prints rows lo..hi-1 of a trace as CSV;
   `arte_ar_filter` is scipy.signal.lfilter([gain], a) with its state
   carried in and out (`synth_corpus`); `arte_levinson` solves the
   symmetric Toeplitz normal equations of LPC by Durbin's recursion, the
   symmetric form of the Levinson recursion in scipy's solve_toeplitz,
   with its bytes (`arte_dsp`).  One RK4 stage (`stage`) serves the four of a plant
   step, and one slip (`slip`) the plant and the SRC law.
   `vehicle_plant` builds this file with gcc -O2 -ffp-contract=off and
   calls it through ctypes.

   Every expression does the IEEE operations of the Python or scipy code
   it replaced, in the same order: no fused multiply-add
   (-ffp-contract=off), no reassociation, and the same libm atan and sin
   that CPython's `math` calls.  So the trace is bit for bit what the
   Python step loop wrote, and the audio and its features are what scipy
   gave.  The comparisons keep the Python's NaN behaviour: a test that is
   false for NaN stays false for NaN.

   Law constants, by kind (set by each controller's `law(dt, t_demand)`):
     LAW_CONSTANT  t_cmd
     LAW_MFC       t_dem, dw_model, gain, b0, a1, lim
     LAW_SRC       r, lambda_ref, base, hi, kp, ki, dt
     LAW_MTTE      dt, jw, r, lag_gain, scale, t_grip, t_dem, floor
   Law state, read and written back:
     LAW_MFC       w_model, hp_state
     LAW_SRC       integ
     LAW_MTTE      has_prev (0 or 1), w_prev, fd_hat
   Plant constants, as `make_plant_run` binds them:
     b, c, d, e, r, m, jw, load, roll, aero, lim, decay, half_dt,
     sixth_dt, dt

   A trace cell is the bytes of Python's "%.9g" % x.  It is printed in
   fixed notation when X, the decimal exponent of x rounded to 9
   significant digits, lies in [-4, 8]: the 9-digit mantissa
   rint(|x| * 10**(8 - X)) with its point after digit X + 1, trailing
   zeros (and a bare point) dropped.  The powers of ten are exact, so
   only the product rounds; where it lands on .5 the sign of its exact
   error, fma(|x|, 10**(8 - X), -product), breaks the tie, so the
   mantissa is rounded half to even on the exact binary value.  +-0,
   +-inf and every nan are spelled out, since glibc prints a nan with
   its sign bit set as "-nan" and Python prints "nan".  Every other cell
   (exponent form, subnormals) is snprintf("%.9g"), which glibc rounds
   correctly as Python does; it follows LC_NUMERIC, which Python leaves
   at "C" and the CLI never changes. */

#include <math.h>
#include <stdio.h>
#include <string.h>

enum { LAW_CONSTANT, LAW_MFC, LAW_SRC, LAW_MTTE };
enum { P_B, P_C, P_D, P_E, P_R, P_M, P_JW, P_LOAD, P_ROLL, P_AERO, P_LIM,
       P_DECAY, P_HALF_DT, P_SIXTH_DT, P_DT };

/* The slip of (v, w) at wheel radius r, with the 0.1 denominator
   floor: `slip_ratio`. */
static double slip(double r, double v, double w)
{
    double vw = r * w, denom = vw > v ? vw : v;

    if (denom < 0.1)
        denom = 0.1;
    return (vw - v) / denom;
}

double arte_law_step(int kind, const double *c, double *s, double v,
                     double w, double t_applied)
{
    switch (kind) {
    case LAW_MFC: {
        double w_model, x, y, t_cmd;
        s[0] = w_model = s[0] + c[1];
        x = w - w_model;
        y = c[3] * x + s[1];
        s[1] = -c[3] * x - c[4] * y;
        t_cmd = c[0] - c[2] * y;
        /* a nan command (from an overflowed filter state) maps to 0 */
        return t_cmd >= 0.0 ? (c[5] < t_cmd ? c[5] : t_cmd) : 0.0;
    }
    case LAW_SRC: {
        double err = c[1] - slip(c[0], v, w), u, hi = c[3];
        u = c[2] + c[4] * err + s[0];
        /* integrate unless saturated with the error pushing further out */
        if (!((u > hi && err > 0.0) || (u < 0.0 && err < 0.0)))
            s[0] += c[5] * err * c[6];
        if (u > hi)
            return hi;
        if (u < 0.0)
            return 0.0;
        return u;
    }
    case LAW_MTTE: {
        double dw, fd_raw, fd_hat, t_max;
        dw = s[0] != 0.0 ? (w - s[1]) / c[0] : 0.0;
        s[0] = 1.0;
        s[1] = w;
        fd_raw = (t_applied - c[1] * dw) / c[2];
        fd_hat = s[2];
        s[2] = fd_hat = fd_hat + c[3] * (fd_raw - fd_hat);
        t_max = c[4] * fd_hat;
        if (c[5] < t_max)
            t_max = c[5];
        /* not `t_max < floor`, so that a nan ceiling (from an
           overflowed observer) falls to the floor */
        if (!(t_max >= c[7]))
            t_max = c[7];
        return c[6] < t_max ? c[6] : t_max;
    }
    default:
        return c[0];
    }
}

/* One RK4 stage at (v, w) and motor torque t: the Magic Formula's mu at
   the slip clamped to +-1, which is returned, and the accelerations of
   v and w, written to dv and dw.  `inline`: without it gcc -O2 calls it
   out of line, and a plant step runs a few per cent slower. */
static inline double stage(const double *p, double v, double w, double t,
                           double *dv, double *dw)
{
    double lam = slip(p[P_R], v, w), bl, mu, fd;

    if (lam > 1.0)
        lam = 1.0;
    else if (lam < -1.0)
        lam = -1.0;
    bl = p[P_B] * lam;
    mu = p[P_D] * sin(p[P_C] * atan(bl - p[P_E] * (bl - atan(bl))));
    fd = mu * p[P_LOAD];
    /* the running resistance acts only while moving */
    *dv = (4.0 * fd - (v > 0.0 ? p[P_ROLL] + p[P_AERO] * v * v : 0.0))
          / p[P_M];
    *dw = (t - p[P_R] * fd) / p[P_JW];
    return mu;
}

/* Steps lo..hi-1 from the state x = (v, w, t_applied), which is
   written back.  Step k writes the state and the law's command to
   column k, and mu at the start state to mu_col[k]; each column holds at
   least hi values.  Returns -1 if every step left a finite state.
   Otherwise returns 2 * k + why for the step k at which the run
   diverged: why 0 for a non-finite state or command entering step k,
   why 1 for a state that became non-finite during it. */
long long arte_run_span(const double *p, int kind, const double *lc,
                        double *ls, double *x, long long lo, long long hi,
                        double *v_col, double *w_col, double *cmd_col,
                        double *app_col, double *mu_col)
{
    const double lim = p[P_LIM], decay = p[P_DECAY], dt = p[P_DT];
    const double half_dt = p[P_HALF_DT], sixth_dt = p[P_SIXTH_DT];
    double v = x[0], w = x[1], t_applied = x[2];
    long long k;
    int why = 0;

    /* each step below leaves a finite state or breaks, so only the
       entering state needs a check of its own */
    if (!(isfinite(v) && isfinite(w) && isfinite(t_applied)))
        return 2 * lo;
    for (k = lo; k < hi; k++) {
        double t_cmd, lag, t_half, t_full;
        double k1v, k1w, k2v, k2w, k3v, k3w, k4v, k4w;

        t_cmd = arte_law_step(kind, lc, ls, v, w, t_applied);
        v_col[k] = v;
        w_col[k] = w;
        cmd_col[k] = t_cmd;
        app_col[k] = t_applied;
        if (!isfinite(t_cmd))
            break;
        if (t_cmd > lim)
            t_cmd = lim;
        else if (t_cmd < -lim)
            t_cmd = -lim;
        lag = (t_applied - t_cmd) * decay;
        t_half = t_cmd + lag;
        t_full = t_cmd + lag * decay;

        /* at the start state and t_applied, then half a step along the
           first and second slopes at t_half, a full step along the
           third at t_full */
        mu_col[k] = stage(p, v, w, t_applied, &k1v, &k1w);
        stage(p, v + half_dt * k1v, w + half_dt * k1w, t_half, &k2v, &k2w);
        stage(p, v + half_dt * k2v, w + half_dt * k2w, t_half, &k3v, &k3w);
        stage(p, v + dt * k3v, w + dt * k3w, t_full, &k4v, &k4w);
        v += sixth_dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
        w += sixth_dt * (k1w + 2.0 * k2w + 2.0 * k3w + k4w);

        if (!(isfinite(v) && isfinite(w))) {
            why = 1;
            break;
        }
        if (v < 0.0)
            v = 0.0;
        if (w < 0.0)
            w = 0.0;
        t_applied = t_full;
    }
    x[0] = v;
    x[1] = w;
    x[2] = t_applied;
    return k < hi ? 2 * k + why : -1;
}


/* bytes per trace cell or road name, separator included, at most */
enum { CELL_MAX = 17, NAME_SLOT = 8 };

/* format_cell stores a cell from an integer, first character lowest */
#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the trace cell layout assumes a little-endian machine"
#endif

/* 10**0 .. 10**13, exact doubles */
static const double pow10_exact[14] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13};
/* 10**-5 .. 10**9, the nearest doubles */
static const double pow10_near[15] = {
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
    1e8, 1e9};

/* a * 10**(8 - x), x in [-5, 8], rounded half to even on its exact
   value */
static double mantissa9(double a, int x)
{
    double p = pow10_exact[8 - x], y = a * p, m = rint(y), err;

    if (fabs(y - m) == 0.5) {
        err = fma(a, p, -y);
        if (err != 0.0)
            m = floor(y) + (err > 0.0);
    }
    return m;
}

/* "%.9g" % x at out, unterminated; returns its length.  A fixed cell is
   laid out in a 16-byte word, its first character in the lowest byte,
   and all 16 bytes are stored whatever its length. */
static int format_cell(double x, char *out)
{
    double a = fabs(x), m = 0.0;
    unsigned __int128 cell, keep;
    unsigned long long v, q;
    unsigned d;
    int e, n, len, neg = signbit(x) != 0;

    if (isnan(x)) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (isinf(x)) {
        memcpy(out, "-inf" + !neg, 4);
        return 3 + neg;
    }
    if (a == 0.0) {
        memcpy(out, "-0" + !neg, 2);
        return 1 + neg;
    }
    e = 9;
    if (a >= 1e-5 && a < 1e9) {
        unsigned long long bits;

        /* from the binary exponent k = floor(log2(a)), in [-17, 29]:
           floor(k * log10(2)), for which 1233 / 4096 is close enough
           over this range, is floor(log10(a)) or one below it, and a
           comparison settles which.  The nearest double to a power of
           ten may leave e one off, and rounding may carry m to 10**9,
           so e is stepped once where m has not 9 digits. */
        memcpy(&bits, &a, sizeof bits);
        e = ((int)(bits >> 52) - 1023 + 4096) * 1233 / 4096 - 1233;
        e += a >= pow10_near[e + 6];
        m = mantissa9(a, e);
        if (m >= 1e9) {
            if (++e <= 8)
                m = mantissa9(a, e);
        } else if (m < 1e8 && e > -5) {
            m = mantissa9(a, --e);
        }
    }
    if (e < -4 || e > 8)
        return snprintf(out, CELL_MAX, "%.9g", x);

    /* digits 2-9 of m, one per byte: split into two 4-digit lanes, each
       lane into two 2-digit lanes, each into two digits, by multiplies
       and shifts exact for these ranges */
    d = (unsigned)m;
    v = d % 100000000 / 10000 | (unsigned long long)(d % 10000) << 32;
    q = (v * 10486) >> 20 & 0x0000007F0000007FULL;
    v = q | (v - q * 100) << 16;
    q = (v * 103) >> 10 & 0x000F000F000F000FULL;
    v = q | (v - q * 10) << 8;
    /* significant digits, trailing zeros dropped */
    n = v ? 2 + (63 - __builtin_clzll(v)) / 8 : 1;
    cell = (unsigned __int128)(v + 0x3030303030303030ULL) << 8
           | (unsigned)('0' + d / 100000000);
    if (e < 0) {
        /* "0." and -e - 1 zeros, then the digits */
        cell = cell << 8 * (1 - e)
               | (0x3030302E30ULL & ((1ULL << 8 * (1 - e)) - 1));
        len = 1 - e + n;
    } else {
        /* the e + 1 integer digits, the point, the fraction digits */
        keep = ((unsigned __int128)1 << 8 * (e + 1)) - 1;
        cell = (cell & keep) | (cell & ~keep) << 8
               | (unsigned __int128)'.' << 8 * (e + 1);
        len = n > e + 1 ? n + 1 : e + 1;
    }
    if (neg)
        cell = cell << 8 | '-';
    memcpy(out, &cell, 16);
    return len + neg;
}

/* Rows lo..hi-1 of a trace as CSV at out: per row the seven cells of
   cols[0..6], then the names of road_true and road_est.  A road index
   k selects the NUL-padded name at names + NAME_SLOT * (k + 1), so -1
   (no estimate) is the first.  A row takes at most 7 * CELL_MAX +
   2 * NAME_SLOT bytes.  Returns the number of bytes written. */
long long arte_trace_rows(const double *const *cols,
                          const signed char *road_true,
                          const signed char *road_est, const char *names,
                          long long lo, long long hi, char *out)
{
    char *o = out;
    const char *name;
    long long k;
    int j;

    for (k = lo; k < hi; k++) {
        for (j = 0; j < 7; j++) {
            o += format_cell(cols[j][k], o);
            *o++ = ',';
        }
        for (name = names + NAME_SLOT * (road_true[k] + 1); *name; )
            *o++ = *name++;
        *o++ = ',';
        for (name = names + NAME_SLOT * (road_est[k] + 1); *name; )
            *o++ = *name++;
        *o++ = '\n';
    }
    return o - out;
}

/* The most taps of a filter and the largest Levinson system, which the
   stack arrays below hold; the wrappers read it, the entries refuse more. */
enum { MAX_TAPS = 64 };
const int arte_max_taps = MAX_TAPS;

/* scipy.signal.lfilter([gain], a, x, zi=z) in place, for na > 1 taps
   of a, as its direct form II transposed: the numerator is gain
   zero-padded to na taps, both divided by a[0], then per sample
       y = z[0] + b0 * x                        b0 = gain / a[0]
       z[i - 1] = z[i] + x * bz - y * a[i]      bz = 0.0 / a[0]
       z[na - 2] = x * bz - y * a[na - 1]       (0 < i < na - 1)
   with every x * bz kept, as scipy keeps it: it is -0 for some signs of
   x and a[0], which decides the sign of a zero state or output.  y is
   stored over x; z holds na - 1 values, read and written back.  Returns
   0, or -1 for na out of range or a[0] == 0. */
int arte_ar_filter(double gain, const double *a, int na, double *x,
                   long long len, double *z)
{
    double an[MAX_TAPS], b0, bz, xk, yk;
    long long k;
    int i;

    if (na < 2 || na > MAX_TAPS || a[0] == 0.0)
        return -1;
    b0 = gain / a[0];
    bz = 0.0 / a[0];
    for (i = 0; i < na; i++)
        an[i] = a[i] / a[0];
    for (k = 0; k < len; k++) {
        xk = x[k];
        yk = z[0] + b0 * xk;
        for (i = 1; i < na - 1; i++)
            z[i - 1] = z[i] + xk * bz - yk * an[i];
        z[na - 2] = xk * bz - yk * an[na - 1];
        x[k] = yk;
    }
    return 0;
}

/* The solution x of T x = r[1..n], T the symmetric Toeplitz matrix of
   r[0..n-1], by the Levinson recursion of scipy's solve_toeplitz (its
   `levinson`, after Alan Miller's toeplitz.f90) in Durbin's symmetric
   form.  For a symmetric T, scipy's backward vector h equals its forward
   vector g value for value, and since the right-hand side is r[1..n]
   itself, so does x: the three are one vector, grown one order at a
   time and updated in pairs in place.  Every sum and update is scipy's,
   in its order, with T's entries read as r[|i - j|].  Returns 0, 1 for a
   singular principal minor, or -1 for n out of 1..MAX_TAPS. */
int arte_levinson(const double *r, int n, double *x)
{
    double num, den, c, xj, xk;
    int m, j, k;

    if (n < 1 || n > MAX_TAPS)
        return -1;
    if (r[0] == 0.0)
        return 1;
    x[0] = r[1] / r[0];
    for (m = 1; m < n; m++) {
        num = -r[m + 1];
        den = -r[0];
        for (j = 0; j < m; j++) {
            num = num + r[m - j] * x[j];
            den = den + r[m - j] * x[m - j - 1];
        }
        if (den == 0.0)
            return 1;
        x[m] = c = num / den;
        for (j = 0, k = m - 1; j < (m + 1) >> 1; j++, k--) {
            xj = x[j];
            xk = x[k];
            x[j] = xj - c * xk;
            x[k] = xk - c * xj;
        }
    }
    return 0;
}
