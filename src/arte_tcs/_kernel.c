/* The plant's span kernel and the traction control laws.

   `arte_run_span` runs steps lo..hi-1 of the quarter-vehicle plant
   against one controller law; `arte_law_step` runs the law alone for one
   step.  `vehicle_plant` builds this file with
   gcc -O2 -ffp-contract=off and calls it through ctypes.

   Every expression does the IEEE operations of the Python it replaced,
   in the same order: no fused multiply-add (-ffp-contract=off), no
   reassociation, and the same libm atan and sin that CPython's `math`
   calls.  So the trace is bit for bit what the Python step loop wrote.
   The comparisons keep the Python's NaN behaviour: a test that is false
   for NaN stays false for NaN.

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
     sixth_dt, dt */

#include <math.h>

enum { LAW_CONSTANT, LAW_MFC, LAW_SRC, LAW_MTTE };
enum { P_B, P_C, P_D, P_E, P_R, P_M, P_JW, P_LOAD, P_ROLL, P_AERO, P_LIM,
       P_DECAY, P_HALF_DT, P_SIXTH_DT, P_DT };

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
        double vw = c[0] * w, denom, err, u, hi = c[3];
        denom = vw > v ? vw : v;
        if (denom < 0.1)
            denom = 0.1;
        err = c[1] - (vw - v) / denom;
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

/* The Magic Formula's mu at the slip of (v, w): slip with the 0.1
   denominator floor, then the +-1 clamp. */
static double stage_mu(const double *p, double v, double w)
{
    double vw = p[P_R] * w, denom, lam, bl;
    denom = vw > v ? vw : v;
    if (denom < 0.1)
        denom = 0.1;
    lam = (vw - v) / denom;
    if (lam > 1.0)
        lam = 1.0;
    else if (lam < -1.0)
        lam = -1.0;
    bl = p[P_B] * lam;
    return p[P_D] * sin(p[P_C] * atan(bl - p[P_E] * (bl - atan(bl))));
}

/* Running resistance at chassis speed v: zero unless moving. */
static double resistance(const double *p, double v)
{
    return v > 0.0 ? p[P_ROLL] + p[P_AERO] * v * v : 0.0;
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
    const double r = p[P_R], m = p[P_M], jw = p[P_JW], load = p[P_LOAD];
    const double lim = p[P_LIM], decay = p[P_DECAY], dt = p[P_DT];
    const double half_dt = p[P_HALF_DT], sixth_dt = p[P_SIXTH_DT];
    double v = x[0], w = x[1], t_applied = x[2];
    long long k;

    /* each step below leaves a finite state or returns, so only the
       entering state needs a check of its own */
    if (!(isfinite(v) && isfinite(w) && isfinite(t_applied)))
        return 2 * lo;
    for (k = lo; k < hi; k++) {
        double t_cmd, lag, t_half, t_full, mu, fd, sv, sw;
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

        /* stage 1, at the start state (v, w) and t_applied */
        mu = stage_mu(p, v, w);
        mu_col[k] = mu;
        fd = mu * load;
        k1v = (4.0 * fd - resistance(p, v)) / m;
        k1w = (t_applied - r * fd) / jw;

        /* stage 2, at (sv, sw) half a step along stage 1, and t_half */
        sv = v + half_dt * k1v;
        sw = w + half_dt * k1w;
        fd = stage_mu(p, sv, sw) * load;
        k2v = (4.0 * fd - resistance(p, sv)) / m;
        k2w = (t_half - r * fd) / jw;

        /* stage 3, at (sv, sw) half a step along stage 2, and t_half */
        sv = v + half_dt * k2v;
        sw = w + half_dt * k2w;
        fd = stage_mu(p, sv, sw) * load;
        k3v = (4.0 * fd - resistance(p, sv)) / m;
        k3w = (t_half - r * fd) / jw;

        /* stage 4, at (sv, sw) a full step along stage 3, and t_full */
        sv = v + dt * k3v;
        sw = w + dt * k3w;
        fd = stage_mu(p, sv, sw) * load;
        k4v = (4.0 * fd - resistance(p, sv)) / m;
        k4w = (t_full - r * fd) / jw;

        v += sixth_dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
        w += sixth_dt * (k1w + 2.0 * k2w + 2.0 * k3w + k4w);

        if (!(isfinite(v) && isfinite(w))) {
            x[0] = v;
            x[1] = w;
            x[2] = t_applied;
            return 2 * k + 1;
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
    return k < hi ? 2 * k : -1;
}
