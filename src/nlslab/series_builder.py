"""Exponential near-solution series around W.

The near solution is W_k^a(t) = W + sum_{j=1}^k e^{-j e0 t} Phi_j^a with
Phi_1^a = a * Y_plus.  Substituting into the flow and matching powers of
e^{-e0 t} turns the nonlinearity into an order-by-order recursion.  The
order-j forcing F_j is the coefficient of x^j, x = e^{-e0 t}, in
W^{p_c} P(U) - W^{p_c} - Gamma(W U), with U = sum_{m<j} x^m Phi_m / W and the
real-analytic nonlinearity

    P(z) = |1+z|^{p_c-1}(1+z) = (1+z)^{(p_c+1)/2} (1+conj z)^{(p_c-1)/2}.

Both factors are power series in x, each from the power recurrence (Knuth,
TAOCP vol. 2, sec. 4.7): f = (1+U)^alpha has f_0 = 1 and
n f_n = sum_{k=1..n} ((alpha+1) k - n) U_k f_{n-k}.  F_j is then
W^{p_c} sum_m A_m B_{j-m} for A = (1+U)^{(p_c+1)/2}, B = (1+conj U)^{(p_c-1)/2};
the coefficient U_j is 0, so the linear part drops out.  Each profile solves
the resolvent-type linear system (L - j e0) Phi_j at the shifted rate.  The
sign convention of the recursion is fixed empirically by the observable: the
assembled PDE residual eps_k must decay at the rate (k+1) e0, which the
residual_rate report certifies.

In the real block variables Phi_j = f + i g the resolvent system is the 2N x 2N
block system

    A_j (f, g) = [[L_plus, j e0 I], [-j e0 I, L_minus]] (f, g) = (-Re F_j, -Im F_j),

solved as it stands (no Schur complement, which would square the condition
number of the Laplacian) with the banded LU of linearized_spectrum.factor_block,
the same factorization the eigenmode is computed with.  Its conditioning takes
about ten banded solves, so it is estimated only where a bundle reports it
(resolvent_conditioning); a sweep's residual ladders certify its profiles.

The residual eps_k = (i d/dt + Lap) W_k^a + |W_k^a|^{p_c-1} W_k^a is linear in
the profiles except for its last term:

    eps_k(t) = Lap W + sum_j c_j(t) G_j + |u|^{p_c-1} u,
    c_j(t) = e^{-j e0 t},  u = W + sum_j c_j(t) Phi_j,
    G_j = Lap Phi_j - i j e0 Phi_j,

so the Laplacian is applied once per profile, and the time samples are
evaluated together, in row chunks of at most CHUNK_BYTES: one
(samples x k)(k x nodes) product for u, one for the linear part, then the
nonlinearity and the norms along rows.  residual_rate takes the chunks in
time order and stops after the first one by which both norms have been
within 10x their static floors: the rate fits keep no later sample.

W, p_c, the potential W^{p_c-1} and the Laplacian come from bg, the
ground_state.Background the profiles are solved on; a NearSolution keeps it.

The validity start t_k is found by a port of scipy's C brentq (inverse
quadratic, secant or bisection steps, Brent 1973, ch. 4; xtol = 2e-12,
rtol = 4 eps): bit-identical to it without importing scipy.optimize.
"""

import math
import warnings

import numpy as np

from . import diagnostics as dg
from . import discretization as dz
from . import linearized_spectrum as ls

CHUNK_BYTES = 1 << 18  # cap on one (samples x nodes) array of the batched residual


# ---------------------------------------------------------------------------
# nonlinear remainder and its linear part, evaluated directly

def eval_gamma(v, bg):
    """Linearized nonlinearity Gamma(v) = ((p_c+1)/2) W^{p_c-1} v + ((p_c-1)/2) W^{p_c-1} conj(v)."""
    v = np.asarray(v, dtype=complex)
    pc, pot = bg.p_c, bg.pot
    return (pc + 1) / 2 * pot * v + (pc - 1) / 2 * pot * np.conj(v)


def eval_r(v, bg):
    """Quadratic-and-higher remainder, returned as i R(v):

        i R(v) = |v+W|^{p_c-1}(v+W) - W^{p_c} - Gamma(v),

    evaluated pointwise from the displayed formula (not via the series).
    """
    v = np.asarray(v, dtype=complex)
    pc, W = bg.p_c, bg.W
    out = np.abs(v + W) ** (pc - 1) * (v + W) - W ** pc - eval_gamma(v, bg)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite remainder (field too large?)")
    return out


# ---------------------------------------------------------------------------
# order-by-order recursion

def order_forcing(j, profiles, bg):
    """Order-j forcing F_j = W^{p_c} sum_m A_m B_{j-m}: the coefficient of
    e^{-j e0 t} in i R(v_k), by the power recurrence (module docstring).

    profiles: sequence with profiles[m] = Phi_m for 1 <= m < j (index 0 unused).
    """
    if j < 2:
        raise ValueError("order_forcing needs j >= 2 (order 1 is the eigenmode)")
    for m in range(1, j):
        if profiles[m] is None:
            raise ValueError("missing profile Phi_%d" % (m,))
    W, pc = bg.W, bg.p_c
    U = [None] + [np.asarray(profiles[m], dtype=complex) / W for m in range(1, j)]
    A = _power_series(U, (pc + 1) / 2, j)
    B = _power_series([None] + [np.conj(u) for u in U[1:]], (pc - 1) / 2, j)
    return sum(A[m] * B[j - m] for m in range(j + 1)) * W ** pc


def _power_series(u, alpha, j):
    """Coefficients f_0..f_j of (1 + sum_k u[k] x^k)^alpha, with u[k] = 0 for
    k >= len(u): f_0 = 1, n f_n = sum_{k=1..n} ((alpha+1) k - n) u_k f_{n-k}
    (the power recurrence, Knuth, TAOCP vol. 2, sec. 4.7)."""
    f = [1.0]
    for n in range(1, j + 1):
        f.append(sum(((alpha + 1) * k - n) * u[k] * f[n - k]
                     for k in range(1, min(n, len(u) - 1) + 1)) / n)
    return f


def _inverse_onenorm(solve, n):
    """Lower bound on ||A^{-1}||_1 for an n x n matrix A given only
    solve(X, trans), which returns A^{-1} X (trans=0) or A^{-T} X (trans=1).

    Higham and Tisseur's block 1-norm estimator (SIAM J. Matrix Anal. Appl.
    21, 2000) started from fixed columns, so the same matrix always gives the
    same estimate; scipy's onenormest draws its start from numpy's global
    random state.  The column norms of A_j^{-1} vary smoothly from node to
    node, so searches with fewer columns stall on a flank of the maximum
    (t = 2 reached 52-64% of the exact norm for j = 3, 4 at n = 6000; t = 3
    reached 96-100% at n = 800, 6000 and 12000).
    """
    t, itmax = 3, 5
    X = np.random.default_rng(0).choice((-1.0, 1.0), size=(n, t))
    X[:, 0] = 1.0
    X /= n
    est, seen = 0.0, set()
    for _ in range(itmax):
        Y = solve(X)
        best = float(np.abs(Y).sum(axis=0).max())
        if best <= est:
            break
        est = best
        h = np.abs(solve(np.where(Y >= 0, 1.0, -1.0), 1)).max(axis=1)
        fresh = [c for c in np.argsort(h)[::-1][:t + len(seen)]
                 if c not in seen][:t]
        if not fresh:
            break
        seen.update(fresh)
        X = np.zeros((n, len(fresh)))
        X[fresh, np.arange(len(fresh))] = 1.0
    return est


def solve_profile(j, forcing, pair, bg):
    """Solve the order-j resolvent system A_j (f, g) = (-Re F_j, -Im F_j) of the
    module docstring by banded LU and return Phi_j = f + i g."""
    if j < 2:
        raise ValueError("solve_profile needs j >= 2; Phi_1 = a * Y_plus")
    # complex storage is exactly the interleaved (Re, Im) layout
    rhs = (-np.asarray(forcing, dtype=complex)).view(float)
    return ls.factor_block(bg, j * pair.e0)[0](rhs).view(complex)


def resolvent_conditioning(j, e0, bg):
    """||A_j||_1 ||A_j^{-1}||_1 of the order-j resolvent block, the inverse
    norm estimated from below.  A_j is a signed row permutation of B - j e0 I,
    with B (y1, y2) = (L_minus y2, -L_plus y1) the eigen-block, whose only real
    eigenvalues are +-e0; so absent resonance the smallest singular value of
    A_j is ~ (j - 1) e0.  A warning fires, on every call, when its estimate
    drops below 1% of that baseline, i.e. when j*e0 nears the discrete spectrum."""
    solve, norm_a = ls.factor_block(bg, j * e0)
    inv_norm = _inverse_onenorm(solve, 2 * bg.grid.nnodes)
    baseline = (j - 1) * e0
    if 1.0 / inv_norm < 0.01 * baseline:
        warnings.warn("order-%d resolvent is near-singular (sigma_min ~ %.2e "
                      "vs baseline %.2e): %d*e0 may resonate with the discrete "
                      "spectrum" % (j, 1.0 / inv_norm, baseline, j))
    return norm_a * inv_norm


class NearSolution:
    """W plus profiles {Phi_j^a} on a background, evaluable at any time t."""

    def __init__(self, background, k, a, e0, profiles):
        self.background = background
        self.grid, self.W = background.grid, background.W
        self.k = int(k)
        self.a = float(a)
        self.e0 = float(e0)
        self.profiles = profiles  # profiles[j] for 1 <= j <= k; index 0 is None


def build_near_solution(k, a, pair, bg):
    """Run the order-by-order recursion up to order k with Phi_1 = a * Y_plus."""
    if k < 1:
        raise ValueError("k must be >= 1")
    profiles = [None, a * pair.y_plus]
    for j in range(2, k + 1):
        profiles.append(solve_profile(j, order_forcing(j, profiles, bg), pair, bg))
    return NearSolution(bg, k, a, pair.e0, profiles)


def perturbation(near, t):
    """v_k(t) = W_k^a(t) - W."""
    v = np.zeros(near.grid.nnodes, complex)
    for j in range(1, near.k + 1):
        v += np.exp(-j * near.e0 * t) * near.profiles[j]
    return v


def assemble(near, t):
    """W_k^a(t) = W + sum_j e^{-j e0 t} Phi_j^a."""
    return near.W.astype(complex) + perturbation(near, t)


def time_derivative(near, t):
    """Exact d/dt of the assembled field (no differencing)."""
    ut = np.zeros(near.grid.nnodes, complex)
    for j in range(1, near.k + 1):
        ut -= j * near.e0 * np.exp(-j * near.e0 * t) * near.profiles[j]
    return ut


def _residual_norms(near, ts, lap_w, floors=None):
    """Interior weighted L^2 and <r>^2-sup norms of the PDE residual
    eps_k^a(t) = (i d/dt + Lap) W_k^a + |W_k^a|^{p_c-1} W_k^a at the times ts,
    given lap_w = Lap W (see the module docstring for the evaluation).

    With floors = (L^2 floor, sup floor) the row chunks stop after the first
    one by which each norm has been at most 10x its floor at some sample, and
    the norms of the samples evaluated so far are returned."""
    grid, e0 = near.grid, near.e0
    pc = near.background.p_c
    rates = -e0 * np.arange(1, near.k + 1)
    phis = np.array(near.profiles[1:], dtype=complex)
    glin = np.array([near.background.lapl.apply(phi) + 1j * rate * phi
                     for rate, phi in zip(rates, phis)])
    # real (samples x k) coefficients times complex profiles, as one real GEMM
    phis, glin = phis.view(float), glin.view(float)
    w, jw = grid.w[:-1], np.sqrt(1.0 + grid.r ** 2) ** 2
    rows = max(1, CHUNK_BYTES // (16 * grid.nnodes))
    l2s, sups = np.empty(len(ts)), np.empty(len(ts))
    for lo in range(0, len(ts), rows):
        hi = lo + rows
        c = np.exp(np.outer(ts[lo:hi], rates))
        u = (c @ phis).view(complex)
        u.real += near.W
        eps = (c @ glin).view(complex)
        eps.real += lap_w
        mag = np.abs(u)
        if pc != 2:  # |u|^{p_c-1}; the power is 1 at d = 6
            mag **= pc - 1
        u *= mag
        eps += u
        np.abs(eps, out=mag)
        # numpy's pairwise row sum, as dz.l2_norm takes it: a BLAS GEMV's
        # order, and so its last digit, depends on the thread count
        l2s[lo:hi] = np.sqrt(np.sum(w * mag[:, :-1] ** 2, axis=1))
        sups[lo:hi] = (mag * jw).max(axis=1)
        # max propagates nan and inf, so a non-finite entry of eps shows in sups
        if not np.all(np.isfinite(sups[lo:hi])):
            raise ValueError("non-finite residual")
        if floors is not None and np.any(l2s[:hi] <= 10 * floors[0]) \
                and np.any(sups[:hi] <= 10 * floors[1]):
            return l2s[:hi], sups[:hi]
    return l2s, sups


def series_reconstruction(near, t):
    """sum_{j=2..k} e^{-j e0 t} F_j: the order-regrouped reconstruction of
    i R(v_k(t)) through order k (misses orders > k, i.e. O(e^{-(k+1) e0 t}))."""
    out = np.zeros(near.grid.nnodes, complex)
    for j in range(2, near.k + 1):
        F = order_forcing(j, near.profiles, near.background)
        out += np.exp(-j * near.e0 * t) * F
    return out


def validity_start(near):
    """t_k: the smallest t with max_x |v_k(t,x)| / W(x) <= 1/2.  The bracket
    search walks out from ln|a|/e0, where the series of amplitude a is the
    unit series at time 0 up to the sign of a, so t_k(a) = t_k(sgn a) + ln|a|/e0
    is bracketed whatever the amplitude.  The bracket search, its check and
    the root search share their evaluations, so no time is evaluated twice."""
    if near.a == 0:
        return -np.inf
    seen = {}

    def excess(t):
        if t not in seen:
            seen[t] = np.max(np.abs(perturbation(near, t)) / near.W) - 0.5
        return seen[t]

    shift = math.log(abs(near.a)) / near.e0
    lo, hi = shift - 10.0, shift + 10.0
    while excess(lo) < 0 and lo > shift - 400:
        lo -= 20.0
    while excess(hi) > 0 and hi < shift + 400:
        hi += 20.0
    if not excess(lo) >= 0 >= excess(hi):
        raise RuntimeError("could not bracket the validity start t_k")
    return _brentq(excess, lo, hi)


def _brentq(f, xpre, xcur):
    """scipy's C brentq (BSD): a root of f, which changes sign between xpre and xcur."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return float(xpre)
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (2e-12 + 2.0 ** -50 * abs(xcur)) / 2  # xtol = 2e-12, rtol = 4 eps
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        short = False  # a short interpolated step, else bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("root search did not converge in 100 iterations")


class ResidualReport:
    """The fitted decay rate of eps_k: the L^2 fit (a diagnostics.RateFit),
    the weighted-sup rate, the static floor and t_k."""

    def __init__(self, fit, rate_sup, floor, t_k):
        self.rate = fit.rate
        self.intercept = fit.intercept
        self.fit_residual = fit.residual
        self.window = fit.window
        self.rate_sup = rate_sup
        self.floor = floor
        self.t_k = t_k

    def as_dict(self):
        return {"rate": self.rate, "rate_sup": self.rate_sup,
                "intercept": self.intercept, "fit_residual": self.fit_residual,
                "window": list(self.window), "floor": self.floor, "t_k": self.t_k}


def residual_rate(near):
    """Fit the decay rate of ||eps_k(t)||_{L^2} over the above-floor window.

    121 samples span [t_k, t_k + 60], starting at t_k (smallness
    max|v_k|/W <= 1/2); diagnostics.rate_fit trims the window to the samples
    up to the last one above 10x the static-equation discretization floor.
    The residual is evaluated only up to the row chunk by which each norm has
    come within 10x its floor.  That gives the report of all 121 samples as
    long as neither norm rises back above 10x its floor after the stop (true
    of all 450 cells checked: d = 5..10, n = 800..6000, k = 1..5,
    |a| = 0.5..1.6).  Norms are interior weighted L^2; a weighted-sup variant
    <r>^2 is fitted alongside (nan when fewer than 5 samples clear its floor).

    Since Phi_j^a = a^j Phi_j^1, W_k^a(t) = W_k^{sgn a}(t - ln|a|/e0): a
    change of a only translates the report in time, t_k by ln|a|/e0 with the
    same rates and floors up to round-off (a sweep derives its rows so).
    """
    grid, bg = near.grid, near.background
    lap_w = bg.lapl.apply(near.W)
    floor_field = lap_w + near.W ** bg.p_c
    floor = dz.l2_norm(floor_field, grid)
    sup_floor = dz.weighted_sup_norm(floor_field, 2, grid)
    t_k = validity_start(near)
    ts = np.linspace(t_k, t_k + 60.0, 121)
    l2s, sups = _residual_norms(near, ts, lap_w, (floor, sup_floor))
    ts = ts[:len(l2s)]
    try:
        fit = dg.rate_fit(ts, l2s, floor)
    except ValueError as exc:  # the window cannot start before t_k
        raise RuntimeError("fit window empty after floor filtering: %d samples from t_k on lie "
                           "above 10x the static floor %.3e at k = %d on %r (%s); a finer grid "
                           "lowers the floor" % (np.sum(l2s > 10 * floor), floor, near.k, grid, exc))
    # smallness of the series on the fitted window (expansion domain of P)
    worst = max(np.max(np.abs(perturbation(near, t)) / near.W) for t in fit.window)
    if worst > 0.75:
        raise RuntimeError("series evaluated outside its smallness domain "
                           "(max |v_k|/W = %.3f > 3/4)" % worst)
    try:
        rate_sup = dg.rate_fit(ts, sups, sup_floor).rate
    except ValueError:
        rate_sup = float("nan")
    return ResidualReport(fit, rate_sup, floor, t_k)


# ---------------------------------------------------------------------------
# bundle persistence

def save_near_solution(dirpath, near, report=None):
    """Write the near-solution bundle: per-profile CSVs plus a JSON manifest
    (t_k taken from the residual report when one is given), with each order's
    resolvent_conditioning, estimated here (and warned of, if near-singular)."""
    import os
    os.makedirs(dirpath, exist_ok=True)
    for j in range(1, near.k + 1):
        dz.save_field(os.path.join(dirpath, "profile_%d.csv" % j),
                      near.profiles[j], near.grid)
    manifest = {
        "d": near.grid.d, "r_max": near.grid.r_max, "n": near.grid.n,
        "k": near.k, "a": near.a, "e0": near.e0,
        "t_k": validity_start(near) if report is None else report.t_k,
        "conditioning": {str(j): resolvent_conditioning(j, near.e0, near.background)
                         for j in range(2, near.k + 1)},
    }
    if report is not None:
        manifest["residual_report"] = report.as_dict()
    dz.save_json(os.path.join(dirpath, "manifest.json"), manifest)
