"""Modulation fitting, rate estimation, kinetic dichotomy, classification.

The modulation fit projects a field onto the two-parameter family
W_{[theta,mu]}: for each scale mu the optimal phase has the closed form
theta = arg <grad W_mu, grad u>, which leaves the squared distance
||grad u||^2 + g(mu), g(mu) = ||grad W_mu||^2 - 2 |<grad W_mu, grad u>|.
The fit scans g on LATTICE scales geometric over [MU_LO, MU_HI] by one
matrix product against a per-grid table (``_lattice``), then searches
nu = ln mu over the two lattice cells around the best scale by a port of
scipy's bounded Brent minimizer (golden-section and parabolic steps, Brent
1973, ch. 5): the same trial points and nfev, without importing
scipy.optimize.  A trial costs the real closed form W_mu
(ground_state.scaled_w, no libm pow), its sqrt(flux)-weighted face
differences and three dot products against those of the field, which are
formed once per fit.  The fit's dot products are discretization.dot's,
chunks that OpenBLAS keeps on one thread, so a fit gives the same bits
whatever the BLAS thread count; the scan's product, a GEMM, did so at
n = 6000, 12000 and 24000 under 1, 2 and 4 threads.  g cancels near the
family (on W + eps bump, d = 6, n = 6000, eps = 1e-1 to 1e-5, its d^2 is
off the direct one by up to 3.4e-12, a distance floor near 2e-6), so it
only places the optimum: the reported theta and distance are those of the
direct residual sqrt(flux) (e^{i theta} dW_mu - du) there.  A fit whose best
lattice scale is an end of the lattice is flagged ``at_bracket_edge``: its
optimum may lie beyond the lattice.  The scan replaced a search on a bracket seeded from the
field's amplitude, which settled in local minima while a field focused and
took 13.7 trials per fit on the benchmark's classify-dense states, against
8.9 now.

Classification mirrors the forward/backward trichotomy: blowup if the
detector fired; convergence to the modulated W family if the fitted distance
decays to a small value at a positive rate; "scattering-proxy" if the
evolver stopped the run as "scattering-detected": its critical space-time
norm S = int int |u|^{2(d+2)/(d-2)} dx dt had settled within the reflection
horizon (finite S, the scattering criterion of Kenig-Merle and
Duyckaerts-Merle; see evolver.evolve); undetermined otherwise (a valid
outcome).  ||grad W||
is the plain flux quadrature (discretization.kinetic_sq) of the background
the trace was evolved on, the same quadrature as the trace's kinetic norms.
"""

import math

import numpy as np

from . import discretization as dz
from . import ground_state as gs

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# the fit's scan: LATTICE scales geometric over [MU_LO, MU_HI], a ratio of
# 10^0.15 apart; this holds the reach of the amplitude-seeded fit it replaced
# (about 0.002 to 500 with its refit): at d = 3 a field just below the blowup
# detector's amplitude threshold fits near mu = 0.01
MU_LO, MU_HI, LATTICE = 1e-3, 1e3, 41
# the search's xatol in nu = ln mu: its tolerance sqrt(eps) |nu| + xatol / 3
# is then a relative tolerance in mu of sqrt(eps) (1 + |nu|), at least sqrt(eps)
NU_XATOL = 3.0 * math.sqrt(2.2e-16)
# the classification thresholds, echoed in every report
THRESHOLDS = {"tail_fraction": 0.01, "dist_tol": 0.25, "floor": 1e-3, "deadband": 1e-6}


class ModulationFit:
    def __init__(self, theta, mu, distance, diagnostics=None):
        self.theta = float(theta)
        self.mu = float(mu)
        self.distance = float(distance)
        self.diagnostics = diagnostics or {}


def _lattice(grid):
    """The scan's table on grid, built by the first fit and memoized on it:
    nu = ln mu of the LATTICE scales, the rows sqrt(flux) dW_mu and their
    squared norms ||grad W_mu||^2."""
    if getattr(grid, "_fit_lattice", None) is None:
        nu = np.linspace(math.log(MU_LO), math.log(MU_HI), LATTICE)
        w = np.array([gs.scaled_w(grid.d, grid.q, mu) for mu in np.exp(nu)])
        rows = grid.sqrt_flux * (w[:, 1:] - w[:, :-1])
        grid._fit_lattice = nu.tolist(), rows, np.einsum("ij,ij->i", rows, rows)
    return grid._fit_lattice


def fit_modulation(u, grid):
    """Minimize ||u - W_{[theta,mu]}||_{H1-dot} over (theta, mu) by the scan,
    search and direct residual of the module docstring.  diagnostics:
    "at_bracket_edge" when the best lattice scale is an end of the lattice,
    "bracket" for the searched scales [mu_lo, mu_hi] and "nfev" for the
    search's evaluations.
    """
    u = np.asarray(u, dtype=complex)
    if not np.any(u):
        raise ValueError("cannot fit modulation of the zero field")
    d, q, sf = grid.d, grid.q, grid.sqrt_flux
    sdu = np.empty((2, grid.n))
    sdu_re, sdu_im = sdu
    for part, out in ((u.real, sdu_re), (u.imag, sdu_im)):
        np.subtract(part[1:], part[:-1], out=out)
        out *= sf
    # the scan: g on the lattice, and its best scale j
    nu, rows, norms = _lattice(grid)
    ab = rows @ sdu.T
    j = int(np.argmin(norms - 2.0 * np.hypot(ab[:, 0], ab[:, 1])))
    edge = j in (0, LATTICE - 1)
    j = min(max(j, 1), LATTICE - 2)
    # the best trial's g and sqrt(flux) dW_mu, kept as the search keeps its
    # best point (on g <= best), so the optimum's is not formed twice
    g_best, sdw = math.inf, None

    def g(x):
        nonlocal g_best, sdw
        w = gs.scaled_w(d, q, math.exp(x))
        trial = w[1:] - w[:-1]
        trial *= sf
        a, b = dz.dot(sdu_re, trial), dz.dot(sdu_im, trial)
        val = float(dz.dot(trial, trial)) - 2.0 * math.hypot(a, b)
        if val <= g_best:
            g_best, sdw = val, trial
        return val

    x, nfev = _bounded_min(g, nu[j - 1], nu[j + 1], NU_XATOL)
    mu = math.exp(x)
    a, b = dz.dot(sdu_re, sdw), dz.dot(sdu_im, sdw)
    th = math.atan2(b, a) if a or b else 0.0
    # the direct residual e = sqrt(flux) (e^{i theta} dW_mu - du), formed in
    # place (each fresh array costs about as much as the product that fills it)
    e_re = math.cos(th) * sdw
    e_re -= sdu_re
    sdw *= math.sin(th)
    sdw -= sdu_im
    d2 = float(dz.dot(e_re, e_re) + dz.dot(sdw, sdw))
    return ModulationFit(th, mu, math.sqrt(max(d2, 0.0)),
                         diagnostics={"bracket": [math.exp(nu[j - 1]), math.exp(nu[j + 1])],
                                      "nfev": nfev, "at_bracket_edge": edge})


def _bounded_min(func, a, b, xatol):
    """scipy's bounded Brent minimizer (BSD): (x, nfev) for func on [a, b]."""
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = func(xf)
    fu, num = math.inf, 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = math.sqrt(2.2e-16) * abs(xf) + xatol / 3.0
        if not abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a) or num >= 500:
            break
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q, r, e = abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc = nfc, fnfc, xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    if num >= 500 or math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise RuntimeError("modulation scale search on [%r, %r] failed" % (a, b))
    return xf, num


class RateFit:
    def __init__(self, rate, intercept, residual, window, n_samples, flags=None):
        self.rate = float(rate)
        self.intercept = float(intercept)
        self.residual = float(residual)
        self.window = window
        self.n_samples = int(n_samples)
        self.flags = flags or []

    def as_dict(self):
        return {"rate": self.rate, "intercept": self.intercept,
                "residual": self.residual, "window": list(self.window),
                "n_samples": self.n_samples, "flags": self.flags}


def rate_fit(times, distances, floor):
    """Least-squares exponential rate of a distance history, d(t) ~ C e^{-rate t}.

    The window is trimmed to [first sample, last sample above 10*floor];
    needs at least 5 samples.
    """
    t = np.asarray(times, dtype=float)
    dd = np.asarray(distances, dtype=float)
    ok = np.isfinite(dd) & (dd > 0)
    t, dd = t[ok], dd[ok]
    above = np.nonzero(dd > 10 * floor)[0]
    if above.size == 0:
        raise ValueError("no samples above 10x floor; window empty")
    t, dd = t[:above[-1] + 1], dd[:above[-1] + 1]
    if t.size < 5:
        raise ValueError("need at least 5 samples above floor, got %d" % t.size)
    coefs = np.polyfit(t, np.log(dd), 1)
    resid = float(np.sqrt(np.mean((np.log(dd) - np.polyval(coefs, t)) ** 2)))
    rate = float(-coefs[0])
    flags = []
    if rate * (t[-1] - t[0]) < np.log(2):
        flags.append("non-decaying")
    return RateFit(rate, float(coefs[1]), resid, (float(t[0]), float(t[-1])),
                   t.size, flags)


def kinetic_dichotomy(trace):
    """Side of ||grad u(t)|| vs ||grad W|| along a trace.

    Returns (side, violations): side in {"below", "above", "at", "mixed"}
    within the relative dead-band THRESHOLDS["deadband"]; violations lists the
    sample times on the minority side when the sign is not constant.
    """
    kin_w = np.sqrt(dz.kinetic_sq(trace.background.W, trace.background.grid))
    t = np.asarray(trace.times)
    rel = (np.asarray(trace.kinetic) - kin_w) / kin_w
    deadband = THRESHOLDS["deadband"]
    sign = np.where(rel > deadband, 1, np.where(rel < -deadband, -1, 0))
    if np.all(sign == 0):
        return "at", []
    counts = {s: int(np.sum(sign == s)) for s in (-1, 1)}
    major = -1 if counts[-1] >= counts[1] else 1
    viol = t[sign == -major].tolist()
    if viol:
        return "mixed", viol
    return ("below" if major < 0 else "above"), []


class ClassificationReport:
    def __init__(self, regime, kinetic_side, rate=None, thresholds=None,
                 details=None):
        self.regime = regime
        self.kinetic_side = kinetic_side
        self.rate = rate
        self.thresholds = thresholds or {}
        self.details = details or {}

    def as_dict(self):
        out = {"regime": self.regime, "kinetic_side": self.kinetic_side,
               "thresholds": self.thresholds, "details": self.details}
        if self.rate is not None:
            out["rate"] = self.rate.as_dict()
        return out


def classify(trace):
    """Sort a trace into blowup / converges-to-W / scattering-proxy / undetermined.

    converges-to-W: the modulated H1-dot distance decays (positive fitted rate
    over the pre-departure window, trimmed at the distance minimum, above
    10x floor) down to below dist_tol.  scattering-proxy: the evolution
    stopped as "scattering-detected" (the evolver's space-time norm rule,
    which reads tail_fraction).  The thresholds are THRESHOLDS.
    """
    side, viol = kinetic_dichotomy(trace)
    thresholds = dict(THRESHOLDS)
    details = {"kinetic_violations": viol,
               "termination": dict(trace.termination)}

    if trace.termination.get("status") in ("blowup-detected", "nan"):
        return ClassificationReport("blowup", side, thresholds=thresholds,
                                    details=details)

    t = np.asarray(trace.times)
    dd = np.asarray(trace.h1_dist)
    fit = None
    if np.any(np.isfinite(dd)):
        # pre-departure window: distance still decreasing (unstable-mode
        # contamination grows as e^{+e0 t} past the minimum)
        imin = int(np.nanargmin(dd))
        details["dist_min"] = float(dd[imin])
        details["dist_min_t"] = float(t[imin])
        if imin >= 4:
            try:
                fit = rate_fit(t[:imin + 1], dd[:imin + 1], THRESHOLDS["floor"])
            except ValueError:
                fit = None
        if (fit is not None and fit.rate > 0 and "non-decaying" not in fit.flags
                and dd[imin] < THRESHOLDS["dist_tol"]):
            return ClassificationReport("converges-to-W", side, rate=fit,
                                        thresholds=thresholds, details=details)

    if trace.termination.get("status") == "scattering-detected":
        details["reflection_horizon"] = trace.reflection["horizon_elapsed"]
        return ClassificationReport("scattering-proxy", side, rate=fit,
                                    thresholds=thresholds, details=details)
    return ClassificationReport("undetermined", side, rate=fit,
                                thresholds=thresholds, details=details)
