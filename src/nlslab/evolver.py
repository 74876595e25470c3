"""Time integration of the radial NLS with conservation monitoring.

Strang splitting N(dt/2) L(dt) N(dt/2), where N(s): u -> u exp(i s |u|^{p_c-1})
is the exact nonlinear phase rotation and the linear substep L(dt) is the
Cayley transform (1 - i dt/2 Lap)^{-1} (1 + i dt/2 Lap) = 2 (1 - i dt/2 Lap)^{-1} - 1.
M = (1 - i dt/2 Lap) / 2 is factored once per stepper by an LU without
pivoting, and each step solves with it by two prefix-product scans
(``factor_banded``, ``solve_banded``).  No pivoting is needed: Lap is
self-adjoint in the cell-volume product, so M is diagonally similar to a
complex symmetric matrix with real part I/2, whose elimination is stable
without pivoting (Higham, Math. Comp. 67 (1998) 1591); the similarity leaves
the pivots unchanged, and their real parts stay >= 1/2.

``make_stepper`` also builds the "exact" substep, the exponential of the
symmetrized Laplacian from a one-time eigendecomposition (no phase error on
stiff modes), as the reference of step-doubling studies; its N x N float64
eigenvectors, N = n + 1, take 288 MB at n = 6000 and are refused above
EXACT_MAX_BYTES = 1 GiB, i.e. for n >= 11585.

N leaves |u| unchanged, so adjacent half-rotations compose into one:
``evolve`` carries the state v after each linear substep (true state
N(dt/2) v), applies one full rotation per step, and completes the half-rotation
only for samples, the blowup test and the final state.  |v|^2 = |u|^2 is
computed once per step for both the rotation and the amplitude test.

Both substeps are isometries of the discrete (cell-volume) L^2 norm, so mass
is conserved to round-off and the scheme is unconditionally stable.
Backward evolution is requested through the time span: t_span = (0, -T)
steps with negative dt.  Blowup detection is the conjunction of an amplitude
and a gradient-norm threshold (AMP_FACTOR and GRAD_FACTOR times those of W),
checked every step; single-criterion detectors misfire on focusing transients.

``evolve`` runs on the ground_state.Background the spectrum and the series
were built on, and the trace carries it to the classifier.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import discretization as dz
from . import diagnostics as dg
from . import ground_state as gs

EXACT_MAX_BYTES = 2 ** 30
# a scan chunk ends before its running log|prefix product| leaves
# [-LOG_SPAN, LOG_SPAN], so the products and their reciprocals stay finite
LOG_SPAN = 600.0
# blowup thresholds: max|u| and ||grad u|| against those of W
AMP_FACTOR = GRAD_FACTOR = 10.0


class EvolverConfig:
    """One evolution's settings; the scenarios fill them from experiments._KEYS."""

    def __init__(self, *, dt, t_span, sample_every, track_modulation):
        if not dt > 0:
            raise ValueError("need dt > 0")
        self.dt = float(dt)
        self.t_span = (float(t_span[0]), float(t_span[1]))
        self.sample_every = float(sample_every)
        self.track_modulation = bool(track_modulation)

    def as_dict(self):
        """The settings with the blowup thresholds, as trace.json echoes them."""
        return dict(vars(self), t_span=list(self.t_span),
                    amp_factor=AMP_FACTOR, grad_factor=GRAD_FACTOR)


def check_exact_size(n):
    """Refuse the "exact" substep when its eigenvector matrix is too large."""
    nbytes = 8 * (n + 1) ** 2
    if nbytes > EXACT_MAX_BYTES:
        raise ValueError("the exact linear substep at n = %d needs a %d-byte "
                         "eigenvector matrix, above the %d-byte cap; use "
                         "'cayley'" % (n, nbytes, EXACT_MAX_BYTES))


def _symmetric_eig(lapl):
    """One-time eigendecomposition of the symmetrized Laplacian S = D A D^{-1},
    D = diag(sqrt(V)), symmetric tridiagonal because the flux-form A is
    self-adjoint in the cell-volume inner product; cached on the operator."""
    if getattr(lapl, "_eig", None) is None:
        check_exact_size(lapl.grid.n)
        D = np.sqrt(lapl.grid.cellv)
        offdiag = lapl.up[:-1] * D[:-1] / D[1:]
        evals, evecs = eigh_tridiagonal(lapl.di, offdiag)
        lapl._eig = (evals, evecs, D)
    return lapl._eig


def _chunks(c):
    """Chunks [lo, hi) of the scan z_i = g_i + c_i z_{i-1} (c[0] unused) and
    the prefix products P_i = c_{lo+1} ... c_i within each chunk (P_lo = 1).
    A chunk carries its seed c_lo P_{lo-1}, so that z_lo = g_lo + seed
    z_{lo-1} / P_{lo-1} (0 for the first chunk)."""
    cum = np.zeros(c.size)
    np.cumsum(np.log(np.abs(c[1:])), out=cum[1:])
    starts = [0]
    while True:
        lo = starts[-1]
        out = np.flatnonzero(np.abs(cum[lo + 1:] - cum[lo]) > LOG_SPAN)
        if not out.size:
            break
        starts.append(lo + 1 + int(out[0]))
    P = np.empty_like(c)
    chunks = []
    for lo, hi in zip(starts, starts[1:] + [c.size]):
        P[lo] = 1.0
        np.cumprod(c[lo + 1:hi], out=P[lo + 1:hi])
        chunks.append((lo, hi, complex(c[lo] * P[lo - 1]) if lo else 0j))
    return chunks, P


def factor_banded(sub, diag, sup):
    """LU without pivoting of the tridiagonal matrix with the given sub-,
    main and super-diagonal, laid out for ``solve_banded``.

    With reciprocal pivots q_i, the forward sweep w_i = q_i b_i + a_i w_{i-1}
    (a_i = -sub_i q_i) and the back sweep x_i = w_i + c_i x_{i+1}
    (c_i = -sup_i q_i) are scans z = P cumsum(g / P), P the prefix products of
    the coefficients within one chunk (see ``_chunks``).  Returns the weights
    of the three elementwise products, q / P_fwd, P_fwd / P_back and P_back,
    and the chunks of both sweeps; a chunk [lo, hi) of the back sweep is
    seeded from row hi.  Raises ValueError on a zero or non-finite pivot, or
    when a weight is out of floating-point range.
    """
    n = diag.size
    cross = np.zeros(n, complex)
    cross[1:] = sub * sup
    q, rpiv = 0j, np.empty(n, complex)
    for i in range(n):
        piv = diag.item(i) - cross.item(i) * q
        if not 0 < abs(piv) < np.inf:
            raise ValueError("pivot %r in row %d of the tridiagonal LU" % (piv, i))
        q = 1 / piv
        rpiv[i] = q
    a = np.zeros(n, complex)
    a[1:] = -sub * rpiv[1:]
    fwd, P = _chunks(a)
    # the back sweep is a forward scan over the reversed rows
    c = np.zeros(n, complex)
    c[1:] = -(sup * rpiv[:-1])[::-1]
    back, R = _chunks(c)
    back = [(n - hi, n - lo, seed) for lo, hi, seed in back]
    R = R[::-1].copy()
    # P_fwd / P_back leaves the double range only where one sweep's products
    # grow while the other's shrink, never for a Cayley matrix
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (rpiv / P, P / R, R)
    fin = np.finfo(float)
    for w in weights:
        size = np.abs(w)
        if not np.all((size >= fin.tiny) & (size <= fin.max)):
            raise ValueError("tridiagonal LU scan weights out of the normal "
                             "floating-point range")
    return weights + (fwd, back)


def solve_banded(factors, b):
    """One Cayley solve: M^{-1} b = 2 (1 - i dt/2 Lap)^{-1} b, given the
    ``factor_banded`` factors of M = (1 - i dt/2 Lap) / 2; two chunked
    cumulative sums and three elementwise products, each O(n)."""
    wf, wm, wb, fwd, back = factors
    # the ufunc np.cumsum calls, without its ~3 us of Python dispatch per
    # call (2-vCPU machine), which would double a solve at n = 400
    cumsum = np.add.accumulate
    z = b * wf
    for lo, hi, seed in fwd:
        if seed:
            z[lo] += seed * z[lo - 1]
        cumsum(z[lo:hi], out=z[lo:hi])
    z *= wm
    for lo, hi, seed in back:
        if seed:
            z[hi - 1] += seed * z[hi]
        v = z[lo:hi][::-1]
        cumsum(v, out=v)
    z *= wb
    return z


def _abs2(u):
    return u.real ** 2 + u.imag ** 2


def _rotate(u, s, m2, pexp):
    """N(s) u given m2 = |u|^2 and pexp = (p_c - 1) / 2.  exp(ix) is formed
    from t = tan(x/2) as (c - 1) + i t c with c = 2 / (1 + t^2): one
    transcendental per node instead of a cosine and a sine."""
    t = np.tan((0.5 * s) * m2 ** pexp)
    c = 2.0 / (1.0 + t * t)
    e = np.empty_like(u)
    np.subtract(c, 1.0, out=e.real)
    np.multiply(t, c, out=e.imag)
    e *= u
    return e


def make_stepper(lapl, dt, linear_step):
    """Build the Strang step u -> N(dt/2) L(dt) N(dt/2) u for a signed dt.

    step_fn(u, lead=0.5, trail=0.5, m2=None) applies N(lead*dt), L(dt),
    N(trail*dt); step_fn(u) is one full step.  m2, when given, is |u|^2.
    linear_step is "cayley" (what ``evolve`` runs) or "exact".  The Cayley
    phase saturates on the stiffest modes, so step-doubling studies should
    use "exact".
    """
    pexp = (gs.critical_exponent(lapl.grid.d) - 1) / 2
    if linear_step == "exact":
        evals, evecs, D = _symmetric_eig(lapl)
        phase = np.exp(1j * evals * dt)

        def linear(u):
            # real GEMMs on stacked re/im columns (avoids upcasting the
            # N x N eigenvector matrix to complex on every step)
            v = D * u
            c = evecs.T @ np.stack([v.real, v.imag], axis=1)
            w = phase * (c[:, 0] + 1j * c[:, 1])
            c = evecs @ np.stack([w.real, w.imag], axis=1)
            return (c[:, 0] + 1j * c[:, 1]) / D
    elif linear_step == "cayley":
        # (1 - i dt/2 Lap) / 2, so solve_banded returns 2 (1 - i dt/2 Lap)^{-1} u
        s = 0.25j * dt
        factors = factor_banded(-s * lapl.lo[1:], 0.5 - s * lapl.di,
                                -s * lapl.up[:-1])

        def linear(u):
            x = solve_banded(factors, u)
            x -= u
            return x
    else:
        raise ValueError("unknown linear step %r" % (linear_step,))

    def step_fn(u, lead=0.5, trail=0.5, m2=None):
        if lead:
            u = _rotate(u, lead * dt, _abs2(u) if m2 is None else m2, pexp)
        u = linear(u)
        if trail:
            u = _rotate(u, trail * dt, _abs2(u), pexp)
        return u
    return step_fn


class EvolutionTrace:
    """Time-stamped diagnostics of one evolution on a background."""

    def __init__(self, background, config):
        self.background = background
        self.config = config
        self.times, self.energy, self.kinetic, self.max_amp = [], [], [], []
        self.h1_dist, self.theta, self.mu = [], [], []
        self.termination = {"status": "completed"}
        self.steps = 0
        self.reflection = {}
        self.modulation = {"fits": 0, "nfev": 0, "edge_hits": 0,
                           "first_edge_t": None}

    def potential_ratio(self):
        """Potential-to-kinetic energy ratio 1 - 2E/K^2 per sample
        (the scattering proxy; equals 2/3 at W, -> 0 for dispersed fields)."""
        return 1.0 - 2.0 * np.asarray(self.energy) / np.asarray(self.kinetic) ** 2

    def save(self, csv_path, json_path):
        with open(csv_path, "w") as f:
            f.write("t,E,kinetic,max_amp,h1_dist_to_modW,theta_fit,mu_fit\n")
            for row in zip(self.times, self.energy, self.kinetic, self.max_amp,
                           self.h1_dist, self.theta, self.mu):
                f.write(",".join("%.17g" % x for x in row) + "\n")
        dz.save_json(json_path, {"termination": self.termination,
                                 "reflection": self.reflection,
                                 "modulation": self.modulation,
                                 "config": self.config.as_dict()})


def evolve(u0, config, bg):
    """March the Cayley splitting scheme over config.t_span on the background
    bg (a ground_state.Background), sampling diagnostics.

    Declares blowup when max|u| > AMP_FACTOR * max W  AND
    ||grad u|| > GRAD_FACTOR * ||grad W|| (checked every step), or when values
    go non-finite.  The trace records a reflection-horizon estimate (round
    trip of radiation at group speed 2 k_bar, k_bar = ||grad u0|| / ||u0||_2)
    and a boundary-amplitude monitor flagging actual boundary activity.
    Adjacent nonlinear half-steps are merged (see the module docstring);
    samples, the blowup test and final_state see the true state.
    trace.steps counts the steps taken.  The step and sample counts are
    |t1 - t0| / dt and sample_every / dt rounded, so a span off the step grid
    ends up to dt/2 from t1.  Scenario configs reject such spans, and
    evolve-near-solution snaps the forward horizon it derives to the grid.
    The potential |u|^{p_c+1} of each sample's energy is formed by products
    when 2(p_c + 1) is an integer (d = 3, 4, 6, 10), see ground_state._power.
    """
    grid = bg.grid
    u = np.asarray(u0, dtype=complex).copy()
    if u.shape != (grid.nnodes,):
        raise ValueError("initial data does not match grid")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite initial data")
    if not np.any(u):
        raise ValueError("zero initial data")
    amp_ref = AMP_FACTOR * np.max(bg.W)
    kin_ref2 = GRAD_FACTOR ** 2 * dz.kinetic_sq(bg.W, grid)

    t0, t1 = config.t_span
    dt = config.dt if t1 >= t0 else -config.dt
    nsteps = int(round(abs(t1 - t0) / config.dt))
    per = max(1, int(round(config.sample_every / config.dt)))
    step_fn = make_stepper(bg.lapl, dt, "cayley")

    trace = EvolutionTrace(bg, config)
    # reflection horizon estimate from the initial data
    mass0 = float(np.sum(grid.cellv * np.abs(u) ** 2))
    k_bar = np.sqrt(dz.kinetic_sq(u, grid) / mass0)
    v_g = 2.0 * k_bar
    horizon = 2.0 * grid.r_max / v_g
    nb = max(2, grid.nnodes // 20)
    bnd0 = float(np.max(np.abs(u[-nb:])))
    trace.reflection = {"k_bar": float(k_bar), "group_speed": float(v_g),
                        "horizon_elapsed": float(horizon),
                        "boundary_amp_initial": bnd0,
                        "first_boundary_activity": None}

    def sample(t, u):
        K = np.sqrt(dz.kinetic_sq(u, grid))
        amp = np.abs(u)
        mx = float(np.max(amp))
        E = 0.5 * K ** 2 - (grid.d - 2) / (2 * grid.d) * \
            dz.integrate(gs._power(amp, bg.p_c + 1), grid)
        if config.track_modulation:
            fit = dg.fit_modulation(u, grid)
            dd, th, mu = fit.distance, fit.theta, fit.mu
            mod = trace.modulation
            mod["fits"] += 1
            mod["nfev"] += fit.diagnostics["nfev"]
            if fit.diagnostics["at_bracket_edge"]:
                mod["edge_hits"] += 1
                if mod["first_edge_t"] is None:
                    mod["first_edge_t"] = t
        else:
            dd = th = mu = np.nan
        trace.times.append(t)
        trace.energy.append(E)
        trace.kinetic.append(float(K))
        trace.max_amp.append(mx)
        trace.h1_dist.append(dd)
        trace.theta.append(th)
        trace.mu.append(mu)
        bnd = float(np.max(amp[-nb:]))
        if (trace.reflection["first_boundary_activity"] is None
                and bnd > max(100.0 * bnd0, 1e-10)):
            trace.reflection["first_boundary_activity"] = t
        if abs(t - t0) > horizon:
            trace.reflection["horizon_exceeded"] = True

    sample(t0, u)
    # v is the state after the linear substep; the true state is N(dt/2) v,
    # and |v| = |u|, so m2 serves the next rotation and the amplitude test
    pexp, half = (bg.p_c - 1) / 2, 0.5 * dt
    v, m2, lead = u, _abs2(u), 0.5
    for i in range(nsteps):
        v = step_fn(v, lead, 0.0, m2)
        lead = 1.0
        trace.steps = i + 1
        m2 = _abs2(v)
        t = t0 + (i + 1) * dt
        mx = np.sqrt(np.max(m2))
        if not np.isfinite(mx):
            trace.termination = {"status": "nan", "t_star": t,
                                 "bracket": [t - dt, t]}
            break
        if mx > amp_ref and dz.kinetic_sq(_rotate(v, half, m2, pexp), grid) > kin_ref2:
            trace.termination = {"status": "blowup-detected", "t_star": t,
                                 "bracket": [t - dt, t]}
            break
        if (i + 1) % per == 0:
            sample(t, _rotate(v, half, m2, pexp))
    trace.final_state = _rotate(v, half, m2, pexp) if nsteps else u
    return trace


def energy_drift(trace):
    """max_t |E(t) - E(0)| / |E(0)| over the recorded (pre-termination) samples."""
    E = np.asarray(trace.energy)
    if E.size == 0:
        return float("nan")
    return float(np.max(np.abs(E - E[0])) / abs(E[0]))
