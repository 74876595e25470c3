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
EXACT_MAX_BYTES = 1 GiB, i.e. for n >= 11585.  scipy.linalg's
eigh_tridiagonal is imported on the first such eigendecomposition, so an
evolution that steps by Cayley, as every scenario does, loads no scipy.

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
Scattering detection is its counterpart: a run stops once its critical
space-time norm S = int int |u|^{2(d+2)/(d-2)} has settled within the
reflection horizon (see ``evolve``), so a dispersing run costs its decision
time, not its span.

``evolve`` runs on the ground_state.Background the spectrum and the series
were built on, and the trace carries it to the classifier.

Independent work runs on forked workers (``_Worker``): a daemonic child runs
fn(i) for each job index i the caller submits and sends back the result or
the exception, re-raised by the caller in submit order.  fn and what it
reads are inherited through the fork; only indices and results cross the
pipe.  The caller moves to the first CPU it may run on and each worker to
the p-th, p = 1 + its parent's live workers, modulo their number
(``_move_to_cpu``): a sweep's workers take CPUs 1..P-1, classify's fit
worker CPU 1, and wpm's forward fit worker CPU 2 (the caller's on two), not
the critical backward worker's.  Workers are forked only where
``_fork_context`` allows; elsewhere the work runs in the caller, and the
outputs are the same bytes either way.  Python >= 3.12 warns when a process
with more than one thread forks, and a multi-threaded BLAS makes it one; the
fork is made from the calling thread, and a worker runs only numpy code.
The workers have two clients:

* ``evolve`` runs the samples' modulation fits (diagnostics.fit_modulation)
  on one worker forked after the input checks, while it steps on.  Each
  sampled state is copied into one of RING slots of an anonymous shared
  mmap and only the sample number goes over the pipe; stepping waits only
  while RING fits are in flight.  With one CPU the worker has none of its
  own to overlap on (pinned to one CPU, the benchmark's classify-dense
  config took 0.75-0.91 s with a worker forced against 0.70-0.75 s without).
* ``forked_map`` runs independent jobs on the caller and up to P - 1
  workers: evolve-near-solution's backward evolution beside its bundle and
  forward evolution, and a sweep's cells.  Both scenarios compute their
  spectra in the caller before the fork, so the workers inherit
  scipy.linalg, which the spectrum's factorization imports
  (linearized_spectrum.factor_block); keep that order, since a worker that
  is the first in its process to factor pays the whole 0.13-0.14 s import.
"""

import contextlib
import math
import mmap
import os
import signal
import time
from collections import deque
from fractions import Fraction

import numpy as np

from . import discretization as dz
from . import diagnostics as dg
from . import ground_state as gs

EXACT_MAX_BYTES = 2 ** 30
# a scan chunk ends before its running log|prefix product| leaves
# [-LOG_SPAN, LOG_SPAN], so the products and their reciprocals stay finite
LOG_SPAN = 600.0
# blowup thresholds: max|u| and ||grad u|| against those of W
AMP_FACTOR = GRAD_FACTOR = 10.0
# slots of the shared ring that carries sampled states to the fit worker:
# the fits that may be in flight before a sample waits for the oldest
RING = 8
# seconds a closed worker gets to exit before it is terminated
JOIN_S = 10.0


class EvolverConfig:
    """One evolution's settings; track_modulation is off only for wpm's backward run."""

    def __init__(self, *, dt, t_span, sample_every, track_modulation=True):
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
        from scipy.linalg import eigh_tridiagonal
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
    """N(s) u given m2 = |u|^2 and pexp = (p_c - 1) / 2 = Fraction(2, d - 2).
    The exact ratio lets ground_state._power take m2^pexp by a square root
    at d = 6, np.cbrt at d = 8 and two square roots at d = 10 instead of libm
    pow.  exp(ix) is formed from t = tan(x/2) as (c - 1) + i t c with
    c = 2 / (1 + t^2): one transcendental per node instead of a cosine and
    a sine."""
    t = np.tan((0.5 * s) * gs._power(m2, pexp))
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
    pexp = Fraction(2, lapl.grid.d - 2)
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
        # s(t) = int |u|^{2(d+2)/(d-2)} per sample, in units of that of W
        self.s_crit = []
        self.termination = {"status": "completed"}
        self.steps = 0
        self.reflection = {}
        self.modulation = {"fits": 0, "nfev": 0, "edge_hits": 0,
                           "first_edge_t": None}
        # seconds spent in the modulation fits (on the fit worker when one
        # ran); reported in the manifest, not in trace.json
        self.fit_seconds = 0.0

    def add_fit(self, k, fit):
        """Record sample k's modulation fit, as ``_fit`` returns it."""
        dist, theta, mu, nfev, at_edge, seconds = fit
        self.h1_dist[k], self.theta[k], self.mu[k] = dist, theta, mu
        mod = self.modulation
        mod["fits"] += 1
        mod["nfev"] += nfev
        if at_edge:
            mod["edge_hits"] += 1
            if mod["first_edge_t"] is None:
                mod["first_edge_t"] = self.times[k]
        self.fit_seconds += seconds

    def save(self, csv_path, json_path):
        with open(csv_path, "w") as f:
            f.write("t,E,kinetic,max_amp,h1_dist_to_modW,theta_fit,mu_fit,s_crit\n")
            for row in zip(self.times, self.energy, self.kinetic, self.max_amp,
                           self.h1_dist, self.theta, self.mu, self.s_crit):
                f.write(",".join("%.17g" % x for x in row) + "\n")
        dz.save_json(json_path, {"termination": self.termination,
                                 "reflection": self.reflection,
                                 "modulation": self.modulation,
                                 "config": self.config.as_dict()})


def _fit(u, grid):
    """One sample's modulation fit: (distance, theta, mu, nfev,
    at_bracket_edge, seconds taken)."""
    t0 = time.perf_counter()
    fit = dg.fit_modulation(u, grid)
    return (fit.distance, fit.theta, fit.mu, fit.diagnostics["nfev"],
            fit.diagnostics["at_bracket_edge"], time.perf_counter() - t0)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _move_to_cpu(k):
    """Move the calling process to the k-th CPU it may run on, modulo their
    number, and allow it all of them again.  A process that never sleeps
    changes CPU only by the kernel's periodic load balancing; where a cpuset
    turns that off (sched_load_balance 0), a forked child stays on its
    parent's CPU.  On such a 2-vCPU machine wpm's forward evolution took
    0.71-1.10 s beside its backward child, against 0.37-0.48 s alone.  Does
    nothing without the affinity calls."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(cpus)[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity calls, or a CPU went offline
        pass


def _fork_context():
    """The "fork" multiprocessing context when a ``_Worker`` can run beside
    the caller, else None: the process must be allowed two or more CPUs, the
    platform must offer fork, and the process must not be a daemonic
    multiprocessing worker (such as a multiprocessing.Pool's), which may
    not start children."""
    if _cpus() < 2:
        return None
    import multiprocessing  # 9 ms of import that only forking callers need
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _work(conn, parent_end, fn, p):
    """A ``_Worker``'s loop, on its p-th allowed CPU: for each job index i
    received on conn, send back fn(i) or the exception it raised.  It closes
    its copy of the parent's end first, so it sees end of file, and exits,
    when the parent closes that end or dies.  Interrupts go to the parent."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _move_to_cpu(p)
    while True:
        try:
            i = conn.recv()
        except EOFError:
            return
        try:
            out = fn(i)
        except Exception as exc:  # re-raised by the parent, in submit order
            out = exc
        try:
            conn.send(out)
        except ConnectionError:  # the parent has closed its end
            return


class _Worker:
    """A forked worker (see the module docstring), forked from ctx, on CPU
    ``cpu``.  ``submit(i)`` sends job index i; ``result`` returns
    (i, fn(i)) for the oldest index in flight (``pending``) or re-raises
    the exception fn raised.  A worker that exits without a result is a
    RuntimeError "<name(i)> exited (code N)".  As a context manager it joins
    the worker after a clean exit and terminates it at once after an error,
    which then does not wait out the worker's job."""

    def __init__(self, ctx, fn, name):
        self.name, self.pending = name, deque()
        self.cpu = 1 + len(ctx.active_children())
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_work, daemon=True,
                                args=(child_end, self.conn, fn, self.cpu))
        self.proc.start()
        child_end.close()

    def submit(self, i):
        self.pending.append(i)
        try:
            self.conn.send(i)
        except ConnectionError:
            self._exited()

    def result(self):
        try:
            out = self.conn.recv()
        except (EOFError, ConnectionError):
            self._exited()
        i = self.pending.popleft()
        if isinstance(out, Exception):
            raise out
        return i, out

    def _exited(self):
        self.proc.join(JOIN_S)
        raise RuntimeError("%s exited (code %s)" % (self.name(self.pending[0]),
                                                    self.proc.exitcode)) from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.conn.close()
        if exc_type is None:
            self.proc.join(JOIN_S)
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()


def _processes(procs, njobs):
    """The number of processes ``forked_map`` runs njobs jobs on for a cap
    of procs: min(procs, _cpus(), njobs) when _fork_context() allows a
    child, else 1."""
    count = min(procs, _cpus(), njobs)
    return count if count > 1 and _fork_context() is not None else 1


def forked_map(fn, jobs, procs):
    """[fn(job) for job in jobs] on P = _processes(procs, len(jobs))
    processes: the caller, on its first allowed CPU, runs jobs 0, P, 2P, ...
    and the p-th ``_Worker`` runs jobs p, p + P, ...  A job is any value
    fn reads, as only its index is sent.  The workers are forked before the
    caller starts its jobs, so none inherits a pipe the caller then opens
    (such as its fit worker's).  A worker that exits without a result is a
    RuntimeError "job <job> exited (code N)".  With P = 1 the jobs run one
    after the other in the caller."""
    count = _processes(procs, len(jobs))
    if count == 1:
        return [fn(job) for job in jobs]
    ctx = _fork_context()
    out = [None] * len(jobs)
    # exited last-forked first: a worker holds the parent's ends of the
    # pipes forked before it, so an earlier one sees end of file only
    # after the later ones have exited
    with contextlib.ExitStack() as stack:
        workers = []
        for p in range(1, count):
            worker = stack.enter_context(_Worker(ctx, lambda i: fn(jobs[i]),
                                                 lambda i: "job %s" % (jobs[i],)))
            for i in range(p, len(jobs), count):
                worker.submit(i)
            workers.append(worker)
        _move_to_cpu(0)
        out[::count] = [fn(job) for job in jobs[::count]]
        for worker in workers:
            while worker.pending:
                i, out[i] = worker.result()
    return out


class _Fits:
    """Modulation fits of the sampled states, handed to record(k, fit) in
    sample order (fit as ``_fit`` returns it).

    Given a multiprocessing context ctx, ``submit`` copies sample k's state
    into slot k mod RING of an anonymous shared mmap and submits k to a
    ``_Worker``, which fits that slot while the caller steps on; the caller
    moves to the first allowed CPU and waits only when RING fits are in
    flight.  With ctx None each fit runs in the caller on submit, and
    ``worker`` is None.  ``drain`` waits for every fit in flight.
    """

    def __init__(self, grid, record, ctx):
        self.grid, self.record, self.worker = grid, record, None
        if ctx is not None:
            buf = mmap.mmap(-1, RING * grid.nnodes * np.dtype(complex).itemsize)
            self.ring = ring = np.frombuffer(buf, complex).reshape(RING, grid.nnodes)
            self.worker = _Worker(ctx, lambda k: _fit(ring[k % RING], grid),
                                  lambda k: "the modulation fit worker")
            _move_to_cpu(0)

    def submit(self, k, u):
        if self.worker is None:
            self.record(k, _fit(u, self.grid))
            return
        if len(self.worker.pending) == RING:
            self.record(*self.worker.result())
        self.ring[k % RING] = u
        self.worker.submit(k)

    def drain(self):
        while self.worker and self.worker.pending:
            self.record(*self.worker.result())


def reflection_horizon(u, grid):
    """u's reflection record on grid: k_bar = ||grad u|| / ||u||_2, the group speed
    v_g = 2 k_bar, and horizon_elapsed = 2 r_max / v_g, radiation's round trip."""
    k_bar = float(np.sqrt(dz.kinetic_sq(u, grid) / np.sum(grid.cellv * np.abs(u) ** 2)))
    return {"k_bar": k_bar, "group_speed": 2.0 * k_bar,
            "horizon_elapsed": 2.0 * grid.r_max / (2.0 * k_bar)}


def evolve(u0, config, bg):
    """March the Cayley splitting scheme over config.t_span on the background
    bg (a ground_state.Background), sampling diagnostics.

    Declares blowup when max|u| > AMP_FACTOR * max W  AND
    ||grad u|| > GRAD_FACTOR * ||grad W|| (checked every step), or when values
    go non-finite.  The trace records u0's reflection_horizon (round trip of
    radiation at group speed 2 k_bar, k_bar = ||grad u0|| / ||u0||_2).
    Declares scattering at a sample (status "scattering-detected", with the
    decision time, S and the tail estimate) when s, the sample's
    s(t) = int |u|^{2(d+2)/(d-2)} in units of W's, fell since the previous
    sample, the geometric tail s |dt_s| / ln(s_prev / s) of the critical
    norm S = int s dt (trapezoid rule over the samples so far) is below
    diagnostics.THRESHOLDS["tail_fraction"] of S, and the elapsed time is
    within the reflection horizon.  The rule is scale-invariant: under
    u -> l^{(d-2)/2} u(l^2 t, l r), s scales by l^2 and the time by l^{-2},
    so S and tail / S are unchanged, and a stationary W never fires it.  The
    run stops at that sample, so its trace and final state are those of the
    run whose t_span ends there.
    Adjacent nonlinear half-steps are merged (see the module docstring);
    samples, the blowup test and final_state see the true state.
    trace.steps counts the steps taken.  The step and sample counts are
    |t1 - t0| / dt and sample_every / dt rounded, so a span off the step grid
    ends up to dt/2 from t1.  Scenario configs reject such spans, and
    evolve-near-solution snaps the horizons it derives to the grid: the
    forward one, and backward the seed's reflection horizon, rounded down.
    The potential |u|^{p_c+1} of each sample's energy is formed by products
    when 2(p_c + 1) is an integer (d = 3, 4, 6, 10), see ground_state._power;
    s(t) multiplies it by |u|^{4/(d-2)} (|u| itself at d = 6).  Both
    integrals are discretization.dot products with the quadrature weights, so
    E and s, like the fits, have the same bits whatever the BLAS thread count.
    With config.track_modulation, each sample's modulation fit runs on the
    fit worker (see the module docstring) when it can overlap the stepping;
    trace.fit_seconds sums the fits' busy time wherever they ran.
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
    trace.reflection = reflection_horizon(u, grid)

    # |u|^{2(d+2)/(d-2)} = |u|^{p_c+1} |u|^{4/(d-2)}
    spow = Fraction(4, grid.d - 2)
    s_w = float(dz.dot(gs._power(bg.W, bg.p_c + 1) * gs._power(bg.W, spow), grid.w))
    tail_fraction = dg.THRESHOLDS["tail_fraction"]
    S = 0.0

    def sample(t, u):
        """Record the sample of u at t; True when it decides scattering."""
        nonlocal S
        K = np.sqrt(dz.kinetic_sq(u, grid))
        amp = np.abs(u)
        mx = float(np.max(amp))
        pot = gs._power(amp, bg.p_c + 1)
        E = 0.5 * K ** 2 - (grid.d - 2) / (2 * grid.d) * dz.integrate(pot, grid)
        pot *= gs._power(amp, spow)
        s = float(dz.dot(pot, grid.w)) / s_w
        trace.times.append(t)
        trace.energy.append(E)
        trace.kinetic.append(float(K))
        trace.max_amp.append(mx)
        trace.s_crit.append(s)
        # the fit, when tracked, fills these in (add_fit)
        trace.h1_dist.append(np.nan)
        trace.theta.append(np.nan)
        trace.mu.append(np.nan)
        if config.track_modulation:
            fits.submit(len(trace.times) - 1, u)
        if len(trace.times) == 1:
            return False
        s_prev, span = trace.s_crit[-2], abs(t - trace.times[-2])
        S += 0.5 * (s_prev + s) * span
        if abs(t - t0) > trace.reflection["horizon_elapsed"]:
            trace.reflection["horizon_exceeded"] = True
        elif 0 < s < s_prev:
            tail = s * span / math.log(s_prev / s)
            if tail < tail_fraction * S:
                trace.termination = {"status": "scattering-detected",
                                     "t_decision": t, "S": S, "tail": tail}
                return True
        return False

    ctx = _fork_context() if config.track_modulation else None
    fits = _Fits(grid, trace.add_fit, ctx)
    with fits.worker or contextlib.nullcontext():
        sample(t0, u)
        # v is the state after the linear substep; the true state is
        # N(dt/2) v, and |v| = |u|, so m2 serves the next rotation and the
        # amplitude test
        pexp, half = Fraction(2, grid.d - 2), 0.5 * dt
        v, m2, lead = u, _abs2(u), 0.5
        for i in range(nsteps):
            v = step_fn(v, lead, 0.0, m2)
            lead = 1.0
            trace.steps = i + 1
            m2 = _abs2(v)
            t = t0 + (i + 1) * dt
            mx = math.sqrt(m2.max())
            if not math.isfinite(mx):
                trace.termination = {"status": "nan", "t_star": t,
                                     "bracket": [t - dt, t]}
                break
            if mx > amp_ref and dz.kinetic_sq(_rotate(v, half, m2, pexp), grid) > kin_ref2:
                trace.termination = {"status": "blowup-detected", "t_star": t,
                                     "bracket": [t - dt, t]}
                break
            if (i + 1) % per == 0 and sample(t, _rotate(v, half, m2, pexp)):
                break
        fits.drain()
    trace.final_state = _rotate(v, half, m2, pexp) if nsteps else u
    return trace


def energy_drift(trace):
    """max_t |E(t) - E(0)| / |E(0)| over the recorded (pre-termination) samples."""
    E = np.asarray(trace.energy)
    if E.size == 0:
        return float("nan")
    return float(np.max(np.abs(E - E[0])) / abs(E[0]))
