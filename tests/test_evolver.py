"""Splitting evolver: conservation, symmetry, convergence, blowup detection."""

import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest
import scipy.linalg

from nlslab import diagnostics as dg
from nlslab import discretization as dz
from nlslab import evolver as ev
from nlslab import ground_state as gs


@pytest.fixture(scope="module")
def u0(grid):
    return (0.9 * gs.sample_w(grid)).astype(complex)


def _mass(u, grid):
    return float(np.sum(grid.cellv * np.abs(u) ** 2))


def test_config_validation():
    ok = dict(dt=1e-3, t_span=(0.0, 10.0), sample_every=0.5, track_modulation=True)
    with pytest.raises(ValueError):
        ev.EvolverConfig(**dict(ok, dt=-0.1))
    cfg = ev.EvolverConfig(**dict(ok, dt=0.01, t_span=(0, 1)))
    assert cfg.as_dict()["dt"] == 0.01


@pytest.mark.parametrize("linear_step", ["exact", "cayley"])
def test_mass_conserved(grid, lapl, u0, linear_step):
    stp = ev.make_stepper(lapl, 0.01, linear_step=linear_step)
    u = u0.copy()
    for _ in range(50):
        u = stp(u)
    assert _mass(u, grid) == pytest.approx(_mass(u0, grid), rel=1e-12)


@pytest.mark.parametrize("linear_step", ["exact", "cayley"])
def test_time_reversal(grid, lapl, u0, linear_step):
    fwd = ev.make_stepper(lapl, 0.01, linear_step=linear_step)
    bwd = ev.make_stepper(lapl, -0.01, linear_step=linear_step)
    u = u0.copy()
    for _ in range(10):
        u = fwd(u)
    for _ in range(10):
        u = bwd(u)
    assert np.max(np.abs(u - u0)) < 1e-9


def test_gauge_equivariance(grid, lapl, u0):
    # the flow commutes with constant phase rotations
    alpha = 0.8
    stp = ev.make_stepper(lapl, 0.01, linear_step="exact")
    a, b = u0.copy(), (np.exp(1j * alpha) * u0).copy()
    for _ in range(20):
        a, b = stp(a), stp(b)
    assert np.max(np.abs(b - np.exp(1j * alpha) * a)) < 1e-11


def test_linear_substeps_agree_for_small_dt(grid, lapl):
    # exact exponential vs Cayley on a smooth field: both are second order
    # consistent, so one small step should agree to O(dt^3)
    u = np.exp(-grid.r ** 2 / 8).astype(complex)
    dt = 1e-3
    a = ev.make_stepper(lapl, dt, linear_step="exact")(u)
    b = ev.make_stepper(lapl, dt, linear_step="cayley")(u)
    assert np.max(np.abs(a - b)) < 1e-6


def test_step_doubling_order_two():
    g = dz.build_grid(6, 40.0, 400)
    L = dz.DiscreteLaplacian(g)
    u0 = (0.95 * gs.sample_w(g)).astype(complex)
    T = 0.5

    def run(dt):
        stp = ev.make_stepper(L, dt, linear_step="exact")
        u = u0.copy()
        for _ in range(int(round(T / dt))):
            u = stp(u)
        return u

    fields = [run(dt) for dt in (0.02, 0.01, 0.005, 0.0025)]
    errs = [np.sqrt(np.sum(g.cellv * np.abs(a - b) ** 2))
            for a, b in zip(fields, fields[1:])]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.3)


def _stepwise(u0, grid, lapl, cfg):
    """Reference run of cfg: one full make_stepper step at a time, with the
    energy and kinetic norm of the sampled states, stopped by evolve's
    blowup detector."""
    pc = gs.critical_exponent(grid.d)
    W = gs.sample_w(grid)
    amp_ref = ev.AMP_FACTOR * np.max(W)
    kin_ref2 = ev.GRAD_FACTOR ** 2 * dz.kinetic_sq(W, grid)
    dt = cfg.dt
    nsteps = int(round((cfg.t_span[1] - cfg.t_span[0]) / dt))
    per = int(round(cfg.sample_every / dt))
    stp = ev.make_stepper(lapl, dt, linear_step="cayley")
    u, energy, kinetic, bracket = u0.copy(), [], [], None
    for i in range(nsteps + 1):
        if i:
            u = stp(u)
            if (np.max(np.abs(u)) > amp_ref
                    and dz.kinetic_sq(u, grid) > kin_ref2):
                bracket = [(i - 1) * dt, i * dt]
                break
        if i % per == 0:
            K2 = dz.kinetic_sq(u, grid)
            kinetic.append(np.sqrt(K2))
            energy.append(0.5 * K2 - (grid.d - 2) / (2 * grid.d)
                          * dz.integrate(np.abs(u) ** (pc + 1), grid))
    return u, np.array(energy), np.array(kinetic), bracket


def test_merged_loop_matches_stepper(grid, lapl, background):
    # evolve merges adjacent nonlinear half-steps; samples and the final
    # state must still be the states of repeated full steps
    u0 = (0.9 * gs.sample_w(grid) * np.exp(0.3j * grid.r)).astype(complex)
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 1.5), sample_every=0.25,
                           track_modulation=False)
    trace = ev.evolve(u0, cfg, background)
    u, energy, kinetic, _ = _stepwise(u0, grid, lapl, cfg)
    assert len(trace.times) == len(energy) == 7
    assert np.max(np.abs(trace.final_state - u)) <= 1e-9 * np.max(np.abs(u))
    assert np.allclose(trace.energy, energy, rtol=1e-10, atol=0)
    assert np.allclose(trace.kinetic, kinetic, rtol=1e-10, atol=0)


def test_merged_loop_blowup_matches_stepper(grid, lapl, background):
    u0 = (1.8 * gs.sample_w(grid)).astype(complex)
    cfg = ev.EvolverConfig(dt=0.005, t_span=(0.0, 30.0), sample_every=1.0,
                           track_modulation=False)
    trace = ev.evolve(u0, cfg, background)
    _, _, _, bracket = _stepwise(u0, grid, lapl, cfg)
    assert trace.termination["status"] == "blowup-detected"
    assert bracket is not None
    assert trace.termination["bracket"] == pytest.approx(bracket, rel=1e-12)
    # final_state is the true state, past the gradient threshold
    kin_ref2 = ev.GRAD_FACTOR ** 2 * dz.kinetic_sq(gs.sample_w(grid), grid)
    assert dz.kinetic_sq(trace.final_state, grid) > kin_ref2


@pytest.fixture(scope="module")
def ref_lapl():
    return dz.DiscreteLaplacian(dz.build_grid(6, 60.0, 6000))


def _cayley_reference(lapl, dt, u):
    """The Cayley substep M^{-1} u - u, M = (1 - i dt/2 Lap) / 2, by LAPACK's
    pivoted LU: of the dense matrix up to 801 nodes, else of the band (zgbsv)."""
    s = 0.25j * dt
    if lapl.grid.nnodes <= 801:
        M = 0.5 * np.eye(lapl.grid.nnodes) - s * lapl.apply(np.eye(lapl.grid.nnodes))
        return np.linalg.solve(M, u) - u
    ab = np.zeros((3, lapl.grid.nnodes), complex)
    ab[0, 1:], ab[1], ab[2, :-1] = -s * lapl.up[:-1], 0.5 - s * lapl.di, -s * lapl.lo[1:]
    return scipy.linalg.solve_banded((1, 1), ab, u) - u


@pytest.mark.parametrize("n", [400, 6000])
@pytest.mark.parametrize("dt", [0.01, -0.01, 5e-3, 1e-3])
def test_cayley_substep_matches_pivoted_solve(n, dt, ref_lapl):
    lapl = ref_lapl if n == 6000 else dz.DiscreteLaplacian(dz.build_grid(6, 60.0, n))
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    got = ev.make_stepper(lapl, dt, "cayley")(u, lead=0, trail=0)
    want = _cayley_reference(lapl, dt, u)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_scan_chunks_keep_products_in_range(ref_lapl):
    # dt = 1e-3 at n = 6000: the prefix products of both sweeps span more
    # than e^{+-600}, so each sweep is cut into chunks
    s = 0.25j * 1e-3
    wf, wm, wb, fwd, back = ev.factor_banded(
        -s * ref_lapl.lo[1:], 0.5 - s * ref_lapl.di, -s * ref_lapl.up[:-1])
    assert len(fwd) >= 4 and len(back) >= 4
    for chunks in (fwd, back[::-1]):  # the back sweep runs from the last row
        bounds = [(lo, hi) for lo, hi, _ in chunks]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == 6001
    for P in (wm * wb, wb):  # forward and back-sweep prefix products
        assert np.max(np.abs(np.log(np.abs(P)))) <= ev.LOG_SPAN * (1 + 1e-12)


def test_solve_banded_many_chunks(rng):
    # a strongly dominant diagonal makes every coefficient small, so the
    # prefix products fall fast and the scans take many chunks
    n = 1000
    sub = 0.05 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    sup = 0.05 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    diag = 2.0 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    factors = ev.factor_banded(sub, diag, sup)
    assert len(factors[3]) >= 6 and len(factors[4]) >= 6
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = np.linalg.solve(np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1), b)
    got = ev.solve_banded(factors, b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
                                  [1.0, np.nan, 1.0], [1.0, 1.0, np.inf]])
def test_factor_banded_refuses_bad_pivots(diag):
    # [1, 1, 1] with unit couplings: the second pivot is 1 - 1 * 1 / 1 = 0
    with pytest.raises(ValueError, match="pivot"):
        ev.factor_banded(np.ones(2, complex), np.array(diag, complex),
                         np.ones(2, complex))


def test_factor_banded_refuses_weights_out_of_range():
    # forward coefficients ~25 per row and back-sweep ones ~5e-4: the folded
    # weight P_fwd / P_back of overlapping chunks would pass e^1200
    with pytest.raises(ValueError, match="range"):
        ev.factor_banded(np.full(399, 50, complex), np.full(400, 2, complex),
                         np.full(399, 1e-3, complex))


def test_cayley_substep_is_an_isometry(ref_lapl):
    # the Cayley substep alone keeps the cell-volume L^2 norm over 100 steps
    grid = ref_lapl.grid
    u = (gs.sample_w(grid) * np.exp(0.5j * grid.r)).astype(complex)
    stp = ev.make_stepper(ref_lapl, 0.01, "cayley")
    v = u
    for _ in range(100):
        v = stp(v, lead=0, trail=0)
    assert abs(_mass(v, grid) / _mass(u, grid) - 1) <= 1e-13


def test_exact_substep_refuses_large_grids():
    # n = 12000: the 12001 x 12001 eigenvector matrix would take 1.15 GB
    big = dz.DiscreteLaplacian(dz.build_grid(6, 60.0, 12000))
    with pytest.raises(ValueError, match="n = 12000.*1152192008-byte"):
        ev.make_stepper(big, 0.01, linear_step="exact")
    assert getattr(big, "_eig", None) is None
    ev.check_exact_size(11584)  # 11585 nodes: 1073697800 bytes, under 1 GiB
    with pytest.raises(ValueError):
        ev.check_exact_size(11585)


def test_evolve_samples_and_conserves(grid, background, u0):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 2.0), sample_every=0.5,
                           track_modulation=True)
    trace = ev.evolve(u0, cfg, background)
    assert trace.termination["status"] == "completed"
    assert trace.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert ev.energy_drift(trace) < 1e-5
    assert trace.reflection["horizon_elapsed"] > 0
    assert len(trace.mu) == len(trace.times)
    assert trace.final_state.shape == (grid.nnodes,)


def test_evolve_backward_time(grid, background, u0):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, -1.0), sample_every=0.5,
                           track_modulation=False)
    trace = ev.evolve(u0, cfg, background)
    assert trace.termination["status"] == "completed"
    assert trace.times[-1] == pytest.approx(-1.0)


def test_blowup_detection_brackets_t_star(grid, background):
    # supercritical amplitude: focusing beats dispersion and the conjunctive
    # detector must fire at finite time with a one-step bracket
    u0 = (1.8 * gs.sample_w(grid)).astype(complex)
    cfg = ev.EvolverConfig(dt=0.005, t_span=(0.0, 30.0), sample_every=1.0,
                           track_modulation=False)
    trace = ev.evolve(u0, cfg, background)
    assert trace.termination["status"] == "blowup-detected"
    lo, hi = trace.termination["bracket"]
    assert hi - lo == pytest.approx(0.005, rel=1e-6)
    assert lo < trace.termination["t_star"] <= hi + 1e-12


def test_trace_counts_fits_on_the_bracket_edge(grid, background):
    # W at a scale beyond the fit's scan: the first fit's best scanned scale
    # is the end of the scan; the field's scale then moves inside it
    u0 = gs.w_family(0.0, 2.0 * dg.MU_HI, grid)
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 0.5), sample_every=0.05,
                           track_modulation=True)
    trace = ev.evolve(u0, cfg, background)
    mod = trace.modulation
    assert mod["fits"] == len(trace.times) == 11
    assert mod["nfev"] > mod["fits"]
    assert 0 < mod["edge_hits"] < mod["fits"]
    assert mod["first_edge_t"] == 0.0
    assert trace.mu[0] == pytest.approx(dg.MU_HI, rel=1e-6)
    assert trace.mu[-1] < 0.9 * dg.MU_HI


def test_fit_worker_is_joined_after_a_nan(background, u0, two_cpus, monkeypatch):
    make = ev.make_stepper

    def poisoned(lapl, dt, linear_step):
        step, calls = make(lapl, dt, linear_step), []

        def step_fn(u, *args):
            calls.append(None)
            u = step(u, *args)
            if len(calls) == 40:
                u[0] = np.nan
            return u
        return step_fn
    monkeypatch.setattr(ev, "make_stepper", poisoned)
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 1.0), sample_every=0.05,
                           track_modulation=True)
    trace = ev.evolve(u0, cfg, background)
    assert trace.termination["status"] == "nan"
    assert trace.termination["t_star"] == pytest.approx(0.4)
    assert trace.modulation["fits"] == len(trace.times) == 8
    assert np.all(np.isfinite(trace.h1_dist))


def test_fit_worker_error_is_raised_by_evolve(background, u0, two_cpus, monkeypatch):
    # the k-th fit raises in the worker, with fits after it in flight
    fit, calls = dg.fit_modulation, []

    def failing(u, grid):
        calls.append(None)
        if len(calls) == 11:
            raise RuntimeError("fit 11 failed")
        return fit(u, grid)
    monkeypatch.setattr(dg, "fit_modulation", failing)
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 2.0), sample_every=0.05,
                           track_modulation=True)
    with pytest.raises(RuntimeError) as exc:
        ev.evolve(u0, cfg, background)
    assert type(exc.value) is RuntimeError and str(exc.value) == "fit 11 failed"


def test_fit_worker_exit_is_an_error(background, u0, two_cpus, monkeypatch):
    monkeypatch.setattr(dg, "fit_modulation", lambda u, grid: os._exit(3))
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 1.0), sample_every=0.05,
                           track_modulation=True)
    with pytest.raises(RuntimeError, match=r"fit worker exited \(code 3\)"):
        ev.evolve(u0, cfg, background)


def _fits_in_a_daemon(conn, u0, background):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 0.5), sample_every=0.05,
                           track_modulation=True)
    conn.send(ev.evolve(u0, cfg, background).modulation["fits"])


def test_daemonic_process_fits_in_process(background, u0, two_cpus):
    # a multiprocessing.Pool worker is daemonic and may not start a child
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    proc = ctx.Process(target=_fits_in_a_daemon, daemon=True,
                       args=(child_end, u0, background))
    proc.start()
    child_end.close()
    try:
        assert parent_end.poll(60)
        assert parent_end.recv() == 11
    finally:
        proc.join(60)
    assert not proc.is_alive() and proc.exitcode == 0


def test_forked_map_jobs_need_not_be_picklable(two_cpus):
    # only job indices cross the pipe, so a job may be any value fn reads
    jobs = [lambda k=k: (k, os.getpid()) for k in range(5)]
    with pytest.raises(Exception):
        pickle.dumps(jobs[1])
    out = ev.forked_map(lambda job: job(), jobs, 2)
    assert [k for k, _ in out] == list(range(5))
    pids = [pid for _, pid in out]
    assert set(pids[::2]) == {os.getpid()}
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()


def test_forked_map_error_in_the_caller_does_not_wait_for_the_worker(two_cpus):
    # the caller's job 0 raises while the worker is still in job 1; the
    # worker is terminated at once, not joined for up to JOIN_S
    def job(k):
        if k == 0:
            raise ValueError("job 0 failed")
        time.sleep(ev.JOIN_S)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="job 0 failed"):
        ev.forked_map(job, [0, 1], 2)
    assert time.perf_counter() - start < 0.1 * ev.JOIN_S


def test_stationary_w_stays_near_family(grid, background):
    W = gs.sample_w(grid).astype(complex)
    cfg = ev.EvolverConfig(dt=0.005, t_span=(0.0, 5.0), sample_every=1.0,
                           track_modulation=True)
    trace = ev.evolve(W, cfg, background)
    assert trace.termination["status"] == "completed"
    # the modulated distance is absolute; compare against ||grad W|| ~ 84.5
    # (the O(h^2) static residual of the sampled W sets the attainable floor)
    assert np.max(trace.h1_dist) < 1e-3 * np.sqrt(dz.kinetic_sq(W, grid))


def test_evolve_input_validation(grid, background):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 1.0), sample_every=0.5,
                           track_modulation=True)
    with pytest.raises(ValueError):
        ev.evolve(np.ones(7, complex), cfg, background)
    bad = np.ones(grid.nnodes, complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ev.evolve(bad, cfg, background)
    # a field file of zeros passes config checks; it has no reflection horizon
    with pytest.raises(ValueError, match="zero initial data"):
        ev.evolve(np.zeros(grid.nnodes, complex), cfg, background)


def test_trace_save_round_trip(tmp_path, grid, background, u0):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 1.0), sample_every=0.5,
                           track_modulation=True)
    trace = ev.evolve(u0, cfg, background)
    csv, js = str(tmp_path / "trace.csv"), str(tmp_path / "trace.json")
    trace.save(csv, js)
    with open(csv) as f:
        header = f.readline().strip()
    assert header == "t,E,kinetic,max_amp,h1_dist_to_modW,theta_fit,mu_fit,s_crit"
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape == (len(trace.times), 8)
    assert np.array_equal(data[:, 7], trace.s_crit)
    meta = dz.load_json(js)
    assert meta["termination"]["status"] == "completed"
    assert meta["config"]["dt"] == 0.01
    assert meta["modulation"]["fits"] == len(trace.times) == 3
    assert meta["modulation"]["nfev"] >= 3
    assert meta["modulation"]["edge_hits"] == 0
    assert meta["modulation"]["first_edge_t"] is None


def test_scattering_stop_is_the_prefix_of_the_full_run(grid, lapl, background):
    # the run stopped at the decision equals, bit for bit, the run whose span
    # ends there, and its final state is that of repeated full steps: the
    # stop leaves no half-rotation pending
    u0 = (0.8 * np.exp(-grid.r ** 2 / 4)).astype(complex)

    def config(t1):
        return ev.EvolverConfig(dt=0.01, t_span=(0.0, t1), sample_every=0.25,
                                track_modulation=True)
    stopped = ev.evolve(u0, config(15.0), background)
    assert stopped.termination["status"] == "scattering-detected"
    prefix = ev.evolve(u0, config(stopped.termination["t_decision"]), background)
    assert stopped.steps == prefix.steps < 1500
    for name in ("times", "energy", "kinetic", "max_amp", "h1_dist", "theta",
                 "mu", "s_crit"):
        assert np.array_equal(getattr(stopped, name), getattr(prefix, name)), name
    assert np.array_equal(stopped.final_state, prefix.final_state)
    assert prefix.termination == stopped.termination
    u = _stepwise(u0, grid, lapl, config(stopped.termination["t_decision"]))[0]
    assert np.max(np.abs(stopped.final_state - u)) <= 1e-9 * np.max(np.abs(u))


def _symmetry_data(grid):
    """Real data that stop by each rule within 25 time units on (d, 20, 400):
    a dispersing gaussian pulse, 0.9 W (runs its span) and 1.2 W (blows up)."""
    W = gs.sample_w(grid)
    return {"gaussian": 0.8 * np.exp(-grid.r ** 2 / 4), "0.9W": 0.9 * W,
            "1.2W": 1.2 * W}


def _run(u0, bg, t1, dt, every):
    cfg = ev.EvolverConfig(dt=dt, t_span=(0.0, t1), sample_every=every,
                           track_modulation=False)
    return ev.evolve(u0.astype(complex), cfg, bg)


@pytest.mark.parametrize("d", [6, 7, 8, 10])
def test_backward_evolution_of_real_data_is_the_conjugate(d):
    # u(-t) = conj u(t) for real data, bit for bit: the factorization, the
    # scans and the rotation are conjugation-symmetric
    g = dz.build_grid(d, 20.0, 400)
    bg = gs.Background(g)
    statuses = set()
    for name, u0 in _symmetry_data(g).items():
        fwd, bwd = (_run(u0, bg, t1, 0.01, 0.5) for t1 in (25.0, -25.0))
        assert fwd.termination["status"] == bwd.termination["status"], name
        assert fwd.steps == bwd.steps, name
        assert np.array_equal(fwd.final_state, np.conj(bwd.final_state)), name
        assert np.array_equal(fwd.times, -np.asarray(bwd.times)), name
        for col in ("energy", "kinetic", "max_amp", "s_crit"):
            assert np.array_equal(getattr(fwd, col), getattr(bwd, col)), (name, col)
        statuses.add(fwd.termination["status"])
    assert statuses == {"scattering-detected", "completed", "blowup-detected"}


@pytest.mark.parametrize("d", [6, 8, 10])
def test_scaled_evolution_is_the_scaled_state(d):
    # 2^{(d-2)/2} u(2r) on half the box, with dt/4 over a quarter of the span,
    # evolves into the scaled state bit for bit where the amplitude factor is
    # a power of two.  Blowup is left out: its thresholds are multiples of the
    # grid's own W, which does not scale with the data
    lam = 2.0 ** ((d - 2) / 2)
    big = dz.build_grid(d, 20.0, 400)
    small = gs.Background(dz.build_grid(d, 10.0, 400))
    statuses = set()
    for name in ("gaussian", "0.9W"):
        u0 = _symmetry_data(big)[name]
        a = _run(u0, gs.Background(big), 25.0, 0.01, 0.5)
        b = _run(lam * u0, small, 25.0 / 4, 0.01 / 4, 0.5 / 4)
        assert a.termination["status"] == b.termination["status"], name
        assert a.steps == b.steps, name
        assert np.array_equal(lam * a.final_state, b.final_state), name
        assert np.array_equal(np.asarray(a.times) / 4, b.times), name
        assert np.array_equal(a.kinetic, b.kinetic), name
        assert np.array_equal(lam * np.asarray(a.max_amp), b.max_amp), name
        # the reflection horizon, which bounds wpm's backward span, is a time
        assert b.reflection["horizon_elapsed"] == a.reflection["horizon_elapsed"] / 4, name
        statuses.add(a.termination["status"])
    assert statuses == {"scattering-detected", "completed"}
