"""Nonlinearity expansion and the exponential near-solution recursion."""

import os
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import binom

from nlslab import diagnostics as dg
from nlslab import discretization as dz
from nlslab import ground_state as gs
from nlslab import linearized_spectrum as ls
from nlslab import series_builder as sb


@pytest.fixture(scope="module")
def near2(pair, background):
    return sb.build_near_solution(2, 1.0, pair, background)


@pytest.mark.parametrize("d", [6, 7])
def test_order_forcing_is_the_binomial_expansion(d):
    # Phi_1 = c W and Phi_m = 0 for m >= 2 make U = c x, so F_j is W^{p_c}
    # times the x^j coefficient of (1 + c x)^{a+} (1 + conj(c) x)^{a-},
    # a+- = (p_c +- 1)/2: halves at d = 6, and no integers at any d >= 6
    grid = dz.build_grid(d, 40.0, 200)
    bg = gs.Background(grid)
    ap, am = (bg.p_c + 1) / 2, (bg.p_c - 1) / 2
    if d == 6:
        assert [binom(ap, 2), ap * am, binom(am, 2), binom(ap, 3)] == \
            pytest.approx([3 / 8, 3 / 4, -1 / 8, -1 / 16], rel=1e-15)
    c = 0.3 - 0.7j
    profiles = [None, c * bg.W] + 3 * [np.zeros(grid.nnodes, complex)]
    for j in range(2, 6):
        coef = sum(binom(ap, j1) * binom(am, j - j1) * c ** j1 * np.conj(c) ** (j - j1)
                   for j1 in range(j + 1))
        want = coef * bg.W ** bg.p_c
        got = sb.order_forcing(j, profiles, bg)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (d, j)


def test_eval_r_is_quadratically_small(grid, background):
    # i R(v) strips the constant and linear parts, so ||R(eps v)|| = O(eps^2)
    v = gs.sample_w(grid) * (0.3 + 0.2j)
    n1 = np.max(np.abs(sb.eval_r(1e-3 * v, background)))
    n2 = np.max(np.abs(sb.eval_r(2e-3 * v, background)))
    assert n2 / n1 == pytest.approx(4.0, rel=1e-2)


def test_eval_gamma_is_the_derivative_of_the_nonlinearity(grid, background):
    # Gamma(v) = d/deps [ |W+eps v|^{p_c-1}(W+eps v) ] at eps = 0
    pc = gs.critical_exponent(grid.d)
    W = gs.sample_w(grid)
    v = np.exp(-grid.r ** 2 / 4) * (1.0 + 0.5j)
    h = 1e-6

    def nl(eps):
        u = W + eps * v
        return np.abs(u) ** (pc - 1) * u

    fd = (nl(h) - nl(-h)) / (2 * h)
    assert np.max(np.abs(sb.eval_gamma(v, background) - fd)) < 1e-7


def test_series_reconstruction_matches_direct_remainder():
    # with profiles through order k = 3, sum_j e^{-j e0 t} F_j reproduces
    # i R(v_k(t)) up to the dropped orders O(e^{-4 e0 t}): past t_k, where
    # max|v_k|/W is about 1/20, the miss falls 16-fold as e^{-e0 t} halves
    for d in (6, 7, 8):
        grid = dz.build_grid(d, 40.0, 800)
        bg = gs.Background(grid)
        pair = ls.ground_mode(bg)
        near = sb.build_near_solution(3, 1.0, pair, bg)
        t1 = sb.validity_start(near) + np.log(10.0) / pair.e0
        misses = []
        for t in (t1, t1 + np.log(2.0) / pair.e0):
            direct = sb.eval_r(sb.perturbation(near, t), bg)
            miss = dz.l2_norm(direct - sb.series_reconstruction(near, t), grid)
            assert miss < 0.01 * dz.l2_norm(direct, grid), d
            misses.append(miss)
        assert misses[0] / misses[1] == pytest.approx(16.0, rel=0.03), d


def test_solve_profile_satisfies_block_equations(grid, pair, background):
    # the banded solution must satisfy the block system it factors
    #   L_plus f + j e0 g = -Re F,   L_minus g - j e0 f = -Im F
    profiles = [None, 1.0 * pair.y_plus]
    F = sb.order_forcing(2, profiles, background)
    phi, cond = sb.solve_profile(2, F, pair, background)
    f, g = phi.real, phi.imag
    je0 = 2 * pair.e0
    lapl, pot = background.lapl, background.pot
    r1 = lapl.apply(f, background.p_c * pot) + je0 * g + F.real
    r2 = lapl.apply(g, pot) - je0 * f + F.imag
    scale = dz.l2_norm(F, grid)
    assert dz.l2_norm(r1, grid) / scale < 1e-8
    assert dz.l2_norm(r2, grid) / scale < 1e-8
    assert cond > 1
    with pytest.raises(ValueError):
        sb.solve_profile(1, F, pair, background)


def test_solve_profile_reports_block_conditioning(grid, pair, background):
    # the reported conditioning is ||A_j||_1 ||A_j^{-1}||_1 of the block
    # system that is solved, estimated from below, the same on every call; no
    # resonance warning fires away from the discrete spectrum
    profiles = [None, 1.0 * pair.y_plus]
    N = grid.nnodes
    lapl, pot = background.lapl, background.pot
    Lp, Lm = lapl.apply(np.eye(N), background.p_c * pot), lapl.apply(np.eye(N), pot)
    for j in (2, 3, 4):
        F = sb.order_forcing(j, profiles, background)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, cond = sb.solve_profile(j, F, pair, background)
        profiles.append(phi)
        A = np.block([[Lp, j * pair.e0 * np.eye(N)],
                      [-j * pair.e0 * np.eye(N), Lm]])
        exact = np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1)
        assert 0.9 * exact <= cond <= exact * (1 + 1e-9), (j, cond, exact)
        assert sb.solve_profile(j, F, pair, background)[1] == cond


def test_solve_profile_warns_at_resonance(grid, pair, background):
    # with the rate halved, 2 * e0 hits the eigenvalue e0 of the eigen-block;
    # every call warns
    F = sb.order_forcing(2, [None, pair.y_plus], background)
    half = ls.EigenPair(pair.e0 / 2, pair.y1, pair.y2)
    for _ in range(2):
        with pytest.warns(UserWarning, match="near-singular"):
            sb.solve_profile(2, F, half, background)


def test_batched_residual_matches_per_time_oracle(grid, pair, background):
    # the direct residual per time sample; the two summation orders differ by
    # round-off in the terms that cancel in eps (|Lap| |u| ~ |u| / h^2), so
    # the gap is measured against those terms, not against eps itself
    pc = background.p_c
    L = background.lapl
    for k in (1, 2, 3, 4):
        near = sb.build_near_solution(k, 1.0, pair, background)
        t_k = sb.validity_start(near)
        ts = np.linspace(t_k, t_k + 60.0, 45)
        assert len(ts) > sb.CHUNK_BYTES // (16 * grid.nnodes)  # several chunks
        l2s, sups = sb._residual_norms(near, ts, 2, L.apply(near.W))
        for t, l2, sup in zip(ts, l2s, sups):
            u = sb.assemble(near, t)
            ut = sb.time_derivative(near, t)
            eps = 1j * ut + L.apply(u) + np.abs(u) ** (pc - 1) * u
            a = np.abs(u)
            terms = np.abs(L.di) * a + np.abs(ut) + a ** pc
            terms[:-1] += np.abs(L.up[:-1]) * a[1:]
            terms[1:] += np.abs(L.lo[1:]) * a[:-1]
            assert abs(l2 - dz.l2_norm(eps, grid)) \
                <= 1e-12 * dz.l2_norm(terms, grid)
            assert abs(sup - dz.weighted_sup_norm(eps, 2, grid)) \
                <= 1e-12 * dz.weighted_sup_norm(terms, 2, grid)


def test_residual_norms_reject_non_finite_values(grid, pair, background):
    near = sb.build_near_solution(1, 1.0, pair, background)
    near.profiles[1] = near.profiles[1].copy()
    near.profiles[1][5] = np.inf
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="non-finite residual"):
        sb._residual_norms(near, np.array([0.0, 1.0]), 2, background.lapl.apply(near.W))


def test_order_forcing_requires_lower_profiles(grid, pair, background):
    with pytest.raises(ValueError):
        sb.order_forcing(3, [None, pair.y_plus, None], background)
    with pytest.raises(ValueError):
        sb.order_forcing(1, [None], background)


def test_residual_rate_k1(grid, pair, background):
    near = sb.build_near_solution(1, 1.0, pair, background)
    report = sb.residual_rate(near)
    target = 2 * pair.e0
    assert abs(report.rate - target) / target < 0.10
    assert report.fit_residual < 0.1
    assert report.window[0] >= report.t_k - 1e-9


def test_residual_rate_k2_exceeds_k1(grid, pair, background, near2):
    near1 = sb.build_near_solution(1, 1.0, pair, background)
    r1 = sb.residual_rate(near1)
    r2 = sb.residual_rate(near2)
    assert r2.rate > r1.rate


def _full_window_report(near):
    """residual_rate's report from all 121 samples: the norms evaluated
    without the stop and fitted by the same rate_fit calls; "window empty"
    where the L^2 fit finds no window."""
    bg = near.background
    lap_w = bg.lapl.apply(near.W)
    floor_field = lap_w + near.W ** bg.p_c
    floor = dz.l2_norm(floor_field, near.grid)
    sup_floor = dz.weighted_sup_norm(floor_field, 2, near.grid)
    t_k = sb.validity_start(near)
    ts = np.linspace(t_k, t_k + 60.0, 121)
    l2s, sups = sb._residual_norms(near, ts, 2, lap_w)
    assert len(l2s) == len(sups) == 121
    try:
        fit = dg.rate_fit(ts, l2s, floor)
    except ValueError:
        return "window empty"
    try:
        rate_sup = dg.rate_fit(ts, sups, sup_floor).rate
    except ValueError:
        rate_sup = float("nan")
    return sb.ResidualReport(fit, rate_sup, floor, t_k).as_dict()


def _unit_cells(pair, bg, ks, amplitudes):
    # the sweep's cells: one a = 1 series scaled by a^j
    unit = sb.build_near_solution(max(ks), 1.0, pair, bg)
    for k in ks:
        for a in amplitudes:
            profiles = [None] + [a ** j * unit.profiles[j] for j in range(1, k + 1)]
            yield sb.NearSolution(bg, k, a, unit.e0, profiles)


# d = 10's order-2 warning comes from the non-normal operator, not a resonance
@pytest.mark.filterwarnings("ignore:order-2 resolvent is near-singular")
@pytest.mark.parametrize("d", [6, 8, 10])
def test_stopping_at_the_floor_changes_no_report(d, pair, background):
    # the stop keeps every sample either rate fit keeps, so the report is
    # that of all 121 samples, field by field (assert_equal takes nan == nan)
    if d == 6:
        ks, amplitudes, bg = (1, 2, 3, 4), (1.0, -1.0, 1.6, -1.6), background
    else:
        ks, amplitudes = (1, 2, 3), (1.0, -1.0)
        bg = gs.Background(dz.build_grid(d, 60.0, 800))
        pair = ls.ground_mode(bg)
    for near in _unit_cells(pair, bg, ks, amplitudes):
        try:
            got = sb.residual_rate(near).as_dict()
        except RuntimeError as exc:
            assert "fit window empty" in str(exc)
            got = "window empty"
        np.testing.assert_equal(got, _full_window_report(near),
                                err_msg="k = %d, a = %g" % (near.k, near.a))


def test_residual_rate_stops_at_the_floor(grid, pair, background, monkeypatch):
    # at k = 4 both norms are within 10x their floors in the first row chunk
    evaluated = []
    norms = sb._residual_norms

    def spy(*args):
        out = norms(*args)
        evaluated.append(len(out[0]))
        return out
    monkeypatch.setattr(sb, "_residual_norms", spy)
    near = sb.build_near_solution(4, 1.0, pair, background)
    # this coarse grid leaves 3 L^2 samples above 10x the floor, too few to fit
    with pytest.raises(RuntimeError, match="fit window empty"):
        sb.residual_rate(near)
    assert evaluated and evaluated[0] < 121 / 2
    # the non-finite guard runs on each evaluated chunk before the stop test
    lap_w = background.lapl.apply(near.W)
    ts = np.linspace(0.0, 60.0, 121)
    ts[sb.CHUNK_BYTES // (16 * grid.nnodes) - 1] = np.nan  # the first chunk's last row
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="non-finite residual"):
        norms(near, ts, 2, lap_w, (1e300, 1e300))


def test_validity_start_shifts_with_amplitude(pair, background):
    # for k = 1 the perturbation is a e^{-e0 t} Y_plus, so the smallness time
    # shifts by exactly ln(a)/e0
    n1 = sb.build_near_solution(1, 1.0, pair, background)
    n3 = sb.build_near_solution(1, 3.0, pair, background)
    t1, t3 = sb.validity_start(n1), sb.validity_start(n3)
    assert t3 - t1 == pytest.approx(np.log(3.0) / pair.e0, abs=1e-8)
    n0 = sb.build_near_solution(1, 0.0, pair, background)
    assert sb.validity_start(n0) == -np.inf


def test_brentq_port_matches_scipy_on_cubics():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(400):
        r0, r1, r2 = np.sort(rng.uniform(-5.0, 5.0, 3))
        s = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)

        def f(x):
            return s * (x - r0) * (x - r1) * (x - r2)
        lo, hi = rng.uniform(-6.0, r0), rng.uniform(r0, r1)
        if f(lo) * f(hi) < 0:
            assert sb._brentq(f, lo, hi) == brentq(f, lo, hi)
            checked += 1
    assert checked > 300


def test_validity_start_matches_scipy_brentq(pair, background, monkeypatch):
    # the ported root on the validity start's own bracket, for every order
    # and amplitude a sweep cell uses
    brackets = []
    port = sb._brentq

    def spy(f, lo, hi):
        brackets.append((f, lo, hi))
        return port(f, lo, hi)
    monkeypatch.setattr(sb, "_brentq", spy)
    unit = sb.build_near_solution(4, 1.0, pair, background)
    for k in (1, 2, 3, 4):
        for a in (1.0, -1.0, 1.6, -1.6):
            profiles = [None] + [a ** j * unit.profiles[j] for j in range(1, k + 1)]
            near = sb.NearSolution(background, k, a, unit.e0, profiles)
            t_k = sb.validity_start(near)
            f, lo, hi = brackets[-1]
            assert t_k == brentq(f, lo, hi)
    assert len(brackets) == 16


def test_homogeneity_coarse(grid, pair, background):
    # Phi_j^a = a^j Phi_j^1 (the recursion is homogeneous in a)
    a = 1.7
    n1 = sb.build_near_solution(3, 1.0, pair, background)
    na = sb.build_near_solution(3, a, pair, background)
    for j in range(1, 4):
        ref = a ** j * n1.profiles[j]
        rel = dz.l2_norm(na.profiles[j] - ref, grid) / dz.l2_norm(ref, grid)
        assert rel < 1e-9


def test_translation_identity_coarse(grid, pair, background, near2):
    # W_k^a(t) = W_k^{sgn a}(t - ln|a|/e0)
    a = 1.7
    na = sb.build_near_solution(2, a, pair, background)
    for t in (10.0, 20.0):
        lhs = sb.assemble(na, t)
        rhs = sb.assemble(near2, t - np.log(a) / pair.e0)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_time_derivative_matches_differences(near2):
    t, h = 15.0, 1e-5
    fd = (sb.assemble(near2, t + h) - sb.assemble(near2, t - h)) / (2 * h)
    assert np.max(np.abs(sb.time_derivative(near2, t) - fd)) < 1e-9


def test_near_solution_round_trip(tmp_path, grid, pair, background, near2):
    report = sb.residual_rate(near2)
    path = str(tmp_path / "bundle")
    sb.save_near_solution(path, near2, report)
    meta = dz.load_json(os.path.join(path, "manifest.json"))
    assert meta["k"] == near2.k and meta["a"] == near2.a and meta["e0"] == near2.e0
    profiles = [None]
    for j in range(1, near2.k + 1):
        phi, g2 = dz.load_field(os.path.join(path, "profile_%d.csv" % j))
        assert g2 == grid
        assert np.array_equal(phi, near2.profiles[j])
        profiles.append(phi)
    loaded = sb.NearSolution(background, meta["k"], meta["a"], meta["e0"], profiles)
    t = 12.0
    assert np.array_equal(sb.assemble(loaded, t), sb.assemble(near2, t))
    assert meta["conditioning"] == {str(j): c for j, c in near2.conditioning.items()}
    assert meta["residual_report"]["rate"] == report.rate
