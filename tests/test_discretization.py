"""Grid, quadrature, and flux-Laplacian tests against independent oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nlslab import discretization as dz


def gaussian(r):
    return np.exp(-r ** 2 / 2)


def gaussian_radial_laplacian(r, d):
    # Delta f = f'' + (d-1)/r f' for f = exp(-r^2/2)
    return (r ** 2 - d) * np.exp(-r ** 2 / 2)


# ---------------------------------------------------------------------------
# grid geometry

def test_angular_measure_known_values():
    assert dz.angular_measure(3) == pytest.approx(4 * np.pi, rel=1e-14)
    assert dz.angular_measure(4) == pytest.approx(2 * np.pi ** 2, rel=1e-14)
    assert dz.angular_measure(6) == pytest.approx(np.pi ** 3, rel=1e-14)


def test_cell_volumes_tile_the_ball(grid):
    ball = grid.omega * grid.r_max ** grid.d / grid.d
    assert np.sum(grid.cellv) == pytest.approx(ball, rel=1e-13)
    assert np.all(grid.cellv > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        dz.build_grid(2, 10.0, 100)
    with pytest.raises(ValueError):
        dz.build_grid(6, -1.0, 100)
    with pytest.raises(ValueError):
        dz.build_grid(6, 10.0, 8)


def test_field_length_checked(grid):
    with pytest.raises(ValueError):
        dz.integrate(np.ones(grid.nnodes - 1), grid)


# ---------------------------------------------------------------------------
# quadrature vs adaptive-quad oracles

def test_integrate_matches_quad_oracle(grid):
    val = dz.integrate(gaussian(grid.r), grid)
    oracle, _ = quad(lambda s: gaussian(s) * s ** (grid.d - 1), 0, grid.r_max)
    assert val == pytest.approx(grid.omega * oracle, rel=1e-9)


def test_dot_is_matmul_up_to_a_chunk_and_in_order_chunk_dots_above(rng):
    # up to DOT_CHUNK elements one BLAS call, bit for bit; above, the sum of
    # chunk dots in order, the short tail chunk included (n = 12001)
    for n in (17, 6001, dz.DOT_CHUNK):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert dz.dot(a, b) == a @ b
    chunk = dz.DOT_CHUNK
    for n in (chunk + 1, 12001, 3 * chunk):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        want = 0.0
        for i in range(0, n, chunk):
            want += a[i:i + chunk] @ b[i:i + chunk]
        assert dz.dot(a, b) == want
        assert abs(dz.dot(a, b) - math.fsum(a * b)) <= 1e-13 * np.sum(np.abs(a * b))


def test_l2_norm_matches_quad_oracle(grid):
    val = dz.l2_norm(gaussian(grid.r), grid)
    oracle, _ = quad(lambda s: gaussian(s) ** 2 * s ** (grid.d - 1), 0, grid.r_max)
    assert val == pytest.approx(np.sqrt(grid.omega * oracle), rel=1e-9)


def test_kinetic_sq_matches_quad_oracle(grid):
    # |grad f|^2 = f'(r)^2 with f' = -r exp(-r^2/2); the flux form carries an
    # O(h^2) bias, removed by the Richardson-refined variant
    oracle, _ = quad(lambda s: (s * gaussian(s)) ** 2 * s ** (grid.d - 1),
                     0, grid.r_max)
    oracle *= grid.omega
    assert dz.kinetic_sq(gaussian(grid.r), grid) == pytest.approx(oracle, rel=1e-3)
    assert dz.kinetic_sq(gaussian(grid.r), grid, refine=True) == \
        pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("n", [400, 6000])
@pytest.mark.parametrize("refine", [False, True])
def test_kinetic_sq_matches_hypot_form(n, refine):
    # the Re^2 + Im^2 form against the squared hypot it replaced
    g = dz.build_grid(6, 60.0, n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)

    def ref(u, g):
        return np.sum(g.flux * np.abs(np.diff(u)) ** 2)

    want = ref(u, g)
    if refine:
        want = (4 * want - ref(u[::2], dz.build_grid(6, 60.0, n // 2))) / 3
    assert dz.kinetic_sq(u, g, refine=refine) == pytest.approx(want, rel=1e-12, abs=0)


def test_kinetic_refine_improves_accuracy(grid):
    oracle, _ = quad(lambda s: (s * gaussian(s)) ** 2 * s ** (grid.d - 1),
                     0, grid.r_max)
    oracle *= grid.omega
    plain = abs(dz.kinetic_sq(gaussian(grid.r), grid) - oracle)
    refined = abs(dz.kinetic_sq(gaussian(grid.r), grid, refine=True) - oracle)
    assert refined < 1e-2 * plain


def test_kinetic_refine_needs_even_n():
    g = dz.build_grid(6, 10.0, 101)
    with pytest.raises(ValueError):
        dz.kinetic_sq(gaussian(g.r), g, refine=True)


def test_weighted_sup_norm_oracle(grid):
    # sup_r <r> |f| for f = exp(-r^2/2): maximize sqrt(1+r^2) e^{-r^2/2}
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda s: -np.sqrt(1 + s ** 2) * gaussian(s),
                          bounds=(0, 5), method="bounded")
    assert dz.weighted_sup_norm(gaussian(grid.r), 1, grid) == \
        pytest.approx(-res.fun, rel=1e-6)


# ---------------------------------------------------------------------------
# flux Laplacian

def test_laplacian_exact_on_quadratics(grid, lapl):
    # Lap r^2 = 2d exactly for the flux form (interior rows; the boundary row
    # carries the tail closure, which r^2 does not satisfy)
    out = lapl.apply(grid.r ** 2)
    assert np.allclose(out[:-1], 2 * grid.d, rtol=0, atol=1e-9)


def test_laplacian_second_order_on_gaussian():
    errs = []
    for n in (400, 800, 1600):
        g = dz.build_grid(6, 40.0, n)
        L = dz.DiscreteLaplacian(g)
        res = L.apply(gaussian(g.r)) - gaussian_radial_laplacian(g.r, g.d)
        errs.append(np.max(np.abs(res[:-1])))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 2.0) < 0.3)


def test_laplacian_self_adjoint_in_cell_volumes(grid, lapl, rng):
    u = rng.standard_normal(grid.nnodes) + 1j * rng.standard_normal(grid.nnodes)
    v = rng.standard_normal(grid.nnodes) + 1j * rng.standard_normal(grid.nnodes)
    lhs = np.sum(grid.cellv * np.conj(lapl.apply(u)) * v)
    rhs = np.sum(grid.cellv * np.conj(u) * lapl.apply(v))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_kinetic_is_laplacian_quadratic_form(grid, lapl, rng):
    # discrete integration by parts: sum flux |du|^2 = -<u, Lap u>_V for
    # fields vanishing at the boundary node (no ghost contribution)
    u = rng.standard_normal(grid.nnodes) * np.exp(-(grid.r - 10) ** 2)
    u[-1] = 0.0
    lhs = dz.kinetic_sq(u, grid)
    rhs = -np.sum(grid.cellv * u * lapl.apply(u))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_apply_agrees_with_dense_tridiagonal(grid, lapl, rng):
    # (Lap + diag v) built densely from the bands; a matrix of columns gives
    # its columns' products bit for bit (the coarse shift applies L_minus to
    # the dense L_plus)
    N = grid.nnodes
    u = rng.standard_normal(N)
    U = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    for v in (None, rng.standard_normal(N)):
        T = (np.diag(lapl.lo[1:], -1) + np.diag(lapl.di + (0 if v is None else v))
             + np.diag(lapl.up[:-1], 1))
        tol = 1e-14 * np.abs(T).sum(axis=1).max()
        assert np.max(np.abs(lapl.apply(u, v) - T @ u)) <= tol * np.max(np.abs(u))
        assert np.max(np.abs(lapl.apply(U, v) - T @ U)) <= tol * np.max(np.abs(U))
        cols = np.stack([lapl.apply(U[:, j], v) for j in range(U.shape[1])], axis=1)
        assert np.array_equal(lapl.apply(U, v), cols)
    with pytest.raises(ValueError):
        lapl.apply(np.ones((N - 1, 2)))


# ---------------------------------------------------------------------------
# power-law tail helpers

def test_fit_powerlaw_tail_recovers_exact_tail(grid):
    d = grid.d
    c1, c2 = 2.5, -7.0
    u = c1 * np.maximum(grid.r, 1.0) ** -(d - 2) + c2 * np.maximum(grid.r, 1.0) ** -d
    f1, f2 = dz.fit_powerlaw_tail(u, grid)
    assert f1 == pytest.approx(c1, rel=1e-8)
    assert f2 == pytest.approx(c2, rel=1e-6)


def test_tail_kinetic_closed_form(grid):
    # pure c1 r^{-(d-2)} tail: omega (d-2)^2 c1^2 int_R^inf s^{-(d-1)} ds
    #                        = omega (d-2) c1^2 R^{-(d-2)}
    d, R = grid.d, grid.r_max
    c1 = 1.3
    exact = grid.omega * (d - 2) * c1 ** 2 * R ** -(d - 2)
    assert dz.tail_kinetic_sq(c1, 0.0, grid) == pytest.approx(exact, rel=1e-9)
    # the cross term and the c2^2 term, against quad of the tail's density
    # |d/ds (c1 s^{-(d-2)} + c2 s^{-d})|^2 s^{d-1}, at several d
    for d in (3, 6, 7, 8, 10):
        g = dz.build_grid(d, 2.0, 16)
        for c1, c2 in ((1.3, -7.0), (-0.4, 2.5), (0.0, 3.0)):
            ref, _ = quad(lambda s: ((d - 2) * c1 * s ** (1 - d) + d * c2 * s ** (-1 - d)) ** 2
                          * s ** (d - 1), g.r_max, np.inf, epsabs=0, epsrel=1e-13)
            assert dz.tail_kinetic_sq(c1, c2, g) == pytest.approx(g.omega * ref, rel=1e-12)


def test_tail_lp_closed_form(grid):
    # int_R^inf (c1 s^{-(d-2)})^p s^{d-1} ds with p = 2: omega c1^2 R^{-(d-4)}/(d-4)
    d, R = grid.d, grid.r_max
    c1 = 0.8
    exact = grid.omega * c1 ** 2 * R ** -(d - 4) / (d - 4)
    assert dz.tail_lp(c1, 0.0, 2.0, grid) == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# norms as metrics

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_h1_distance_is_a_metric(seed):
    g = dz.build_grid(6, 10.0, 64)
    r = np.random.default_rng(seed)
    u = r.standard_normal(g.nnodes) + 1j * r.standard_normal(g.nnodes)
    v = r.standard_normal(g.nnodes) + 1j * r.standard_normal(g.nnodes)
    w = r.standard_normal(g.nnodes) + 1j * r.standard_normal(g.nnodes)
    duv = dz.h1_distance(u, v, g)
    assert duv == pytest.approx(dz.h1_distance(v, u, g), rel=1e-12)
    assert dz.h1_distance(u, u, g) == 0.0
    assert dz.h1_distance(u, w, g) <= duv + dz.h1_distance(v, w, g) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_is_linear(seed, a, b):
    g = dz.build_grid(6, 10.0, 64)
    r = np.random.default_rng(seed)
    u = r.standard_normal(g.nnodes)
    v = r.standard_normal(g.nnodes)
    lhs = dz.integrate(a * u + b * v, g)
    rhs = a * dz.integrate(u, g) + b * dz.integrate(v, g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# persistence

def test_field_round_trip(tmp_path, grid, rng):
    u = rng.standard_normal(grid.nnodes) + 1j * rng.standard_normal(grid.nnodes)
    path = os.path.join(tmp_path, "field.csv")
    dz.save_field(path, u, grid)
    v, g2 = dz.load_field(path)
    assert g2 == grid
    assert np.array_equal(u, v)


def test_load_field_rejects_missing_header(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as f:
        f.write("r,re,im\n0,1,0\n")
    with pytest.raises(ValueError):
        dz.load_field(path)


def test_json_round_trip(tmp_path):
    path = os.path.join(tmp_path, "meta.json")
    obj = {"d": 6, "vals": [1.0, 2.5], "nested": {"ok": True}}
    dz.save_json(path, obj)
    assert dz.load_json(path) == obj


def test_failed_json_dump_leaves_the_old_file(tmp_path):
    path = os.path.join(tmp_path, "meta.json")
    dz.save_json(path, {"d": 6})
    with pytest.raises(TypeError):
        dz.save_json(path, {"d": 7, "bad": object()})
    assert dz.load_json(path) == {"d": 6}
    assert os.listdir(tmp_path) == ["meta.json"]


def test_import_leaves_scipy_optimize_and_integrate_unloaded():
    # a fresh process: importing the package loads none of scipy.optimize,
    # scipy.integrate and scipy.sparse, nor multiprocessing (9 ms), which
    # only the processes forked for evolutions need; the tail-corrected
    # kinetic norm, whose tail has a closed form, leaves scipy.integrate
    # unloaded, and the potential term, whose tail exponent p_c + 1 need not
    # be an integer, loads it
    code = "\n".join([
        "import sys",
        "import nlslab",
        "from nlslab import discretization as dz, ground_state as gs",
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.sparse',",
        "                         'multiprocessing', 'concurrent.futures.process')",
        "             if m in sys.modules))",
        "g = dz.build_grid(6, 40.0, 400)",
        "print(gs.kinetic_norm(gs.sample_w(g), g) > 0)",
        "print('scipy.integrate' in sys.modules)",
        "print(gs.potential_term(gs.sample_w(g), g) > 0)",
        "print('scipy.integrate' in sys.modules)",
    ])
    assert _fresh_process(code) == ["[]", "True", "False", "True", "True"]


def test_import_leaves_scipy_unloaded_until_a_factorization():
    # a fresh process, since the evolver and spectrum tests import
    # scipy.linalg themselves: the package and its CLI load no scipy module,
    # an evolution-only scenario leaves scipy.linalg unloaded (the manifest
    # imports only the top-level package for its version), and the banded
    # block factorization of a spectrum and the exact substep load it
    code = "\n".join([
        "import sys, tempfile",
        "import numpy as np",
        "import nlslab, nlslab.cli",
        "from nlslab import evolver as ev, experiments as ex, ground_state as gs",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "out = tempfile.mkdtemp()",
        "grid = {'d': 6, 'r_max': 20.0, 'n': 400}",
        "m = ex.run({'scenario': 'classify-custom', 'grid': grid,",
        "            'initial': {'kind': 'scaled-w', 'factor': 1.02},",
        "            'evolver': {'t_span': [0.0, 2.0]}},",
        "           out_dir=out)",
        "print(m['evolutions']['evolve']['steps'], 'scipy.linalg' in sys.modules)",
        "m = ex.run({'scenario': 'spectrum', 'grid': grid}, out_dir=out)",
        "print(m['ok'], 'scipy.linalg' in sys.modules)",
        "bg = gs.Background(nlslab.discretization.build_grid(**grid))",
        "u = ev.make_stepper(bg.lapl, 0.01, 'exact')(1.02 * bg.W.astype(complex))",
        "print(bool(np.all(np.isfinite(u))))",
    ])
    assert _fresh_process(code) == ["[]", "200", "False", "True", "True", "True"]


def _fresh_process(code):
    """The whitespace-split stdout of code run by a new interpreter on src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()
