"""Ground-state W: closed forms vs quadrature/finite-difference oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from nlslab import discretization as dz
from nlslab import ground_state as gs


def test_critical_exponent_values():
    assert gs.critical_exponent(3) == 5.0
    assert gs.critical_exponent(4) == 3.0
    assert gs.critical_exponent(6) == 2.0
    with pytest.raises(ValueError):
        gs.critical_exponent(2)


def test_w_basic_shape():
    assert gs.eval_w(6, 0.0) == 1.0
    r = np.linspace(0, 50, 500)
    W = gs.eval_w(6, r)
    assert np.all(np.diff(W) < 0)
    # tail ~ (d(d-2))^{(d-2)/2} r^{-(d-2)}
    assert gs.eval_w(6, 1e6) * 1e6 ** 4 == pytest.approx(24.0 ** 2, rel=1e-4)


def test_w_derivative_matches_finite_differences():
    # Richardson-extrapolated central differences as an independent oracle
    for r0 in (0.3, 1.7, 6.0, 25.0):
        h = 1e-4
        d1 = (gs.eval_w(6, r0 + h) - gs.eval_w(6, r0 - h)) / (2 * h)
        d2 = (gs.eval_w(6, r0 + h / 2) - gs.eval_w(6, r0 - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        assert gs.eval_w_derivative(6, r0) == pytest.approx(fd, rel=1e-10)


def test_w_solves_the_static_ode():
    # W'' + (d-1)/r W' + W^{p_c} = 0, with W'' from differences of the
    # closed-form first derivative
    d = 6
    pc = gs.critical_exponent(d)
    for r0 in (0.5, 2.0, 10.0):
        h = 1e-5
        wpp = (gs.eval_w_derivative(d, r0 + h)
               - gs.eval_w_derivative(d, r0 - h)) / (2 * h)
        res = wpp + (d - 1) / r0 * gs.eval_w_derivative(d, r0) \
            + gs.eval_w(d, r0) ** pc
        assert abs(res) < 1e-8


def test_scaling_generator_matches_scale_derivative():
    # Lambda W = -d/dmu [mu^{-(d-2)/2} W(r/mu)] at mu = 1, by differences
    d = 6
    r = np.array([0.0, 0.7, 3.0, 12.0])

    def fam(mu):
        return mu ** (-(d - 2) / 2) * gs.eval_w(d, r / mu)

    h = 1e-6
    fd = -(fam(1 + h) - fam(1 - h)) / (2 * h)
    # sign convention: Lambda W = ((d-2)/2) W + r W' = -d/dmu W_mu at mu = 1
    assert np.allclose(gs.scaling_generator(d, r), fd, rtol=1e-8, atol=1e-10)


def test_kinetic_norm_matches_quad_oracle(grid):
    W = gs.sample_w(grid)
    oracle, _ = quad(lambda s: gs.eval_w_derivative(grid.d, s) ** 2
                     * s ** (grid.d - 1), 0, np.inf, limit=200)
    oracle = np.sqrt(grid.omega * oracle)
    val = gs.kinetic_norm(W, grid)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_energy_matches_quad_oracle(grid):
    d = grid.d
    pc = gs.critical_exponent(d)
    W = gs.sample_w(grid)
    kin2, _ = quad(lambda s: gs.eval_w_derivative(d, s) ** 2 * s ** (d - 1),
                   0, np.inf, limit=200)
    pot, _ = quad(lambda s: gs.eval_w(d, s) ** (pc + 1) * s ** (d - 1),
                  0, np.inf, limit=200)
    oracle = grid.omega * (0.5 * kin2 - (d - 2) / (2 * d) * pot)
    val = gs.energy(W, grid)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_pohozaev_identity_continuum():
    # E(W) = ||grad W||^2 / d for the exact profile, by quadrature alone
    d = 6
    pc = gs.critical_exponent(d)
    kin2, _ = quad(lambda s: gs.eval_w_derivative(d, s) ** 2 * s ** (d - 1),
                   0, np.inf, limit=200)
    pot, _ = quad(lambda s: gs.eval_w(d, s) ** (pc + 1) * s ** (d - 1),
                  0, np.inf, limit=200)
    E = 0.5 * kin2 - (d - 2) / (2 * d) * pot
    assert E == pytest.approx(kin2 / d, rel=1e-10)


def test_sobolev_quotient_symmetry_invariance(grid):
    W = gs.sample_w(grid)
    q0 = gs.sobolev_quotient(W, grid)
    for theta, mu in ((0.9, 1.0), (0.0, 1.5), (2.2, 0.8)):
        q = gs.sobolev_quotient(gs.w_family(theta, mu, grid), grid)
        assert q == pytest.approx(q0, rel=1e-6)
    with pytest.raises(ValueError):
        gs.sobolev_quotient(np.zeros(grid.nnodes), grid)


def test_w_family_unit_parameters_is_w(grid):
    W = gs.sample_w(grid)
    fam = gs.w_family(0.0, 1.0, grid)
    assert np.array_equal(fam.real, W)
    assert np.all(fam.imag == 0)


def _ulps(x, ref):
    return float(np.max(np.abs(x - ref) / np.spacing(ref)))


def test_power_by_products_is_within_a_few_ulps_of_pow():
    # the exponents (d-2)/2 of scaled_w on mu^2 + q, over the reference
    # grid's q and the fit's scale range, and p_c + 1 where 2(p_c + 1) is an
    # integer (d = 3, 4, 6, 10) on amplitudes; measured at most 4 ULP for the
    # power (d = 11) and 5 for its reciprocal, which scaled_w forms (d = 11)
    amp = np.linspace(0.0, 30.0, 3001)[1:]
    for d in range(3, 13):
        q = dz.build_grid(d, 60.0, 6000).q
        k = (d - 2) / 2
        for mu in np.geomspace(0.01, 100.0, 101):
            x = mu * mu + q
            assert _ulps(gs._power(x, k), x ** k) <= 4, (d, mu)
            assert _ulps(1.0 / gs._power(x, k), x ** -k) <= 5, (d, mu)
        p = 2 * d / (d - 2)
        if (2 * p).is_integer():
            assert _ulps(gs._power(amp, p), amp ** p) <= 4, d
        else:
            assert np.array_equal(gs._power(amp, p), amp ** p)


def _within_an_ulp_of_root(y, x, m):
    """Whether each y[i] lies within an ULP of the exact m-th root of x[i],
    decided in rational arithmetic."""
    for yi, xi in zip(y.tolist(), x.tolist()):
        gap = Fraction(math.ulp(yi))
        if not (Fraction(yi) - gap) ** m <= Fraction(xi) <= (Fraction(yi) + gap) ** m:
            return False
    return True


def test_power_takes_the_rotation_roots_without_pow():
    # the rotation's m2 ** (2/(d-2)): a square root at d = 6, bit-identical
    # to **; np.cbrt at d = 8 and two square roots at d = 10, within an ULP
    # of the exact root.  ** at d = 8 carries the rounding of the float 1/3,
    # |ln x| * 1.9e-17 relative (9 ULP on a W tail at r_max = 60), so it is
    # matched to 4 ULP only on m2 in [1e-6, 1e4]
    x = np.geomspace(1e-14, 1e4, 2001)
    assert np.array_equal(gs._power(x, Fraction(2, 4)), x ** 0.5)
    near = x >= 1e-6
    for d, m in ((8, 3), (10, 4)):
        y = gs._power(x, Fraction(2, d - 2))
        assert _within_an_ulp_of_root(y, x, m), d
        assert _ulps(y[near], x[near] ** (2 / (d - 2))) <= 4, d


def test_w_family_scaling_preserves_kinetic_norm(grid):
    # mu^{-(d-2)/2} u(r/mu) is the H1-dot invariant scaling; the tail
    # correction is needed because wider members lose more mass past r_max
    k0 = gs.kinetic_norm(gs.sample_w(grid), grid)
    for mu in (0.7, 1.0, 1.6):
        k = gs.kinetic_norm(gs.w_family(0.0, mu, grid), grid)
        assert k == pytest.approx(k0, rel=1e-6)
