"""Linearized blocks and the unstable eigenmode, certified independently.

L_plus and L_minus are the background's Laplacian plus c W^{p_c-1} on the
diagonal; their dense form, where a test needs an oracle, is apply on the
identity, entry for entry the tridiagonal matrix."""

import numpy as np
import pytest
import scipy.linalg

from nlslab import discretization as dz
from nlslab import ground_state as gs
from nlslab import linearized_spectrum as ls


def _kernel_residual(n, which):
    g = dz.build_grid(6, 40.0, n)
    b = gs.Background(g)
    if which == "minus":
        # L_minus W = Lap W + W^{p_c} = 0 (the static equation)
        res = b.lapl.apply(b.W, b.pot)
        scale = dz.l2_norm(b.W ** b.p_c, g)
    else:
        # L_plus (Lambda W) = 0 (scaling tangent in the kernel)
        lw = gs.scaling_generator(g.d, g.r)
        res = b.lapl.apply(lw, b.p_c * b.pot)
        scale = dz.l2_norm(b.p_c * b.W ** (b.p_c - 1) * lw, g)
    return dz.l2_norm(res, g) / scale


@pytest.mark.parametrize("which", ["minus", "plus"])
def test_kernel_relations_converge_at_order_2(which):
    errs = [_kernel_residual(n, which) for n in (400, 800, 1600)]
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 1e-4
    assert np.all(np.abs(slopes - 2.0) < 0.3)


def test_ground_mode_block_relations(grid, background, pair):
    # L_minus y2 = e0 y1 and -L_plus y1 = e0 y2 directly
    lapl, pot = background.lapl, background.pot
    r1 = lapl.apply(pair.y2, pot) - pair.e0 * pair.y1
    r2 = lapl.apply(pair.y1, background.p_c * pot) + pair.e0 * pair.y2
    scale = np.sqrt(dz.l2_norm(pair.y1, grid) ** 2
                    + dz.l2_norm(pair.y2, grid) ** 2)
    assert dz.l2_norm(r1, grid) / scale < 1e-8
    assert dz.l2_norm(r2, grid) / scale < 1e-8
    assert pair.residual < 1e-8
    assert pair.e0 > 0


def test_ground_mode_normalization(grid, pair):
    nrm = np.sqrt(dz.kinetic_sq(pair.y1, grid) + dz.kinetic_sq(pair.y2, grid))
    assert nrm == pytest.approx(1.0, rel=1e-12)
    assert pair.y1[0] > 0


def test_ground_mode_matches_dense_oracle():
    # independent route: dense eigensolve of the full 2N x 2N block system
    g = dz.build_grid(6, 40.0, 300)
    b = gs.Background(g)
    pair = ls.ground_mode(b)
    eye = np.eye(g.nnodes)
    B = np.block([[np.zeros((g.nnodes, g.nnodes)), b.lapl.apply(eye, b.pot)],
                  [-b.lapl.apply(eye, b.p_c * b.pot), np.zeros((g.nnodes, g.nnodes))]])
    lam = scipy.linalg.eigvals(B)
    real = lam[np.abs(lam.imag) < 1e-6].real
    pos = real[real > 1e-6]
    assert pos.size > 0
    # the discrete point spectrum on the real axis is the +-e0 pair
    assert np.min(np.abs(pos - pair.e0)) / pair.e0 < 1e-8


def test_ground_mode_certifies_fine_grids():
    # the block residual's round-off floor grows like ||B||_1 ~ 1/h^2 and
    # passes 1e-10 e0 near n = 20000; the backward-error stop still certifies
    ref = ls.ground_mode(gs.Background(dz.build_grid(6, 60.0, 6000)))
    fine = ls.ground_mode(gs.Background(dz.build_grid(6, 60.0, 24000)))
    assert fine.residual <= 1e-8
    assert abs(fine.e0 - ref.e0) <= 5e-4
    # e0 at n = 6000 as recorded in bench/reference.json
    assert abs(ref.e0 - 0.14029086451248082) <= 1e-10


def _dense_shift(d, r_max, n):
    """sqrt(-lambda), lambda the most negative real eigenvalue of L_minus L_plus
    on n cells, by a dense eigensolve: the reference for the coarse shift."""
    b = gs.Background(dz.build_grid(d, r_max, n))
    lam = np.linalg.eigvals(b.lapl.apply(b.lapl.apply(np.eye(n + 1), b.p_c * b.pot), b.pot))
    real = lam[np.abs(lam.imag) < 1e-8 * np.abs(lam.real).max()].real
    return float(np.sqrt(-real.min()))


@pytest.mark.parametrize("d", [5, 6, 7, 8, 10])
def test_coarse_shift_rounds_as_a_dense_sweep(d):
    # the 400-cell inverse iteration, anchored by a 100-cell dense sweep,
    # rounds to the 6 digits of a dense sweep on all 400 cells
    assert "%.6g" % ls._coarse_shift(d, 60.0, 400) == "%.6g" % _dense_shift(d, 60.0, 400)


def test_reference_grid_keeps_its_shift_and_e0(monkeypatch):
    # at d = 6, r_max = 60, n = 6000 the fine iteration starts from the
    # shift 0.140761, to which a dense sweep on all 401 coarse nodes also
    # rounds, and gives the e0 that shift gives, to the bit
    shifts, factor = [], ls.factor_block
    monkeypatch.setattr(ls, "factor_block",
                        lambda bg, s: shifts.append((bg.grid.n, s)) or factor(bg, s))
    pair = ls.ground_mode(gs.Background(dz.build_grid(6, 60.0, 6000)))
    assert shifts[-1] == (6000, float("0.140761"))
    assert pair.e0.hex() == "0x1.1f50d118111f6p-3"


def test_eigenmode_decays(grid, pair):
    amp = np.abs(pair.y_plus)
    assert amp[-1] < 1e-3 * np.max(amp)


def test_factor_block_matches_dense_solves(rng):
    g = dz.build_grid(6, 40.0, 50)
    b = gs.Background(g)
    N, s = g.nnodes, 0.3
    I = np.eye(N)
    Lp, Lm = b.lapl.apply(I, b.p_c * b.pot), b.lapl.apply(I, b.pot)
    # A_s on interleaved unknowns y1_0, y2_0, y1_1, ...
    A = np.zeros((2 * N, 2 * N))
    A[0::2, 0::2], A[0::2, 1::2] = Lp, s * I
    A[1::2, 0::2], A[1::2, 1::2] = -s * I, Lm
    solve, norm_a = ls.factor_block(b, s)
    assert norm_a == pytest.approx(np.abs(A).sum(axis=0).max(), rel=1e-14)
    x = rng.standard_normal(2 * N)
    X = rng.standard_normal((2 * N, 3))
    for got, want in ((solve(x), np.linalg.solve(A, x)),
                      (solve(X), np.linalg.solve(A, X)),
                      (solve(x, 1), np.linalg.solve(A.T, x)),
                      (solve(X, 1), np.linalg.solve(A.T, X))):
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12
    # (B - s I) z' = z is A_s z' = (-z2, z1), B (y1, y2) = (L_minus y2, -L_plus y1)
    B = np.block([[np.zeros((N, N)), Lm], [-Lp, np.zeros((N, N))]])
    z1, z2 = rng.standard_normal(N), rng.standard_normal(N)
    rhs = np.empty(2 * N)
    rhs[0::2], rhs[1::2] = -z2, z1
    zp = solve(rhs)
    z = np.concatenate([z1, z2])
    res = (B - s * np.eye(2 * N)) @ np.concatenate([zp[0::2], zp[1::2]]) - z
    assert np.linalg.norm(res) / np.linalg.norm(z) < 1e-12


def test_eigenpair_round_trip(tmp_path, grid, pair):
    base = str(tmp_path / "eigenpair")
    ls.save_eigenpair(base, pair, grid)
    y, g2 = dz.load_field(base + ".csv")
    meta = dz.load_json(base + ".json")
    assert g2 == grid
    assert (meta["d"], meta["r_max"], meta["n"]) == (grid.d, grid.r_max, grid.n)
    assert meta["e0"] == pair.e0
    assert np.array_equal(y.real, pair.y1)
    assert np.array_equal(y.imag, pair.y2)
    assert meta["residual"] == pair.residual
    assert meta["normalization"] == pair.normalization
    # the inverse iteration's record
    record = meta["inverse_iteration"]
    assert record == pair.inverse_iteration
    assert record["iterations"] == len(record["residuals"]) >= 2
    assert record["residuals"][-1] <= 1e-10 * pair.e0
