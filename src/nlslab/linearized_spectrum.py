"""Real block form of the linearized operator around W and its eigenmode.

Writing a perturbation v = y1 + i*y2 of W, the linearized flow
d/dt v + L(v) = 0 decomposes into the two self-adjoint Schroedinger-type
blocks

    L_plus  = Lap + p_c W^{p_c - 1}    (acts on the real part),
    L_minus = Lap +     W^{p_c - 1}    (acts on the imaginary part),

with the eigenmode relations  L_minus y2 = e0 y1  and  -L_plus y1 = e0 y2,
i.e. (y1, y2) is an eigenvector of the block operator
B (y1, y2) = (L_minus y2, -L_plus y1) with eigenvalue e0.  The
unstable/stable pair is Y_plus = y1 + i y2 (rate +e0) and its conjugate
Y_minus (rate -e0).  Both blocks are the ground_state.Background's Laplacian
bands with c W^{p_c - 1} on the diagonal, applied as lapl.apply(y, c pot);
no other copy of them is kept.

Every fine-grid solve goes through one factorization: the block matrix

    A_s = [[L_plus, s I], [-s I, L_minus]],

with the unknowns interleaved as y1_0, y2_0, y1_1, y2_1, ..., is a real band
matrix with two diagonals on each side, factored by LAPACK's banded LU
(factor_block).  A_s is a signed row permutation of B - s I: in complex
storage y = y1 + i y2, (B - s I) y' = y exactly when A_s y' = i y.  The
order-j profiles of the near-solution series solve A_{j e0}; the eigenmode
comes from inverse iteration on B - s I with the single factorization of
A_s, which certifies the eigenpair to near round-off.  The same iteration
on a coarse grid of at most 400 cells gives the shift s, starting from a
dense eigenvalue sweep of L_minus L_plus on at most 100 cells, whose most
negative eigenvalue -s^2 locates e0 away from truncated-continuum artifacts
(a dense eigenvalue of the squared operator errs by up to
eps ||L_minus L_plus|| / e0^2 relative, ~h^-4, and costs O(n^3)).

factor_block is the one caller of scipy: it imports scipy.linalg's LAPACK
wrappers (dgbtrf, dgbtrs) when it runs, so importing this module, and
nlslab, loads no scipy module; the first factorization in a process (in a
scenario run, the coarse shift of the config check) pays the ~0.26 s import.
"""

import functools
import math

import numpy as np

from . import discretization as dz
from . import ground_state as gs

N_COARSE = 400    # cells of the coarse grid whose e0 is the shift (fewer when the grid has fewer)
N_DENSE = 100     # cells of the dense sweep that anchors the coarse grid's iteration
TOL = 1e-10       # block residual, relative to e0, that ends the inverse iteration
MAX_ITER = 40


def build_blocks(grid):
    """The ground_state.Background of grid, whose lapl and pot give L_plus and L_minus."""
    return gs.Background(grid)


def _block_band(bg, s):
    """A_s on interleaved unknowns, in the LAPACK band storage dgbtrf expects
    (kl = ku = 2, two extra rows on top for the fill-in of partial pivoting):
    entry A[i, c] sits at ab[4 + i - c, c]."""
    lapl = bg.lapl
    ab = np.zeros((7, 2 * bg.grid.nnodes))
    ab[4, 0::2], ab[4, 1::2] = lapl.di + bg.p_c * bg.pot, lapl.di + bg.pot
    ab[2, 2::2] = ab[2, 3::2] = lapl.up[:-1]
    ab[6, 0:-2:2] = ab[6, 1:-2:2] = lapl.lo[1:]
    ab[3, 1::2] = s    # y1-row i, column y2_i
    ab[5, 0::2] = -s   # y2-row i, column y1_i
    return ab


def factor_block(bg, s):
    """Banded LU of A_s = [[L_plus, s I], [-s I, L_minus]].

    Returns (solve, ||A_s||_1), where solve(x, trans=0) returns A_s^{-1} x
    (trans=1: A_s^{-T} x) for x on interleaved unknowns, one vector or the
    columns of a matrix.
    """
    from scipy.linalg import lapack
    ab = _block_band(bg, s)
    norm_a = float(np.abs(ab[2:]).sum(axis=0).max())
    lu, piv, info = lapack.dgbtrf(ab, 2, 2)
    if info != 0:
        raise np.linalg.LinAlgError("block system A_s is singular at s = %g "
                                    "(dgbtrf info %d)" % (s, info))

    def solve(x, trans=0):
        return lapack.dgbtrs(lu, 2, 2, x, piv, trans=trans)[0]

    return solve, norm_a


class EigenPair:
    """(e0, y1, y2) with Y_plus = y1 + i y2, normalized to ||Y_plus||_{H1-dot} = 1.

    inverse_iteration: {"iterations", "residuals"}, the block residual
    ||B z - e0 z|| (||z|| = 1) after each step of ``ground_mode``.
    """

    def __init__(self, e0, y1, y2, residual=None, normalization=None,
                 inverse_iteration=None):
        self.e0 = float(e0)
        self.y1 = np.asarray(y1, dtype=float)
        self.y2 = np.asarray(y2, dtype=float)
        self.residual = residual
        self.normalization = normalization or {}
        self.inverse_iteration = inverse_iteration or {}

    @property
    def y_plus(self):
        return self.y1 + 1j * self.y2


@functools.cache
def _coarse_shift(d, r_max, n):
    """Coarse-grid estimate of e0 on n cells: on more than N_DENSE cells, the
    e0 of _inverse_iteration from the N_DENSE-cell shift; on at most N_DENSE,
    sqrt(-lambda), lambda the most negative eigenvalue of L_minus L_plus by a dense sweep,
    which keeps the iteration away from truncated-continuum artifacts.
    Memoized: grids sharing d, r_max and n here run it once.
    """
    if n > N_DENSE:
        s = _coarse_shift(d, r_max, N_DENSE)
        return _inverse_iteration(gs.Background(dz.build_grid(d, r_max, n)), s)[0]
    bg = gs.Background(dz.build_grid(d, r_max, n))
    L_plus = bg.lapl.apply(np.eye(bg.grid.nnodes), bg.p_c * bg.pot)
    lam = np.linalg.eigvals(bg.lapl.apply(L_plus, bg.pot))
    real = lam[np.abs(lam.imag) < 1e-8 * np.abs(lam.real).max()].real
    neg = real[real < 0]
    if neg.size == 0:
        raise RuntimeError(
            "no negative eigenvalue of L_minus L_plus on the coarse grid "
            "(d=%d, r_max=%g): grid too coarse or domain too small" % (d, r_max))
    return float(np.sqrt(-neg.min()))


def _norm(z):
    """2-norm of a complex vector by numpy's pairwise sum, not the BLAS
    reduction of np.linalg.norm, whose order depends on the thread count."""
    return math.sqrt(np.sum(z.real ** 2 + z.imag ** 2))


def _inverse_iteration(bg, shift):
    """(e0, y, residuals): inverse iteration on B - s I, s the shift rounded
    to 6 digits, each step one back-substitution with the banded LU of A_s.
    Stops once the residual ||B y - e0 y|| (||y|| = 1; residuals, per step)
    has stopped falling tenfold per step and is below TOL relative to e0 or at
    round-off, eps ||B||_1: its floor grows like ||B||_1 ~ 1/h^2 and passes
    TOL e0 on fine grids (measured 1.3-2.1e-17 ||B||_1 at d = 6, n = 6000 to 48000).
    """
    grid, lapl = bg.grid, bg.lapl
    # the shift only anchors the iteration, so e0 and y keep their bits
    # wherever its 6-digit rounding does, whatever BLAS thread count the dense
    # sweep ran on (unless the shift lies within its error of a boundary)
    s = float("%.6g" % shift)
    solve, norm_a = factor_block(bg, s)
    pot_plus = bg.p_c * bg.pot
    # each column of |A_s| sums to that of |B| plus s
    floor = np.finfo(float).eps * (norm_a - s)
    # complex storage y1 + i y2 is exactly the interleaved layout
    y = np.exp(-grid.r ** 2).astype(complex)
    res_prev, residuals = np.inf, []
    for _ in range(MAX_ITER):
        y = solve((1j * y).view(float)).view(complex)
        y /= _norm(y)
        By = lapl.apply(y.imag, bg.pot) - 1j * lapl.apply(y.real, pot_plus)
        e0 = float(np.sum(y.real * By.real + y.imag * By.imag))
        res = _norm(By - e0 * y)
        residuals.append(res)
        # converged, and no longer gaining a digit per step (round-off floor)
        if res <= max(TOL * abs(e0), floor) and res > 0.1 * res_prev:
            break
        res_prev = res
    else:
        raise RuntimeError("block inverse iteration did not converge "
                           "(reached e0=%g)" % (e0,))
    if e0 <= 0:
        raise RuntimeError("block inverse iteration found a nonpositive rate "
                           "e0=%g" % (e0,))
    return e0, y, residuals


def ground_mode(bg):
    """(e0, Y_plus) of the linearized operator, by _inverse_iteration from _coarse_shift."""
    grid = bg.grid
    e0, y, residuals = _inverse_iteration(
        bg, _coarse_shift(grid.d, grid.r_max, min(N_COARSE, grid.n)))
    y1, y2 = y.real.copy(), y.imag.copy()
    if y1[0] < 0:
        y1, y2 = -y1, -y2
    nrm = np.sqrt(dz.kinetic_sq(y1, grid) + dz.kinetic_sq(y2, grid))
    y1 /= nrm
    y2 /= nrm
    pair = EigenPair(e0, y1, y2,
                     normalization={"norm": "h1dot", "value": 1.0,
                                    "sign": "y1(0) > 0"},
                     inverse_iteration={"iterations": len(residuals),
                                        "residuals": residuals})
    pair.residual = eigen_residual(bg, pair)
    return pair


def eigen_residual(bg, pair):
    """Relative block residual max(||L_minus y2 - e0 y1||, ||L_plus y1 + e0 y2||) / ||pair||.

    Norms are weighted L^2 over the interior nodes (the boundary row carries
    the modified stencil).
    """
    grid = bg.grid
    r1 = bg.lapl.apply(pair.y2, bg.pot) - pair.e0 * pair.y1
    r2 = bg.lapl.apply(pair.y1, bg.p_c * bg.pot) + pair.e0 * pair.y2
    scale = np.sqrt(dz.l2_norm(pair.y1, grid) ** 2
                    + dz.l2_norm(pair.y2, grid) ** 2)
    return max(dz.l2_norm(r1, grid), dz.l2_norm(r2, grid)) / scale


def save_eigenpair(basepath, pair, grid):
    """Write the eigenmode as a field CSV plus a JSON sidecar."""
    dz.save_field(str(basepath) + ".csv", pair.y_plus, grid)
    dz.save_json(str(basepath) + ".json", {
        "d": grid.d, "r_max": grid.r_max, "n": grid.n,
        "e0": pair.e0, "residual": pair.residual,
        "normalization": pair.normalization,
        "inverse_iteration": pair.inverse_iteration,
    })
