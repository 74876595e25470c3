"""Radial grid, discrete radial Laplacian, quadrature, and norms.

Everything here discretizes radial functions on [0, r_max] in d spatial
dimensions.  The grid is uniform with n cells (n+1 nodes including the
origin).  Two weight sets coexist:

* ``grid.w``      -- composite-trapezoid weights against omega_{d-1} r^{d-1} dr,
                     used for all quadrature/norm evaluations (superconvergent
                     for smooth decaying integrands);
* ``grid.cellv``  -- exact finite-volume cell volumes, used by the flux-form
                     Laplacian so that the operator is exactly self-adjoint in
                     the cell-volume inner product.

The Laplacian is the conservative flux form

    (Lap u)_i = [a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})] / V_i,
    a_{i+1/2} = omega_{d-1} r_{i+1/2}^{d-1} / h,

which is second-order accurate, exact on quadratics (Lap r^2 = 2d), and whose
origin row reduces to the regular-solution limit d * u''(0) automatically.
At r_max the boundary condition matches the W-like power-law tail
r^{-(d-2)} through a ghost node (a diagonal-only modification).  The chain
builds this operator once per grid, in ground_state.Background.
"""

import json
import math
import os

import numpy as np


def angular_measure(d):
    """Surface measure of the unit sphere S^{d-1}."""
    return 2 * np.pi ** (d / 2) / math.gamma(d / 2)


class RadialGrid:
    """Uniform radial mesh with d-dimensional quadrature weights.

    Nodes are r_i = i*h for i = 0..n with h = r_max/n.  The origin node is
    included for the Laplacian stencil; its quadrature weight is zero
    (r^{d-1} vanishes there), so all integrals effectively run over (0, r_max].
    """

    def __init__(self, d, r_max, n):
        if d < 3:
            raise ValueError("dimension must be >= 3, got %r" % (d,))
        if r_max <= 0:
            raise ValueError("r_max must be positive, got %r" % (r_max,))
        if n < 16:
            raise ValueError("need at least 16 cells, got %r" % (n,))
        self.d = int(d)
        self.r_max = float(r_max)
        self.n = int(n)
        self.h = self.r_max / self.n
        self.r = np.arange(self.n + 1) * self.h
        self.omega = angular_measure(self.d)
        # trapezoid quadrature against omega r^{d-1} dr
        self.w = self.omega * self.r ** (self.d - 1) * self.h
        self.w[0] *= 0.5
        self.w[-1] *= 0.5
        # exact finite-volume cell volumes (cells centered at the nodes)
        edges = np.concatenate(([0.0], self.r[:-1] + self.h / 2, [self.r_max]))
        self.cellv = self.omega * (edges[1:] ** self.d - edges[:-1] ** self.d) / self.d
        # face flux coefficients a_{i+1/2}
        rhalf = self.r[:-1] + self.h / 2
        self.flux = self.omega * rhalf ** (self.d - 1) / self.h
        # per-grid constants of the modulation fit: the flux weights of a
        # kinetic norm written as a sum of squares, and the variable
        # q = r^2/(d(d-2)) of W's closed form (ground_state.scaled_w)
        self.sqrt_flux = np.sqrt(self.flux)
        self.q = self.r ** 2 / (self.d * (self.d - 2))

    @property
    def nnodes(self):
        return self.n + 1

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.d == other.d
                and self.r_max == other.r_max
                and self.n == other.n)

    def __repr__(self):
        return "RadialGrid(d=%d, r_max=%g, n=%d)" % (self.d, self.r_max, self.n)


def build_grid(d, r_max, n):
    """Build a uniform RadialGrid with n cells on [0, r_max]."""
    return RadialGrid(d, r_max, n)


def _check_grid(u, grid):
    u = np.asarray(u)
    if u.shape != (grid.nnodes,):
        raise ValueError("field length %d does not match grid with %d nodes"
                         % (u.shape[0], grid.nnodes))
    return u


class DiscreteLaplacian:
    """Tridiagonal flux-form radial Laplacian on a RadialGrid.

    The boundary row closes with the ghost node u_{n+1} = beta * u_n,
    beta = (r_n / (r_n + h))^{d-2}, matching the r^{-(d-2)} power-law tail
    of W-like fields (diagonal modification, keeps self-adjointness in the
    cell-volume inner product).
    """

    def __init__(self, grid):
        self.grid = grid
        n, h = grid.n, grid.h
        a, V = grid.flux, grid.cellv
        N = grid.nnodes
        lo = np.zeros(N)
        di = np.zeros(N)
        up = np.zeros(N)
        # origin row: flux through r=0 vanishes, reduces to d*u''(0)
        di[0] = -a[0] / V[0]
        up[0] = a[0] / V[0]
        lo[1:n] = a[0:n - 1] / V[1:n]
        di[1:n] = -(a[0:n - 1] + a[1:n]) / V[1:n]
        up[1:n] = a[1:n] / V[1:n]
        # boundary row via ghost node beyond r_max
        a_out = grid.omega * (grid.r_max + h / 2) ** (grid.d - 1) / h
        beta = (grid.r_max / (grid.r_max + h)) ** (grid.d - 2)
        lo[n] = a[n - 1] / V[n]
        di[n] = -(a[n - 1] + (1.0 - beta) * a_out) / V[n]
        self.lo, self.di, self.up = lo, di, up

    def apply(self, u, v=None):
        """(Lap + diag v) u for a field u or each column of a matrix u (v = None:
        Lap u).  Each entry sums lower, diagonal (di + v) and upper term in
        that order, so a matrix gives its columns' products bit for bit."""
        u = np.asarray(u)
        if u.shape[:1] != (self.grid.nnodes,):
            raise ValueError("field shape %r does not match grid with %d nodes"
                             % (u.shape, self.grid.nnodes))
        col = (-1,) + (1,) * (u.ndim - 1)
        lo, up = self.lo.reshape(col), self.up.reshape(col)
        out = (self.di if v is None else self.di + v).reshape(col) * u
        out[1:] = lo[1:] * u[:-1] + out[1:]
        out[:-1] += up[:-1] * u[1:]
        return out


# OpenBLAS keeps a ddot of at most 10,000 elements on one thread and splits a
# longer one over its threads, whose partial sums make the result depend on
# their count
DOT_CHUNK = 10000


def dot(a, b):
    """a @ b for 1-D float arrays, the same bits whatever the BLAS thread
    count: one a @ b up to DOT_CHUNK elements, above that the in-order sum of
    the dots of consecutive DOT_CHUNK-element chunks (the last one shorter).
    Taking the loop's one slice instead made a fit at n = 6000 10% slower."""
    if a.shape[0] <= DOT_CHUNK:
        return a @ b
    s = 0.0
    for i in range(0, a.shape[0], DOT_CHUNK):
        s += a[i:i + DOT_CHUNK] @ b[i:i + DOT_CHUNK]
    return s


def integrate(u, grid):
    """Quadrature of a real field against omega_{d-1} r^{d-1} dr on [0, r_max]."""
    u = _check_grid(u, grid)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite values in integrand")
    return float(dot(grid.w, u))


def l2_norm(u, grid):
    """Weighted L^2 norm over the interior nodes: the boundary node is left
    out, because the residuals it certifies carry the modified stencil of the
    boundary row there."""
    u = _check_grid(u, grid)
    return float(np.sqrt(np.sum(grid.w[:-1] * np.abs(u[:-1]) ** 2)))


def _face_sq(u, flux):
    """sum flux |u_{i+1} - u_i|^2, each |.|^2 taken as Re^2 + Im^2 (hypot,
    then a square, cost a fifth more) and the sum as a ``dot`` with flux."""
    du = u[1:] - u[:-1]
    sq = du.real ** 2
    sq += du.imag ** 2
    return float(dot(flux, sq))


def kinetic_sq(u, grid, refine=False):
    """Squared kinetic norm ||grad u||_2^2 via the face-flux quadratic form
    (the exact quadratic form of the flux Laplacian, guaranteeing discrete
    integration by parts): sum flux (Re^2 + Im^2) of the face differences,
    the same bits whatever the BLAS thread count.

    refine=True applies one Richardson step in h (the h and 2h sums combine
    to cancel the leading h^2 error), needed when the O(h^2) quadrature bias
    matters (e.g. the Pohozaev identity at 1e-6); requires even n.
    """
    u = _check_grid(u, grid)
    k_h = _face_sq(u, grid.flux)
    if not refine:
        return k_h
    if grid.n % 2:
        raise ValueError("refined kinetic quadrature needs an even cell count")
    coarse = build_grid(grid.d, grid.r_max, grid.n // 2)
    return (4 * k_h - _face_sq(u[::2], coarse.flux)) / 3


def h1_inner(u, v, grid):
    """Homogeneous H^1 inner product <grad u, grad v> (complex)."""
    u = _check_grid(u, grid)
    v = _check_grid(v, grid)
    return complex(np.sum(grid.flux * np.conj(np.diff(u)) * np.diff(v)))


def h1_distance(u, v, grid):
    """||u - v||_{H^1-dot}."""
    u = _check_grid(u, grid)
    v = _check_grid(v, grid)
    return float(np.sqrt(kinetic_sq(u - v, grid)))


def fit_powerlaw_tail(u, grid):
    """Fit |u| ~ c1 r^{-(d-2)} + c2 r^{-d} at the last two nodes.

    Returns (c1, c2).  Used to estimate the mass of W-like fields beyond the
    truncation radius when high-accuracy norms are requested.
    """
    u = _check_grid(u, grid)
    d = grid.d
    r1, r2 = grid.r[-2], grid.r[-1]
    A = np.array([[r1 ** -(d - 2), r1 ** -d],
                  [r2 ** -(d - 2), r2 ** -d]])
    b = np.array([abs(u[-2]), abs(u[-1])])
    return tuple(np.linalg.solve(A, b))


def tail_kinetic_sq(c1, c2, grid):
    """Exterior contribution to ||grad u||^2 for the fitted power-law tail,
    omega int_R^inf ((d-2) c1 s^{1-d} + d c2 s^{-1-d})^2 s^{d-1} ds in
    closed form: each of its three terms is a power of s."""
    d, R = grid.d, grid.r_max
    return grid.omega * ((d - 2) * c1 ** 2 * R ** (2 - d)
                         + 2 * (d - 2) * c1 * c2 * R ** -d
                         + d ** 2 * c2 ** 2 * R ** (-d - 2) / (d + 2))


def tail_lp(c1, c2, p, grid):
    """Exterior contribution to ||u||_p^p for the fitted power-law tail."""
    d, om, R = grid.d, grid.omega, grid.r_max

    def dens(s):
        return abs(c1 * s ** -(d - 2) + c2 * s ** -d) ** p * s ** (d - 1)

    from scipy.integrate import quad
    val, _ = quad(dens, R, np.inf)
    return om * val


def weighted_sup_norm(u, j, grid):
    """sup_r |<r>^j u| over the grid nodes."""
    u = _check_grid(u, grid)
    jap = np.sqrt(1.0 + grid.r ** 2)
    return float(np.max(np.abs(jap ** j * u)))


# ---------------------------------------------------------------------------
# field snapshot files: CSV with columns r, re, im; header carries d, r_max, n

def save_field(path, u, grid):
    u = _check_grid(u, grid)
    with open(path, "w") as f:
        f.write("# d=%d r_max=%.17g n=%d\n" % (grid.d, grid.r_max, grid.n))
        f.write("r,re,im\n")
        for ri, ui in zip(grid.r, np.asarray(u, dtype=complex)):
            f.write("%.17g,%.17g,%.17g\n" % (ri, ui.real, ui.imag))


def load_field(path):
    """Read a field snapshot; returns (values, grid)."""
    with open(path) as f:
        header = f.readline()
    if not header.startswith("#"):
        raise ValueError("missing field header in %s" % (path,))
    meta = dict(tok.split("=") for tok in header[1:].split())
    grid = build_grid(int(meta["d"]), float(meta["r_max"]), int(meta["n"]))
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    if data.shape[0] != grid.nnodes:
        raise ValueError("row count does not match header grid in %s" % (path,))
    return data[:, 1] + 1j * data[:, 2], grid


def dumps(obj):
    """obj as indented, key-sorted JSON text; numpy scalars (a numpy.bool_
    comparison result, say) become the Python values they hold."""
    def _default(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError("cannot serialize %r" % (type(o),))

    return json.dumps(obj, indent=2, sort_keys=True, default=_default)


def save_json(path, obj):
    """Write dumps(obj) and a newline.  The text goes to a temporary file in
    the same directory, which then replaces path, so a dump that fails leaves
    any earlier file at path whole and no temporary file behind."""
    text = dumps(obj) + "\n"
    tmp = "%s.%d.tmp" % (path, os.getpid())
    f = open(tmp, "w")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_json(path):
    with open(path) as f:
        return json.load(f)
