"""Closed-form ground state W, its symmetry family, and conserved functionals.

W(r) = (1 + r^2/(d(d-2)))^{-(d-2)/2} solves the static equation
Delta W + W^{p_c} = 0 with p_c = (d+2)/(d-2), is the extremal of the
critical Sobolev embedding, and generates the two-parameter symmetry family
W_{[theta,mu]} = e^{i theta} mu^{-(d-2)/2} W(r/mu).

The truncated-domain quadrature misses the slowly decaying r^{-(d-2)} tail
of W-like fields, which matters for the tightest identities (Pohozaev, sharp
Sobolev constant).  The kinetic norm, the potential term, the energy and the
Sobolev quotient therefore always add the exterior of a power-law tail fitted
to the last two nodes, and the kinetic norm is Richardson-refined in h on
grids with an even n.  The plain truncated kinetic quadrature, which the
evolver and the classifier read, is discretization.kinetic_sq.

Background(grid) holds W (its grid's one sample_w call) and what the chain
builds from it; every later layer reads them off it instead of rebuilding.
"""

import numpy as np

from . import discretization as dz


def critical_exponent(d):
    """Energy-critical exponent p_c = (d+2)/(d-2)."""
    if d < 3:
        raise ValueError("dimension must be >= 3, got %r" % (d,))
    return (d + 2) / (d - 2)


def eval_w(d, r):
    """Ground state W(r); strictly decreasing, W(0) = 1, tail ~ r^{-(d-2)}."""
    if d < 3:
        raise ValueError("dimension must be >= 3, got %r" % (d,))
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("radius must be finite")
    out = scaled_w(d, r.reshape(-1) ** 2 / (d * (d - 2)), 1.0).reshape(r.shape)
    return out if out.ndim else float(out)


def scaled_w(d, q, mu):
    """mu^{-(d-2)/2} W(r/mu) from an array q = r^2/(d(d-2)), unchecked: the
    one place the closed form lives, written as mu^k / (mu^2 + q)^k with
    k = (d-2)/2.

    (mu^2 + q)^k is formed by ``_power`` from products and at most one square
    root; its reciprocal stays within 5 ULP of libm's (mu^2 + q) ** -k over
    mu in [0.01, 100] on the reference grid (tested for d = 3..12, measured
    2 ULP at d = 6).  Callers that sweep mu on a fixed grid pass grid.q.
    """
    k = (d - 2) / 2
    w = _power(mu * mu + q, k)
    return np.divide(mu ** k, w, out=w)


def _power(x, p):
    """x ** p for an array x >= 0 and p > 0 (x itself when p = 1): by
    repeated squaring and at most one np.sqrt when 2p is an integer, by
    ``**`` otherwise.  On 6001 nodes 1 / (x * x) takes 10.5 us against
    26 us for libm's x ** -2.0 (2 vCPU)."""
    if not (2 * p).is_integer():
        return x ** p
    k, odd = divmod(int(2 * p), 2)
    y = np.sqrt(x) if odd else None
    while k:
        if k & 1:
            y = x if y is None else y * x
        k >>= 1
        if k:
            x = x * x
    return y


def eval_w_derivative(d, r):
    """Radial derivative dW/dr in closed form."""
    if d < 3:
        raise ValueError("dimension must be >= 3, got %r" % (d,))
    r = np.asarray(r, dtype=float)
    base = 1.0 + r ** 2 / (d * (d - 2))
    out = -(r / d) * base ** (-d / 2)
    return out if out.ndim else float(out)


def scaling_generator(d, r):
    """Generator of the scaling symmetry, Lambda W = ((d-2)/2) W + r dW/dr.

    Lies in the kernel of the linearized operator block L_plus.
    """
    return (d - 2) / 2 * eval_w(d, r) + np.asarray(r) * eval_w_derivative(d, r)


def sample_w(grid):
    """W sampled on a RadialGrid."""
    return scaled_w(grid.d, grid.q, 1.0)


class Background:
    """W on one grid with what the chain builds from it: grid, W, p_c,
    pot = W^{p_c-1} and lapl, the tail-closure Laplacian."""

    def __init__(self, grid):
        self.grid = grid
        self.W = sample_w(grid)
        self.p_c = critical_exponent(grid.d)
        self.pot = self.W ** (self.p_c - 1)
        self.lapl = dz.DiscreteLaplacian(grid)


def kinetic_norm(u, grid):
    """||grad u||_2 by the flux quadratic form, tail-corrected (exterior
    power-law fit) and, when grid.n is even, Richardson-refined in h."""
    k2 = dz.kinetic_sq(u, grid, refine=grid.n % 2 == 0)
    k2 += dz.tail_kinetic_sq(*dz.fit_powerlaw_tail(u, grid), grid)
    return float(np.sqrt(k2))


def potential_term(u, grid):
    """||u||_{p_c+1}^{p_c+1} = ||u||_{2d/(d-2)}^{2d/(d-2)}, tail-corrected."""
    pc = critical_exponent(grid.d)
    p = dz.integrate(np.abs(np.asarray(u)) ** (pc + 1), grid)
    return p + dz.tail_lp(*dz.fit_powerlaw_tail(u, grid), pc + 1, grid)


def energy(u, grid):
    """Conserved energy E(u) = 1/2 ||grad u||^2 - (d-2)/(2d) ||u||_{2d/(d-2)}^{2d/(d-2)}."""
    d, k = grid.d, kinetic_norm(u, grid)
    e = 0.5 * k ** 2 - (d - 2) / (2 * d) * potential_term(u, grid)
    if not np.isfinite(e):
        raise ValueError("non-finite energy (blowup-range field?)")
    return e


def sobolev_quotient(u, grid):
    """Sobolev quotient ||u||_{2d/(d-2)} / ||grad u||_2, maximized by the W family."""
    u = np.asarray(u)
    if not np.any(u):
        raise ValueError("zero field has no Sobolev quotient")
    pc = critical_exponent(grid.d)
    return potential_term(u, grid) ** (1 / (pc + 1)) / kinetic_norm(u, grid)


def w_family(theta, mu, grid):
    """W_{[theta,mu]} evaluated exactly on the grid (no interpolation)."""
    if mu <= 0:
        raise ValueError("scale mu must be positive, got %r" % (mu,))
    return np.exp(1j * theta) * scaled_w(grid.d, grid.q, mu)

