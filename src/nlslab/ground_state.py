"""Closed-form ground state W, its symmetry family, and conserved functionals.

W(r) = (1 + r^2/(d(d-2)))^{-(d-2)/2} solves the static equation
Delta W + W^{p_c} = 0 with p_c = (d+2)/(d-2), is the extremal of the
critical Sobolev embedding, and generates the two-parameter symmetry family
W_{[theta,mu]} = e^{i theta} mu^{-(d-2)/2} W(r/mu).

Energy and kinetic norms accept an optional power-law tail correction: the
truncated-domain quadrature misses the slowly decaying r^{-(d-2)} tail of
W-like fields, which matters for the tightest identities (Pohozaev, sharp
Sobolev constant).  tail="powerlaw" fits the exterior analytically from the
last two nodes; tail="none" is the plain truncated quadrature.

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
    out = scaled_w(d, r ** 2 / (d * (d - 2)), 1.0)
    return out if out.ndim else float(out)


def scaled_w(d, q, mu):
    """mu^{-(d-2)/2} W(r/mu) from q = r^2/(d(d-2)), unchecked: the one place
    the closed form lives, written as mu^{(d-2)/2} (mu^2 + q)^{-(d-2)/2}.

    At mu = 1 it is (1 + q)^{-(d-2)/2} to the last bit.  Callers that sweep
    mu on a fixed grid compute q once.
    """
    k = (d - 2) / 2
    return mu ** k * (mu * mu + q) ** -k


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
    return eval_w(grid.d, grid.r)


class Background:
    """W on one grid with what the chain builds from it: grid, W, p_c,
    pot = W^{p_c-1} and lapl, the tail-closure Laplacian."""

    def __init__(self, grid):
        self.grid = grid
        self.W = sample_w(grid)
        self.p_c = critical_exponent(grid.d)
        self.pot = self.W ** (self.p_c - 1)
        self.lapl = dz.DiscreteLaplacian(grid)


def kinetic_norm(u, grid, tail="none", refine=False):
    """||grad u||_2 by the flux quadratic form, optionally tail-corrected
    (exterior power-law fit) and Richardson-refined in h."""
    k2 = dz.kinetic_sq(u, grid, refine=refine)
    if tail == "powerlaw":
        c1, c2 = dz.fit_powerlaw_tail(u, grid)
        k2 += dz.tail_kinetic_sq(c1, c2, grid)
    elif tail != "none":
        raise ValueError("unknown tail option %r" % (tail,))
    return float(np.sqrt(k2))


def potential_term(u, grid, tail="none"):
    """||u||_{p_c+1}^{p_c+1} = ||u||_{2d/(d-2)}^{2d/(d-2)}, optionally tail-corrected."""
    pc = critical_exponent(grid.d)
    p = dz.integrate(np.abs(np.asarray(u)) ** (pc + 1), grid)
    if tail == "powerlaw":
        c1, c2 = dz.fit_powerlaw_tail(u, grid)
        p += dz.tail_lp(c1, c2, pc + 1, grid)
    elif tail != "none":
        raise ValueError("unknown tail option %r" % (tail,))
    return p


def energy(u, grid, tail="none", refine=False):
    """Conserved energy E(u) = 1/2 ||grad u||^2 - (d-2)/(2d) ||u||_{2d/(d-2)}^{2d/(d-2)}."""
    d = grid.d
    k = kinetic_norm(u, grid, tail=tail, refine=refine)
    p = potential_term(u, grid, tail=tail)
    e = 0.5 * k ** 2 - (d - 2) / (2 * d) * p
    if not np.isfinite(e):
        raise ValueError("non-finite energy (blowup-range field?)")
    return e


def sobolev_quotient(u, grid, tail="powerlaw", refine=True):
    """Sobolev quotient ||u||_{2d/(d-2)} / ||grad u||_2, maximized by the W family."""
    u = np.asarray(u)
    if not np.any(u):
        raise ValueError("zero field has no Sobolev quotient")
    pc = critical_exponent(grid.d)
    k = kinetic_norm(u, grid, tail=tail, refine=refine and grid.n % 2 == 0)
    p = potential_term(u, grid, tail=tail)
    return p ** (1 / (pc + 1)) / k


def w_family(theta, mu, grid):
    """W_{[theta,mu]} evaluated exactly on the grid (no interpolation)."""
    if mu <= 0:
        raise ValueError("scale mu must be positive, got %r" % (mu,))
    d = grid.d
    return np.exp(1j * theta) * scaled_w(d, grid.r ** 2 / (d * (d - 2)), mu)

