"""Discrete calculus on the periodic box.

Derivatives act in spectral space (multiplication by i*k); nonlinear
products are formed pointwise in physical space and dealiased with the
2/3 rule.  The spectral helpers take spectra on TorusGrid's kept block
and use its multiplier tables.  L^p norms use the uniform quadrature
weight prod(L_i/N_i); Sobolev seminorms use Plancherel sums over the
spectrum.
"""

import numpy as np


def grad_hat(grid, fhat, out=None):
    """Spectral gradient of one scalar spectrum: shape (3,) + fhat.shape,
    written into out when given."""
    ik = grid.ik
    if out is None:
        out = np.empty((3,) + fhat.shape, dtype=complex)
    for i in range(3):
        np.multiply(fhat, ik[i], out=out[i])
    return out


def div_hat(grid, uhat):
    """Spectral divergence of a stacked vector spectrum."""
    ik = grid.ik
    return ik[0] * uhat[0] + ik[1] * uhat[1] + ik[2] * uhat[2]


def leray_hat(grid, uhat):
    """Project a stacked vector spectrum onto divergence-free, zero-mean
    fields (in place) and return it."""
    k = grid.k
    kdotu = k[0] * uhat[0] + k[1] * uhat[1] + k[2] * uhat[2]
    kdotu *= grid.k_sq_inv
    for i in range(3):
        uhat[i] -= k[i] * kdotu
        uhat[i][0, 0, 0] = 0.0
    return uhat


def sym_grad_hat(grid, vhat, out=None):
    """Entries (11, 22, 12, 13, 23) of D = (grad v + grad v^T)/2 in
    spectral space, written into out when given.  They are all of D for
    a divergence-free v, whose D33 is -(D11 + D22)."""
    (k1, k2, k3), ik = grid.k, grid.ik
    if out is None:
        out = np.empty((5,) + vhat.shape[1:], dtype=complex)
    # off-diagonals 0.5i (ka va + kb vb) first: row 0 is their scratch
    for row, ka, a, kb, b in ((2, k2, 0, k1, 1), (3, k3, 0, k1, 2),
                              (4, k3, 1, k2, 2)):
        np.multiply(ka, vhat[a], out=out[row])
        np.multiply(kb, vhat[b], out=out[0])
        np.add(out[row], out[0], out=out[row])
        np.multiply(0.5j, out[row], out=out[row])
    for i in range(2):
        np.multiply(ik[i], vhat[i], out=out[i])
    return out


def is_uniform_state_hat(y_hat):
    """True when the stacked (v, omega, b) spectrum y_hat is a uniform state
    at rest: v is zero, and omega and b have no mode away from k = 0."""
    return not np.any(y_hat[:3]) and (np.count_nonzero(y_hat[3:])
                                      == np.count_nonzero(y_hat[3:, 0, 0, 0]))


def l2sq_hat(grid, fhat, order=0):
    """Squared L2 norm of nabla^order f from its spectrum (Plancherel)."""
    return l2sq_hat_rows(grid, fhat[None], (order,))[order][0]


def l2sq_hat_rows(grid, fhat, orders):
    """{order: [l2sq_hat(grid, row, order) for row in fhat]} for a stacked
    spectrum, with |fhat|^2 formed once."""
    power = np.abs(fhat) ** 2
    rows = {}
    for o in orders:
        k_pow = grid.k_sq_power(o) if o else None
        rows[o] = [float(np.sum((row if k_pow is None else row * k_pow)
                                * grid.weight))
                   * grid.volume / grid.npoints**2 for row in power]
    return rows


def lp_norm(grid, values, p):
    """Quadrature L^p norm of a physical array (any leading axes are
    treated as extra components summed into the same integral); p >= 1."""
    if p == np.inf:
        return float(np.max(np.abs(values)))
    if not p >= 1:
        raise ValueError(f"unsupported exponent p={p}")
    return float(np.sum(np.abs(values) ** p) * grid.cell_volume) ** (1.0 / p)

