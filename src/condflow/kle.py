"""Discrete Karhunen-Loeve eigenproblem, its truncation, and synthesis
of unconditioned Gaussian log-permeability fields.

Nystrom collocation at the cell centers, with the separable kernel of
:mod:`condflow.covariance`, makes the weighted covariance (hx*hy) * R
equal to sigma2 * (hy*Ry) kron (hx*Rx): each axis has its own uniform
quadrature weight. :func:`condflow.covariance.assemble_covariance` has
already eigendecomposed hx*Rx (values nu_b, vectors ux) and hy*Ry (mu_a,
uy), each descending; :func:`solve_kle` truncates these spectra and
factors nothing. Mode (a, b) has eigenvalue sigma2 * mu_a * nu_b and the
value uy[j, a] * ux[i, b] / sqrt(hx*hy) at cell j*nx + i, so that
hx * hy * sum_cells phi^2 = 1. The 1e-12 floor and the energy are read
from these products, the full spectrum; only the retained columns are
formed.

Modes are ranked by a stable descending sort of the products, so equal
eigenvalues keep the order of the flat index a*nx + b. An isotropic
kernel on a square grid ties (a, b) exactly with (b, a); a truncation
that cuts through such a pair keeps the member with the lower a, the
one smoother along y, itself an exact eigenfunction.

Signs: the first entry whose magnitude is within a relative 1e-8 of the
column's largest is made positive. Every mode on a centered uniform
grid is mirror symmetric or antisymmetric, so its largest magnitude is
shared by mirror cells up to rounding, which must not pick the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError
from .grid import Grid2D, ScalarField

_MOD = "kle"


@dataclass(frozen=True)
class KLEBasis:
    """Retained eigenpairs of the weighted covariance matrix.

    lambdas : (n,) eigenvalues, descending, all positive
    phi     : (N, n) eigenfunction values at cell centers, columns
              orthonormal under the hx*hy quadrature inner product
    grid    : the grid the eigenfunctions live on
    energy  : fraction of the full spectrum retained by these n modes
    """

    grid: Grid2D
    lambdas: np.ndarray
    phi: np.ndarray
    energy: float

    @property
    def n(self):
        return self.lambdas.size

    @property
    def sqrt_lambdas(self):
        return np.sqrt(self.lambdas)


def _fix_signs(vecs):
    """Flip column signs so the first entry within a relative 1e-8 of the
    column's largest magnitude is positive."""
    mags = np.abs(vecs)
    idx = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
    return np.where(vecs[idx, np.arange(vecs.shape[1])] < 0.0, -vecs, vecs)


def solve_kle(cov, grid, n):
    """Solve the discrete KL eigenproblem of the Kronecker covariance
    ``cov`` (:func:`condflow.covariance.assemble_covariance`) and retain
    the n leading modes of its 1-D spectra."""
    N = grid.n_cells
    if not 1 <= n <= N:
        raise ArgumentError(f"mode count n={n} must be in [1, {N}]",
                            module=_MOD)
    products = np.outer(cov.mu, cov.nu).ravel()  # flat a*nx + b, each <= 1
    order = np.argsort(-products, kind="stable")
    unit = products[order]  # at sigma2 = 1, where no sum overflows
    frac = np.cumsum(unit) / np.sum(unit)  # the energy of 1, 2, ... modes
    evals = cov.sigma2 * unit
    if evals[n - 1] <= 1e-12 * evals[0]:
        raise NumericalError(
            f"eigenvalue {n} is <= 1e-12 of the leading one; reduce the "
            "number of retained modes", module=_MOD, code="truncation")
    a, b = np.divmod(order[:n], grid.nx)
    phi = (cov.uy[:, None, a] * cov.ux[None, :, b]).reshape(N, n)
    phi = _fix_signs(phi) / np.sqrt(grid.hx * grid.hy)
    return KLEBasis(grid, evals[:n].copy(), phi, float(frac[n - 1]))


def synthesize_unconditioned(basis, theta, mean=None):
    """Zero-mean field sum_i sqrt(lambda_i) theta_i phi_i, plus the cell
    values ``mean`` if given, as one checked ScalarField; a stack of
    thetas gives the stack of their fields, each bitwise its own call's
    (the trailing unit axis makes one gemv per theta)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (basis.n,):
        raise ArgumentError(
            f"theta has shape {theta.shape}, basis has {basis.n} modes",
            module=_MOD,
        )
    values = (basis.phi @ (basis.sqrt_lambdas * theta)[..., None])[..., 0]
    return ScalarField(basis.grid, values if mean is None else mean + values)
