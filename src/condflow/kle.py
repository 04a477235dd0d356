"""Discrete Karhunen-Loeve eigenproblem, its truncation, and synthesis
of unconditioned Gaussian log-permeability fields. :func:`solve_kle`
decides the truncation, a fixed mode count or an energy threshold, from
the one factorization of the covariance it makes.

The continuous eigenproblem is discretized by Nystrom collocation with
uniform quadrature weights hx*hy: the symmetric matrix (hx*hy) * R is
eigendecomposed, eigenvalues sorted descending, and eigenvectors scaled
so each eigenfunction has unit quadrature norm

    hx * hy * sum_cells phi_i(x)^2 = 1.

Signs follow a fixed convention (the entry of largest magnitude is made
positive) so repeated runs produce bit-identical bases.
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

    def eigenfield(self, i):
        """The i-th eigenfunction as a ScalarField."""
        return ScalarField(self.grid, self.phi[:, i].copy())


def _fix_signs(vecs):
    """Flip column signs so the largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def full_spectrum(cov, grid):
    """All N eigenvalues (descending) and quadrature-normalized
    eigenfunctions of the weighted covariance matrix."""
    w = grid.hx * grid.hy
    evals, evecs = np.linalg.eigh(w * cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    # unit l2 eigenvectors -> unit quadrature norm eigenfunctions
    phi = _fix_signs(evecs) / np.sqrt(w)
    return evals, phi


def solve_kle(cov, grid, n, energy_threshold=None):
    """Solve the discrete KL eigenproblem and retain the n leading modes,
    or with ``energy_threshold`` the fewest whose energy fraction reaches
    it. One factorization gives both the count and the basis."""
    N = grid.n_cells
    if energy_threshold is None and not 1 <= n <= N:
        raise ArgumentError(f"mode count n={n} must be in [1, {N}]",
                            module=_MOD)
    evals, phi = full_spectrum(cov, grid)
    if energy_threshold is not None:
        frac = np.cumsum(evals) / np.sum(evals)
        n = int(np.searchsorted(frac, energy_threshold) + 1)
    if n > N or evals[n - 1] <= 1e-12 * evals[0]:
        raise NumericalError(
            f"eigenvalue {n} is <= 1e-12 of the leading one; reduce the "
            "number of retained modes" if energy_threshold is None else
            f"kle.energy_threshold = {energy_threshold} is reached by no "
            "mode count above the 1e-12 eigenvalue floor; lower it",
            module=_MOD, code="truncation")
    energy = energy_fraction(evals, n)
    return KLEBasis(grid, evals[:n].copy(), phi[:, :n].copy(), energy)


def energy_fraction(lambdas, n):
    """Fraction of total spectral mass carried by the first n eigenvalues.

    The infinite sum in the continuous definition is taken as the full
    discrete spectrum.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ArgumentError("empty spectrum", module=_MOD)
    return float(np.sum(lambdas[:n]) / np.sum(lambdas))


def synthesize_unconditioned(basis, theta):
    """Zero-mean field sum_i sqrt(lambda_i) theta_i phi_i as a ScalarField;
    a stack of thetas gives the stack of their fields, each bitwise its
    own call's (the trailing unit axis makes one gemv per theta)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (basis.n,):
        raise ArgumentError(
            f"theta has shape {theta.shape}, basis has {basis.n} modes",
            module=_MOD,
        )
    values = basis.phi @ (basis.sqrt_lambdas * theta)[..., None]
    return ScalarField(basis.grid, values[..., 0])
