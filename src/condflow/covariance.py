"""Anisotropic squared-exponential covariance kernel over a grid's cell
centers, factored once.

The kernel uses per-coordinate differences with separate correlation
lengths:

    R(x1, x2) = sigma2 * exp(-(dx)^2 / (2 lx^2) - (dy)^2 / (2 ly^2))

It factors into an x and a y part, so with cells row-major, j outer, the
covariance over the cell centers is sigma2 * (Ry kron Rx), Rx and Ry the
unit-variance 1-D kernels on the nx cell-center abscissae and the ny
ordinates. :func:`assemble_covariance` returns the spectra of hx*Rx and
hy*Ry, each axis weighted by its Nystrom quadrature weight; no N x N
matrix is formed. The KLE and kriging both read these spectra, and
nothing else factors the covariance. The pointwise kernel and the dense
matrix live in the tests' oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

_MOD = "covariance"


@dataclass(frozen=True)
class KernelParams:
    """Marginal variance and correlation lengths of the kernel."""

    sigma2: float
    lx: float
    ly: float

    def __post_init__(self):
        # the kernel divides by the squared lengths, squared as floats
        try:
            sigma2, lx, ly = map(float, (self.sigma2, self.lx, self.ly))
        except OverflowError:  # an int too large for a float
            sigma2 = lx = ly = np.inf
        if not all(0 < v < np.inf for v in (sigma2, lx, ly, lx * lx, ly * ly)):
            raise ArgumentError(
                "kernel parameters and squared lengths must be positive and "
                f"finite (sigma2={self.sigma2}, lx={self.lx}, ly={self.ly})",
                module=_MOD,
            )


@dataclass(frozen=True)
class KroneckerCovariance:
    """sigma2 * (Ry kron Rx) over a grid's cell centers, as the descending
    spectra of its weighted 1-D factors: hx*Rx = ux diag(nu) ux^T and
    hy*Ry = uy diag(mu) uy^T, with orthonormal eigenvector columns."""

    sigma2: float
    nu: np.ndarray
    ux: np.ndarray
    mu: np.ndarray
    uy: np.ndarray


def _kernel_1d(n, h, length):
    """Unit-variance 1-D kernel on the n cell centers (k + 1/2) h. It is
    symmetric exactly: (a - b)^2 and (b - a)^2 are equal in floating
    point."""
    t = (np.arange(n) + 0.5) * h
    d = t[:, None] - t[None, :]
    return np.exp(-(d**2) / (2.0 * length**2))


def _axis_spectrum(weighted):
    """Eigenvalues, descending, and orthonormal eigenvectors of a
    weighted 1-D kernel matrix."""
    evals, evecs = np.linalg.eigh(weighted)
    return evals[::-1], evecs[:, ::-1]


def assemble_covariance(grid, params):
    """The covariance over the grid's cell centers, factored by one
    eigendecomposition per axis; see :class:`KroneckerCovariance`."""
    nu, ux = _axis_spectrum(grid.hx * _kernel_1d(grid.nx, grid.hx, params.lx))
    mu, uy = _axis_spectrum(grid.hy * _kernel_1d(grid.ny, grid.hy, params.ly))
    return KroneckerCovariance(params.sigma2, nu, ux, mu, uy)
