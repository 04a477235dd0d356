"""Anisotropic squared-exponential covariance kernel and the dense
covariance matrix collocated at grid cell centers.

The kernel uses per-coordinate differences with separate correlation
lengths:

    R(x1, x2) = sigma2 * exp(-(dx)^2 / (2 lx^2) - (dy)^2 / (2 ly^2))

Quadrature weights are NOT applied here; the KLE module multiplies by
hx*hy when it discretizes the eigenproblem.
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
        if not all(0 < v < np.inf for v in (self.sigma2, self.lx, self.ly)):
            raise ArgumentError(
                "kernel parameters must be positive and finite "
                f"(sigma2={self.sigma2}, lx={self.lx}, ly={self.ly})",
                module=_MOD,
            )


def kernel(x1, x2, params):
    """Evaluate the covariance kernel at a pair of points."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    dx = x1[..., 0] - x2[..., 0]
    dy = x1[..., 1] - x2[..., 1]
    return params.sigma2 * np.exp(
        -(dx**2) / (2.0 * params.lx**2) - (dy**2) / (2.0 * params.ly**2)
    )


def kernel_matrix(points_a, points_b, params):
    """Kernel evaluated on all pairs of two point sets; shape (na, nb)."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    return kernel(a[:, None, :], b[None, :, :], params)


def assemble_covariance(grid, params):
    """Dense N x N covariance matrix over the grid's cell centers.

    The result is symmetric exactly (not merely to rounding): the kernel
    depends on the differences only through their squares, and
    (a - b)^2 and (b - a)^2 are equal in floating point.
    """
    centers = grid.cell_centers()
    return kernel_matrix(centers, centers, params)
