"""Dense reference implementations the tests check condflow against.

condflow never evaluates the kernel pointwise: it factors the separable
kernel into two 1-D problems, whose factors the KLE and kriging read.
The pointwise kernel, the cell centers, the dense matrix over them and
its eigendecomposition, the energy fraction of a spectrum, and the
direct forms of the within- and between-chain covariances live here for
the tests alone.
"""

import numpy as np

from condflow.diagnostics import (
    _as_chain_matrix,
    _between,
    _shifted_sums,
    _within,
)
from condflow.errors import ArgumentError
from condflow.kle import _fix_signs


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


def cell_centers(grid):
    """(n_cells, 2) array of cell-center coordinates, flat order."""
    xs = (np.arange(grid.nx) + 0.5) * grid.hx
    ys = (np.arange(grid.ny) + 0.5) * grid.hy
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


def dense_covariance(grid, params):
    """The N x N kernel matrix over the grid's cell centers."""
    centers = cell_centers(grid)
    return kernel_matrix(centers, centers, params)


def dense_spectrum(grid, params):
    """All N eigenvalues (descending) and quadrature-normalized
    eigenfunctions of the weighted dense covariance (hx*hy) * R, under
    the sign rule of :func:`condflow.kle.solve_kle`."""
    w = grid.hx * grid.hy
    evals, evecs = np.linalg.eigh(w * dense_covariance(grid, params))
    return evals[::-1], _fix_signs(evecs[:, ::-1]) / np.sqrt(w)


def energy_fraction(lambdas, n):
    """Fraction of total spectral mass carried by the first n eigenvalues.

    The infinite sum in the continuous definition is taken as the full
    discrete spectrum.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ArgumentError("empty spectrum", module="kle")
    return float(np.sum(lambdas[:n]) / np.sum(lambdas))


def _chain_matrix(chains):
    """condflow's chain matrix, of at least 2 draws per chain."""
    arr = _as_chain_matrix(chains)
    if arr.shape[1] < 2:
        raise ArgumentError(f"need at least 2 draws, got l={arr.shape[1]}",
                            module="diagnostics")
    return arr


def within_chain_cov(chains):
    """Average per-chain sample covariance W (denominator l-1)."""
    arr = _chain_matrix(chains)
    s1, s2 = _shifted_sums(arr, arr[:, :1])
    return _within(s1, s2, arr.shape[1])


def between_chain_cov(chains):
    """Between-chain covariance B of the chain means."""
    arr = _chain_matrix(chains)
    first = arr[:, :1]
    return _between(first, (arr - first).sum(axis=1), arr.shape[1])
