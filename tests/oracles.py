"""Dense reference implementations the tests check condflow against.

condflow never forms the N x N covariance: it factors the separable
kernel into two 1-D problems. The dense matrix over the cell centers and
its eigendecomposition, and the direct forms of the within- and
between-chain covariances, live here for the tests alone.
"""

import numpy as np

from condflow.covariance import kernel_matrix
from condflow.diagnostics import (
    _as_chain_matrix,
    _between,
    _shifted_sums,
    _within,
)
from condflow.kle import _fix_signs


def dense_covariance(grid, params):
    """The N x N kernel matrix over the grid's cell centers."""
    centers = grid.cell_centers()
    return kernel_matrix(centers, centers, params)


def dense_spectrum(grid, params):
    """All N eigenvalues (descending) and quadrature-normalized
    eigenfunctions of the weighted dense covariance (hx*hy) * R, under
    the sign rule of :func:`condflow.kle.solve_kle`."""
    w = grid.hx * grid.hy
    evals, evecs = np.linalg.eigh(w * dense_covariance(grid, params))
    return evals[::-1], _fix_signs(evecs[:, ::-1]) / np.sqrt(w)


def within_chain_cov(chains):
    """Average per-chain sample covariance W (denominator l-1)."""
    arr = _as_chain_matrix(chains)
    s1, s2 = _shifted_sums(arr, arr[:, :1])
    return _within(s1, s2, arr.shape[1])


def between_chain_cov(chains):
    """Between-chain covariance B of the chain means."""
    arr = _as_chain_matrix(chains)
    first = arr[:, :1]
    return _between(first, (arr - first).sum(axis=1), arr.shape[1])
