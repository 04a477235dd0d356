"""Conditioning Gaussian field samples on measurements by projecting the
KL coefficient vector onto the nullspace of a data matrix.

The data matrix A (m x n) evaluates the scaled KL basis at the
measurement cells: A_ij = sqrt(lambda_j) * phi_j(cell_i). Any theta with
A theta = 0 perturbs the kriged surface without moving it at the
measurement cells, so the synthesized field honors the data exactly.
An arbitrary i.i.d. normal theta is replaced by its orthogonal
projection theta_hat = Q Q^T theta, the closest nullspace vector in the
least-squares sense; Q holds an orthonormal nullspace basis obtained
from the SVD of A, and is what `nullspace_basis` returns. A's rank is
n minus Q's column count.

The projection matrix P = Q Q^T is never materialized; Q is applied and
then Q^T, which is the same operator.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .kle import _fix_signs, synthesize_unconditioned
from .kriging import snap_to_cells

_MOD = "conditioning"

#: relative singular-value threshold for numerical rank detection
RANK_RTOL = 1e-10


def build_data_matrix(basis, ms):
    """The (m, n) data matrix A_ij = sqrt(lambda_j) phi_j(x_hat_i), the
    measurements snapped to cells of the basis's grid. Conditioning needs
    fewer measurements m than KL modes n."""
    if ms.m >= basis.n:
        raise ArgumentError(f"{ms.m} measurements with only {basis.n} KL "
                            "modes leave no nontrivial nullspace; retain "
                            "more modes", module=_MOD)
    return (basis.phi[snap_to_cells(ms, basis.grid)]
            * basis.sqrt_lambdas[None, :])


def nullspace_basis(A):
    """Orthonormal basis Q (n, n - r) of N(A), for a data matrix A (m, n)
    of rank r, from the right singular vectors.

    The rank r is the count of singular values above RANK_RTOL times the
    largest; signs follow the KL basis's rule (the first entry within a
    relative 1e-8 of the column's largest magnitude is positive) for
    reproducibility. An A with no rows, or all zeros, yields the identity
    basis.
    """
    _, svals, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(svals > RANK_RTOL * svals.max(initial=0.0)))
    return _fix_signs(Vt[rank:].T)


def project(theta, Q):
    """Orthogonal projection theta_hat = Q (Q^T theta) onto N(A), of one
    theta or, row by row and bitwise as one at a time, of a stack."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != Q.shape[:1]:
        raise ArgumentError(
            f"theta has shape {theta.shape}, nullspace basis Q has "
            f"{Q.shape[0]} rows", module=_MOD,
        )
    return (Q @ (Q.T @ theta[..., None]))[..., 0]


def synthesize_conditioned(basis, mean, theta, Q):
    """A prior's mean surface plus the KL synthesis of the projected
    theta, or the stack of these fields for a stack of thetas.

    With the kriged surface and the nullspace basis Q of the data
    matrix, the result matches every measured value exactly (to
    rounding) at the measurement cells, for any input theta.
    """
    if mean.grid != basis.grid:
        raise ArgumentError("mean surface grid differs from basis grid",
                            module=_MOD)
    return synthesize_unconditioned(basis, project(theta, Q),
                                    mean=mean.values)
