"""Cell-centered finite-volume (TPFA) solver for the Darcy pressure
equation on the unit square, plus flow-based permeability upscaling.

Discretization: two-point flux approximation with harmonic averaging of
the cell permeabilities at interior faces. Dirichlet boundaries (left
and right edges) use the half-cell distance, which makes the scheme
exact for layered permeability and linear pressure. Top and bottom
edges carry Neumann data (default no-flow). There are no sources.

One builder, ``_tpfa``, assembles the SPD operator of a stack of
permeability fields of shape (..., ny, nx) as one block-diagonal system
in upper banded storage: only the main, +1 and +nx diagonals are
nonzero, and no band couples two fields. ``solveh_banded`` solves it in
one call. The pressure solve and ``boundary_fluxes`` build it for one
field.

Upscaling solves, per coarse block, two local TPFA problems with a unit
pressure drop (in x and in y, no-flow on the lateral faces), converts
the resulting through-flux to a directional effective permeability, and
stores the log of the geometric mean of the two directions. All blocks
of one direction form one stacked system and one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import ArgumentError, NumericalError
from .grid import ScalarField

_MOD = "darcy"


@dataclass(frozen=True)
class BoundaryConditions:
    """Dirichlet pressure on the left/right edges, Neumann normal
    velocity (outward positive) on the top/bottom edges."""

    p_left: float = 1.0
    p_right: float = 0.0
    v_top: float = 0.0
    v_bottom: float = 0.0


def _tpfa(k, hx, hy):
    """TPFA operator of fields k of shape (..., ny, nx), Dirichlet edge
    terms included, as one block-diagonal system in upper banded storage
    (u + 1, n), with n cells in all and u = min(nx, n - 1). Also returns
    the Dirichlet edge transmissibilities Tl, Tr (..., ny)."""
    nx = k.shape[-1]
    Tx = 2.0 * hy / (hx * (1.0 / k[..., :, :-1] + 1.0 / k[..., :, 1:]))
    Ty = 2.0 * hx / (hy * (1.0 / k[..., :-1, :] + 1.0 / k[..., 1:, :]))
    Tl = 2.0 * hy * k[..., :, 0] / hx  # half-cell distance to the edge
    Tr = 2.0 * hy * k[..., :, -1] / hx
    ab = np.zeros((nx + 1,) + k.shape)
    # +1 band before +nx band: they share a row when nx = 1, where Tx is empty
    ab[-2, ..., :, 1:] = -Tx
    ab[0, ..., 1:, :] = -Ty
    diag = ab[-1]
    diag[..., :, :-1] += Tx
    diag[..., :, 1:] += Tx
    diag[..., :-1, :] += Ty
    diag[..., 1:, :] += Ty
    diag[..., :, 0] += Tl
    diag[..., :, -1] += Tr
    # an n x n matrix has no diagonal beyond offset n - 1
    return ab.reshape(nx + 1, -1)[max(nx + 1 - k.size, 0):], Tl, Tr


def _matvec(ab, x):
    """Operator times x, over its main, +1 and +u bands."""
    u = len(ab) - 1
    y = ab[-1] * x
    for d in sorted({1, u}) if u else ():  # u = 0: a single cell
        y[:-d] += ab[-1 - d, d:] * x[d:]
        y[d:] += ab[-1 - d, d:] * x[:-d]
    return y


def _solve(ab, rhs):
    """Solve the banded SPD system; a singular one raises NumericalError."""
    try:
        return solveh_banded(ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular pressure system: {exc}",
                             module=_MOD, code="singular") from exc


def solve_pressure(logperm, bc):
    """Solve -div(k grad p) = 0 with k = exp(logperm), cellwise.

    Returns the pressure as a ScalarField on the same grid. The linear
    solve is verified to a relative residual of 1e-10 (NaN fails).
    """
    grid = logperm.grid
    k = np.exp(logperm.as_2d())
    if not np.all(np.isfinite(k)):
        raise ArgumentError("permeability overflowed to non-finite values",
                            module=_MOD)
    ab, Tl, Tr = _tpfa(k, grid.hx, grid.hy)
    rhs = np.zeros(k.shape)
    rhs[:, 0] += Tl * bc.p_left
    rhs[:, -1] += Tr * bc.p_right
    # outward Neumann flux leaves the cell, so it subtracts from the source
    rhs[0, :] -= bc.v_bottom * grid.hx
    rhs[-1, :] -= bc.v_top * grid.hx
    rhs = rhs.ravel()
    p = _solve(ab, rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.linalg.norm(_matvec(ab, p) - rhs) <= 1e-10 * scale:
        raise NumericalError("pressure solve did not reach residual 1e-10",
                             module=_MOD, code="residual")
    return ScalarField(grid, p)


def boundary_fluxes(logperm, pressure, bc):
    """(inflow through the left edge, outflow through the right edge)."""
    grid = logperm.grid
    _, Tl, Tr = _tpfa(np.exp(logperm.as_2d()), grid.hx, grid.hy)
    p = pressure.as_2d()
    q_in = float(np.sum(Tl * (bc.p_left - p[:, 0])))
    q_out = float(np.sum(Tr * (p[:, -1] - bc.p_right)))
    return q_in, q_out


def _keff_x(kb, hx, hy):
    """Directional effective permeability of blocks for flow in x.

    kb is (nblocks, by, bx): unit pressure drop left to right, no-flow
    top and bottom, one banded solve for all blocks.
    """
    by, bx = kb.shape[1:]
    ab, Tl, Tr = _tpfa(kb, hx, hy)
    rhs = np.zeros(kb.shape)
    rhs[:, :, 0] += Tl  # p = 1 on the left face, 0 on the right
    p = _solve(ab, rhs.ravel()).reshape(kb.shape)
    q = np.sum(Tr * p[:, :, -1], axis=1)
    # q = keff * height * dp / width with dp = 1
    return q * (bx * hx) / (by * hy)


def upscale(fine_logperm, fine, coarse):
    """Effective coarse log-permeability from local flow problems.

    The fine grid must tile the coarse grid exactly. Per block, the x
    and y directional effective permeabilities are combined as a
    geometric mean into one isotropic coarse value.
    """
    if fine_logperm.grid != fine:
        raise ArgumentError("field grid differs from fine grid", module=_MOD)
    if fine.nx % coarse.nx or fine.ny % coarse.ny:
        raise ArgumentError(
            f"fine grid {fine.nx}x{fine.ny} is not an integer refinement "
            f"of coarse grid {coarse.nx}x{coarse.ny}",
            module=_MOD,
        )
    bx = fine.nx // coarse.nx
    by = fine.ny // coarse.ny
    k = np.exp(fine_logperm.as_2d())
    blocks = (
        k.reshape(coarse.ny, by, coarse.nx, bx)
        .transpose(0, 2, 1, 3)
        .reshape(-1, by, bx)
    )
    keff_x = _keff_x(blocks, fine.hx, fine.hy)
    keff_y = _keff_x(blocks.transpose(0, 2, 1), fine.hy, fine.hx)
    return ScalarField(coarse, 0.5 * (np.log(keff_x) + np.log(keff_y)))


def observe_pressure(pressure, mask):
    """Pressure values at the masked cells, in ascending cell order."""
    if pressure.grid != mask.grid:
        raise ArgumentError("mask grid differs from pressure grid", module=_MOD)
    return pressure.values[mask.cells].copy()
