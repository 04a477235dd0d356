"""Cell-centered finite-volume (TPFA) solver for the Darcy pressure
equation on the unit square, plus flow-based permeability upscaling.

Discretization: two-point flux approximation with harmonic averaging of
the cell permeabilities at interior faces. Dirichlet boundaries (left
and right edges) use the half-cell distance, which makes the scheme
exact for layered permeability and linear pressure. Top and bottom
edges carry Neumann data (default no-flow). There are no sources.

One builder, ``_tpfa``, assembles the dense operator for a stack of
permeability fields of shape (..., ny, nx) and returns it with the
left and right edge transmissibilities. The pressure solve calls it
with one field; ``boundary_fluxes`` shares its edge formula.

Upscaling solves, per coarse block, two local TPFA problems with a unit
pressure drop (in x and in y, no-flow on the lateral faces), converts
the resulting through-flux to a directional effective permeability, and
stores the log of the geometric mean of the two directions. The builder
assembles all blocks of one direction at once, and one batched dense
solve solves them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _edge_transmissibilities(k, hx, hy):
    """Left and right Dirichlet edge transmissibilities (half-cell
    distance) of fields k of shape (..., ny, nx)."""
    return 2.0 * hy * k[..., :, 0] / hx, 2.0 * hy * k[..., :, -1] / hx


def _tpfa(k, hx, hy):
    """Dense TPFA operators of permeability fields k of shape (..., ny, nx).

    Returns the operators (..., N, N) with N = nx * ny, Dirichlet edge
    terms included, and the edge transmissibilities Tl, Tr (..., ny).
    """
    ny, nx = k.shape[-2:]
    N = nx * ny
    idx = np.arange(N).reshape(ny, nx)
    A = np.zeros(k.shape[:-2] + (N, N))
    Tx = 2.0 * hy / (hx * (1.0 / k[..., :, :-1] + 1.0 / k[..., :, 1:]))
    Ty = 2.0 * hx / (hy * (1.0 / k[..., :-1, :] + 1.0 / k[..., 1:, :]))
    for (T, a, b) in (
        (Tx, idx[:, :-1].ravel(), idx[:, 1:].ravel()),
        (Ty, idx[:-1, :].ravel(), idx[1:, :].ravel()),
    ):
        T = T.reshape(k.shape[:-2] + (-1,))
        A[..., a, a] += T
        A[..., b, b] += T
        A[..., a, b] -= T
        A[..., b, a] -= T

    Tl, Tr = _edge_transmissibilities(k, hx, hy)
    A[..., idx[:, 0], idx[:, 0]] += Tl
    A[..., idx[:, -1], idx[:, -1]] += Tr
    return A, Tl, Tr


def solve_pressure(logperm, bc):
    """Solve -div(k grad p) = 0 with k = exp(logperm), cellwise.

    Returns the pressure as a ScalarField on the same grid. The linear
    solve is verified to a relative residual of 1e-10.
    """
    grid = logperm.grid
    k = np.exp(logperm.as_2d())
    if not np.all(np.isfinite(k)):
        raise ArgumentError("permeability overflowed to non-finite values",
                            module=_MOD)
    A, Tl, Tr = _tpfa(k, grid.hx, grid.hy)
    rhs = np.zeros(k.shape)
    rhs[:, 0] += Tl * bc.p_left
    rhs[:, -1] += Tr * bc.p_right
    # outward Neumann flux leaves the cell, so it subtracts from the source
    rhs[0, :] -= bc.v_bottom * grid.hx
    rhs[-1, :] -= bc.v_top * grid.hx
    rhs = rhs.ravel()
    try:
        p = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular pressure system: {exc}",
                             module=_MOD, code="singular") from exc
    scale = max(np.linalg.norm(rhs), 1e-300)
    if np.linalg.norm(A @ p - rhs) > 1e-10 * scale:
        raise NumericalError("pressure solve did not reach residual 1e-10",
                             module=_MOD, code="residual")
    return ScalarField(grid, p)


def boundary_fluxes(logperm, pressure, bc):
    """(inflow through the left edge, outflow through the right edge)."""
    grid = logperm.grid
    Tl, Tr = _edge_transmissibilities(np.exp(logperm.as_2d()),
                                      grid.hx, grid.hy)
    p = pressure.as_2d()
    q_in = float(np.sum(Tl * (bc.p_left - p[:, 0])))
    q_out = float(np.sum(Tr * (p[:, -1] - bc.p_right)))
    return q_in, q_out


def _keff_x(kb, hx, hy):
    """Directional effective permeability of blocks for flow in x.

    kb is (nblocks, by, bx): unit pressure drop left to right, no-flow
    top and bottom, one dense solve for all blocks.
    """
    nb, by, bx = kb.shape
    M, Tl, Tr = _tpfa(kb, hx, hy)
    rhs = np.zeros(kb.shape)
    rhs[:, :, 0] += Tl  # p = 1 on the left face, 0 on the right
    p = np.linalg.solve(M, rhs.reshape(nb, -1, 1)).reshape(kb.shape)
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
