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
nonzero, and no band couples two fields. One solver, ``_solve``, solves
it with one call of LAPACK's ``dpbsv``, for a pressure solve and for
the generic upscaling cell problems alike. ``solve_pressure`` and
``upscale`` take one field or a stack of fields (see ``ScalarField``)
and solve the whole stack at once. Every check holds for each field on
its own, and each field's result is bitwise that of its own call (the
tests check this).
``boundary_fluxes`` takes one field.

Upscaling solves, per coarse block, two local TPFA problems with a unit
pressure drop (in x and in y, no-flow on the lateral faces), converts
the resulting through-flux to a directional effective permeability, and
stores the log of the geometric mean of the two directions. The local
problems of a call form one stack (one per direction unless blocks and
cells are square). 2x2 blocks, the shape every shipped config uses, are
solved in closed form (``_keff_x_2x2``), each step one array operation
over all blocks; any other shape is assembled by ``_tpfa`` and solved
by ``_solve``, all blocks in one call. A block whose effective
permeability is not > 0 is singular.
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


def _check_diagonal(diag):
    """Every transmissibility is >= 0 and sits on the diagonal, so a
    diagonal entry that is not finite is one that overflowed."""
    if not np.isfinite(diag).all():
        raise NumericalError(
            "transmissibility overflowed: permeability too large for the "
            "grid spacing", module=_MOD, code="overflow")


@np.errstate(divide="ignore", over="ignore")
def _tpfa(k, hx, hy):
    """TPFA operator of fields k of shape (..., ny, nx), Dirichlet edge
    terms included, as one block-diagonal system in upper banded storage
    (u + 1, n), with n cells in all and u = min(nx, n - 1). Also returns
    the Dirichlet edge transmissibilities Tl, Tr (..., ny).

    A k that underflowed to 0 gives zero transmissibilities, which the
    solver reports as singular; one too large overflows a diagonal entry,
    which is checked here. Neither prints a numpy warning."""
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
    _check_diagonal(diag)
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
    """Solve the banded SPD system; a singular one raises NumericalError.
    scipy is imported here, at the first solve, so that a command that
    solves no pressure never loads it."""
    from scipy.linalg.lapack import dpbsv

    _, x, info = dpbsv(ab, rhs)
    if info > 0:
        raise NumericalError(f"singular TPFA system: leading minor "
                             f"{info} not positive definite", module=_MOD,
                             code="singular")
    if info < 0:
        raise ArgumentError(f"dpbsv rejected its argument {-info}",
                            module=_MOD)
    return x


def _permeability(logperm):
    """k = exp(logperm) of a field or a stack, shaped (..., ny, nx)."""
    with np.errstate(over="ignore"):
        k = np.exp(logperm.as_2d())
    if not np.isfinite(k).all():
        raise ArgumentError("permeability overflowed to non-finite values",
                            module=_MOD)
    return k


def solve_pressure(logperm, bc):
    """Solve -div(k grad p) = 0 with k = exp(logperm), cellwise.

    Returns the pressure as a ScalarField on the same grid, one field per
    field of a stack. Each field's solve is verified to its own relative
    residual of 1e-10 (NaN fails).
    """
    grid = logperm.grid
    k = _permeability(logperm)
    ab, Tl, Tr = _tpfa(k, grid.hx, grid.hy)
    rhs = np.zeros(k.shape)
    rhs[..., :, 0] += Tl * bc.p_left
    rhs[..., :, -1] += Tr * bc.p_right
    # outward Neumann flux leaves the cell, so it subtracts from the source
    rhs[..., 0, :] -= bc.v_bottom * grid.hx
    rhs[..., -1, :] -= bc.v_top * grid.hx
    rhs = rhs.ravel()
    p = _solve(ab, rhs)
    res = (_matvec(ab, p) - rhs).reshape(-1, grid.n_cells)
    scale = np.maximum(np.linalg.norm(rhs.reshape(res.shape), axis=1), 1e-300)
    if not (np.linalg.norm(res, axis=1) <= 1e-10 * scale).all():
        raise NumericalError("pressure solve did not reach residual 1e-10",
                             module=_MOD, code="residual")
    return ScalarField(grid, p.reshape(logperm.values.shape))


def boundary_fluxes(logperm, pressure, bc):
    """(inflow through the left edge, outflow through the right edge)."""
    grid = logperm.grid
    _, Tl, Tr = _tpfa(_permeability(logperm), grid.hx, grid.hy)
    p = pressure.as_2d()
    q_in = float(np.sum(Tl * (bc.p_left - p[:, 0])))
    q_out = float(np.sum(Tr * (p[:, -1] - bc.p_right)))
    return q_in, q_out


def _check_pivots(*pivots):
    """A pivot or an effective permeability not > 0 (or NaN) makes the
    upscaling system singular."""
    for pivot in pivots:
        if not pivot.min() > 0:
            raise NumericalError("singular upscaling system", module=_MOD,
                                 code="singular")


def _keff_x(kb, hx, hy):
    """Directional effective permeability of blocks for flow in x.

    kb is (nblocks, by, bx): unit pressure drop left to right, no-flow
    top and bottom, one banded solve over all blocks.
    """
    by, bx = kb.shape[1:]
    ab, Tl, Tr = _tpfa(kb, hx, hy)
    rhs = np.zeros(kb.shape)
    rhs[:, :, 0] += Tl  # p = 1 on the left face, 0 on the right
    p = _solve(ab, rhs.ravel()).reshape(kb.shape)
    q = np.sum(Tr * p[:, :, -1], axis=1)
    # q = keff * height * dp / width with dp = 1
    return q * (bx * hx) / (by * hy)


def _keff_x_2x2(kb, hx, hy):
    """``_keff_x`` of 2x2 blocks kb (nblocks, 2, 2) in closed form.

    The corner cells (0,0) and (1,1) do not couple to each other and are
    eliminated first. The remaining 2x2 system of cells (0,1) and (1,0)
    is solved by its LDL^T factors, which cannot overflow where a
    determinant would. Every transmissibility is >= 0, so the Schur
    complements are sums of nonnegative terms. As in the generic path, a
    diagonal entry that is not finite overflows, and a pivot not > 0
    (or NaN) is singular; each is checked before it divides.
    """
    k = np.ascontiguousarray(kb.transpose(1, 2, 0))  # k[j, i] per block
    with np.errstate(divide="ignore", over="ignore"):  # checked below
        inv = 1.0 / k
        Tx = 2.0 * hy / hx / (inv[:, 0] + inv[:, 1])  # per row j
        Ty = 2.0 * hx / hy / (inv[0] + inv[1])  # per column i
        Te = 2.0 * hy / hx * k  # edge terms: Tl = Te[:, 0], Tr = Te[:, 1]
        diag = Tx[:, None] + Ty[None, :] + Te
    _check_diagonal(diag)
    (Tx0, Tx1), (Ty0, Ty1), ((Tl0, Tr0), (Tl1, Tr1)) = Tx, Ty, Te
    d00, d11 = diag[0, 0], diag[1, 1]
    _check_pivots(d00, d11)
    x0, y0, l0 = Tx0 / d00, Ty0 / d00, Tl0 / d00  # eliminating (0,0)
    x1, y1, r1 = Tx1 / d11, Ty1 / d11, Tr1 / d11  # and (1,1)
    # Schur complement [[a, -e], [-e, c]] of cells (0,1) and (1,0)
    a = Tx0 * (y0 + l0) + Ty1 * (x1 + r1) + Tr0
    c = Ty0 * (x0 + l0) + Tx1 * (y1 + r1) + Tl1
    e = Tx0 * y0 + Tx1 * y1
    _check_pivots(a)
    m = e / a
    c2 = c - e * m  # det / a
    _check_pivots(c2)
    # p = 1 on the left face, 0 on the right
    p10 = (Tl1 + Tl0 * (y0 + x0 * m)) / c2
    p01 = (Tl0 * x0 + e * p10) / a
    p11 = x1 * p10 + y1 * p01
    # q = keff * height * dp / width with dp = 1
    return (Tr0 * p01 + Tr1 * p11) * (hx / hy)


def check_refinement(fine, coarse):
    """Cells per coarse block in x and y; the fine grid must tile the
    coarse grid exactly."""
    if fine.nx % coarse.nx or fine.ny % coarse.ny:
        raise ArgumentError(
            f"fine grid {fine.nx}x{fine.ny} is not an integer refinement "
            f"of coarse grid {coarse.nx}x{coarse.ny}",
            module=_MOD,
        )
    return fine.nx // coarse.nx, fine.ny // coarse.ny


def upscale(fine_logperm, coarse):
    """Effective coarse log-permeability from local flow problems.

    The field's grid must tile the coarse grid exactly. Per block, the x
    and y directional effective permeabilities are combined as a
    geometric mean into one isotropic coarse value. A stack of fine
    fields gives the stack of their coarse fields.
    """
    fine = fine_logperm.grid
    bx, by = check_refinement(fine, coarse)
    k = _permeability(fine_logperm)
    blocks = k.reshape(-1, coarse.ny, by, coarse.nx, bx).transpose(
        0, 1, 3, 2, 4).reshape(-1, by, bx)
    keff = _keff_x_2x2 if bx == by == 2 else _keff_x
    if bx == by and fine.hx == fine.hy:  # y problems are transposed blocks
        keff_x, keff_y = np.split(keff(np.concatenate(
            [blocks, blocks.transpose(0, 2, 1)]), fine.hx, fine.hy), 2)
    else:
        keff_x = keff(blocks, fine.hx, fine.hy)
        keff_y = keff(blocks.transpose(0, 2, 1), fine.hy, fine.hx)
    _check_pivots(keff_x, keff_y)  # a keff that underflowed to 0
    logk = 0.5 * (np.log(keff_x) + np.log(keff_y))
    return ScalarField(coarse, logk.reshape(
        fine_logperm.values.shape[:-1] + (coarse.n_cells,)))


def observe_pressure(pressure, mask):
    """Pressure values at the masked cells, in ascending cell order; one
    row per field of a stack."""
    if pressure.grid != mask.grid:
        raise ArgumentError("mask grid differs from pressure grid", module=_MOD)
    return pressure.values[..., mask.cells]
