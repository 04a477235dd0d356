"""Cell-centered finite-volume (TPFA) solver for the Darcy pressure
equation on the unit square, plus flow-based permeability upscaling.

Discretization: two-point flux approximation with harmonic averaging of
the cell permeabilities at interior faces. Dirichlet boundaries (left
and right edges) use the half-cell distance, which makes the scheme
exact for layered permeability and linear pressure. Top and bottom
edges are no-flow. There are no sources.

One builder, ``_tpfa``, assembles the SPD operator of a stack of
permeability fields of shape (..., ny, nx) as one block-diagonal
system: its main diagonal and its +1 and +nx bands, each a flat array
over the whole stack laid end to end, with no band coupling two
fields. One solver, ``_solve``, hands it to LAPACK's ``dpbsv`` in
lower banded storage, for a pressure solve and for the generic
upscaling cell problems alike, and is the one gate of every banded
solve: each field's normwise backward error in the infinity norm (Rigal
& Gaches; Higham, *Accuracy and Stability of Numerical Algorithms*,
sec. 7.1) must meet ||Ax - b|| <= 1e-10 (||A|| ||x|| + ||b||), ||A||
the largest absolute row sum of the field's operator and ||x|| at least
the smallest normal float, with x finite. ``_lapack`` loads the
routine's compiled module alone, at the first solve. In lower storage
the factorization hands each column's rank-1 update to BLAS ``dsyr`` as
a stride-1 vector; in upper storage its stride is the bandwidth, and
OpenBLAS runs that several times slower, most of all on two threads.
The stack is followed by u = min(nx, cells - 1) decoupled unit rows,
so that every cell of every field has u rows below it, in a stack as
alone. The backward solve's dot products then have the same length for
every field, and their terms from another field's rows or the unit rows
are exact zeros, as no band couples two fields; without the unit rows,
a field's last cells would sum shorter dot products alone than in a
stack, and the two results would differ in the last bit. A stack of
bandwidth u of at least 32, which ``dpbtrf`` factors in blocks of 32
columns counted from the first row, is solved one field per call.

``solve_pressure`` and ``upscale`` take one field or a stack of fields
(see ``ScalarField``) and solve the whole stack at once. Every check
holds for each field on its own: finite permeability, transmissibility
overflow, singular pivots (named by field and cell), and each solve's
own backward error. Each field's result is bitwise that of its own call
(the tests check this). ``boundary_fluxes`` takes one field.

Nothing is stored between calls. The 2x2 upscaling layout is two
transposed views of the permeability stack, built per call; the
operator, with its bands flat over the stack, costs one assignment per
band. A call computes 1/k once per stack, shared by all faces, and
enters one ``np.errstate(divide="ignore", over="ignore")``, inside
which the private helpers run; every overflow or division by zero they
can meet is checked and reported as an error of its own.

Upscaling solves, per coarse block, two local TPFA problems with a unit
pressure drop (in x and in y, no-flow on the lateral faces), converts
the resulting through-flux to a directional effective permeability, and
stores the log of the geometric mean of the two directions. 2x2 blocks,
the shape every shipped config uses, are solved in closed form
(``_keff_x_2x2``), each step one array operation over all blocks of the
stack; two transposed views of the stack put every x problem and every
y problem (a transposed block) into its layout. Any other shape is
assembled by ``_tpfa`` and solved by ``_solve``, the blocks of one
direction in one call. A block whose effective permeability is not > 0
is singular.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec

import numpy as np

from .errors import ArgumentError, NumericalError
from .grid import ScalarField

_MOD = "darcy"
_NBMAX = 32  # the largest block size of LAPACK's dpbtrf
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BoundaryConditions:
    """Dirichlet pressure on the left/right edges; the top/bottom edges
    are no-flow."""

    p_left: float = 1.0
    p_right: float = 0.0


def _check_diagonal(diag):
    """Every transmissibility is >= 0 and sits on the diagonal, so a
    diagonal entry that is not finite is one that overflowed."""
    if not diag.max() < np.inf:  # NaN fails too
        raise NumericalError(
            "transmissibility overflowed: permeability too large for the "
            "grid spacing", module=_MOD, code="overflow")


def _tpfa(k, hx, hy):
    """TPFA operator of fields k of shape (..., ny, nx), n cells in all
    laid end to end, Dirichlet edge terms included:
    ``(diag, tx, ty), Tl, Tr``. diag (n,) is the main diagonal. tx
    (n + 1,) holds at c the transmissibility between cells c - 1 and c,
    0 where c starts a row; the +1 band is -tx[:n]. ty (n + nx,) holds at
    c that between cells c - nx and c, 0 in the first row of a field and
    past the end; the +nx band is -ty[:n]. No band couples two fields.
    Tl and Tr (n / nx,) are the Dirichlet edge transmissibilities, row
    by row.

    Every face reads the one 1/k of the stack. A k that underflowed to 0
    gives zero transmissibilities, which the solver reports as singular;
    one too large overflows a diagonal entry, which is checked here."""
    ny, nx = k.shape[-2:]
    k = k.ravel()
    n = k.size
    inv = 1.0 / k
    tx = np.empty(n + 1)
    np.add(inv[:-1], inv[1:], out=tx[1:n])
    np.divide(2.0 * hy, hx * tx[1:n], out=tx[1:n])
    tx[::nx] = 0.0  # cells c - 1 and c in two rows share no x face
    ty = np.zeros(n + nx)
    np.add(inv[:-nx], inv[nx:], out=ty[nx:n])
    np.divide(2.0 * hx, hy * ty[nx:n], out=ty[nx:n])
    ty[:n].reshape(-1, ny * nx)[:, :nx] = 0.0  # nor two fields a y face
    k_rows = k.reshape(-1, nx)
    Tl = 2.0 * hy * k_rows[:, 0] / hx  # half-cell distance to the edge
    Tr = 2.0 * hy * k_rows[:, -1] / hx
    # right, left, upper and lower face, then the edges: the order in
    # which the terms of each diagonal entry are summed
    diag = tx[1:] + tx[:-1]
    diag += ty[nx:]
    diag += ty[:n]
    diag_rows = diag.reshape(-1, nx)
    diag_rows[:, 0] += Tl
    diag_rows[:, -1] += Tr
    _check_diagonal(diag)
    return (diag, tx, ty), Tl, Tr


def _matvec(bands, x):
    """Operator times x (n,), band by band."""
    diag, tx, ty = bands
    n = diag.size
    y = diag * x
    for t, d in ((tx, 1), (ty, ty.size - n)):
        y[:-d] -= t[d:n] * x[d:]
        y[d:] -= t[d:n] * x[:-d]
    return y


def _lapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, loaded
    alone: the one place condflow names scipy, called by ``_solve``.

    Importing ``scipy.linalg`` runs its whole package init: on a 2-core
    x86_64 host (Python 3.11, numpy 2.4, scipy 1.17) it loads 85 scipy
    modules, adds 28.5 MB of resident memory and takes 0.16-0.20 s. This
    imports top-level ``scipy``, whose init finds the libraries a wheel
    bundles, and loads the one extension module from scipy's ``linalg``
    directory: 11 scipy modules, +3.4 MB and 11-12 ms there. The module
    is registered under its own name, so a later ``import scipy.linalg``
    finds it loaded and ``scipy.linalg.lapack.dpbsv``, a re-export, is
    the routine used here; if scipy.linalg was imported first, its
    module is returned. A module loaded here is not bound as an attribute
    of the ``scipy.linalg`` package, so ``scipy.linalg._flapack`` raises
    AttributeError; ``from scipy.linalg import _flapack``,
    ``scipy.linalg.lapack`` and scipy's public API keep working."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        path = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                          ).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension module in {path} "
                              f"(scipy {scipy.__version__})", name=name)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def _solve(bands, rhs, cells):
    """Solve the SPD system of the bands of ``_tpfa``, a stack of fields
    of ``cells`` cells each; a singular one raises NumericalError that
    names the field and its cell, and one whose solution misses the
    backward-error bound (see the module docstring) fails as "residual".

    LAPACK's ``dpbsv`` comes from :func:`_lapack` at the first solve, so
    a command that solves no pressure loads none of its library. A stack
    of bandwidth at least 32 is solved one field per call (see the module
    docstring)."""
    diag, tx, ty = bands
    n = diag.size
    nx = ty.size - n
    # |A|'s row sums: the bands hold the magnitudes of A's entries
    rows = diag + tx[:-1] + tx[1:] + ty[:-nx] + ty[nx:]
    u = min(nx, cells - 1)  # no band reaches past a field's last cell
    # column c's entries in rows c + 1 and c + nx, negated below
    tx, ty = tx[1:], ty[nx:]
    m = cells if u >= _NBMAX else n  # rows per call
    x = np.empty(n)
    for start in range(0, n, m):
        part = slice(start, start + m)
        # LAPACK's lower banded storage, (u + 1, m + u) in Fortran order:
        # row c of ab holds column c of the matrix from the diagonal down.
        # The u unit rows after the fields give the last field's cells u
        # rows below them, as every other field has
        ab = np.zeros((m + u, u + 1))
        ab[m:, 0] = 1.0
        ab[:m, 0] = diag[part]
        # the -1 band before the -nx band: they share a column when
        # nx = 1. Where there is no face the entry is -0, which changes no
        # bit of the result: the factorization and the solves only scale
        # it and subtract its products
        if u:
            np.negative(tx[part], out=ab[:m, 1])
        if nx <= u:
            np.negative(ty[part], out=ab[:m, nx])
        b = np.zeros(m + u)
        b[:m] = rhs[part]
        _, b, info = _lapack().dpbsv(ab.T, b, lower=1, overwrite_ab=1,
                                     overwrite_b=1)
        if info > 0:  # a unit row cannot fail
            field, cell = divmod(start + info - 1, cells)
            raise NumericalError(f"singular TPFA system: the pivot of cell "
                                 f"{cell} of field {field} is not > 0",
                                 module=_MOD, code="singular")
        if info < 0:
            raise ArgumentError(f"dpbsv rejected its argument {-info}",
                                module=_MOD)
        x[part] = b[:m]
    # each field's infinity norms of A, x, b and the residual
    a, x_norm, b_norm, r = np.abs([rows, x, rhs, _matvec(bands, x) - rhs]
                                  ).reshape(4, -1, cells).max(axis=2)
    # below the smallest normal float, solutions round absolutely
    bound = 1e-10 * (a * np.maximum(x_norm, _TINY) + b_norm)
    if not ((r <= bound) & (x_norm < np.inf)).all():  # NaN fails
        raise NumericalError("TPFA solve's backward error exceeds 1e-10",
                             module=_MOD, code="residual")
    return x


def _permeability(logperm):
    """k = exp(logperm) of a field or a stack, shaped (..., ny, nx)."""
    k = np.exp(logperm.as_2d())
    if not k.max() < np.inf:
        raise ArgumentError("permeability overflowed to non-finite values",
                            module=_MOD)
    return k


def solve_pressure(logperm, bc):
    """Solve -div(k grad p) = 0 with k = exp(logperm), cellwise.

    Returns the pressure as a ScalarField on the same grid, one field per
    field of a stack, each accepted by ``_solve``'s backward-error gate.
    """
    grid = logperm.grid
    with np.errstate(divide="ignore", over="ignore"):
        bands, Tl, Tr = _tpfa(_permeability(logperm), grid.hx, grid.hy)
        rhs = np.zeros((Tl.size, grid.nx))
        rhs[:, 0] += Tl * bc.p_left
        rhs[:, -1] += Tr * bc.p_right
        p = _solve(bands, rhs.ravel(), grid.n_cells)
    return ScalarField(grid, p.reshape(logperm.values.shape))


def boundary_fluxes(logperm, pressure, bc):
    """(inflow through the left edge, outflow through the right edge)."""
    grid = logperm.grid
    with np.errstate(divide="ignore", over="ignore"):
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
    nb, by, bx = kb.shape
    bands, Tl, Tr = _tpfa(kb, hx, hy)
    rhs = np.zeros((nb * by, bx))
    rhs[:, 0] += Tl  # p = 1 on the left face, 0 on the right
    p = _solve(bands, rhs.ravel(), by * bx).reshape(-1, bx)
    q = np.sum((Tr * p[:, -1]).reshape(nb, by), axis=1)
    # q = keff * height * dp / width with dp = 1
    return q * (bx * hx) / (by * hy)


def _keff_x_2x2(k, hx, hy):
    """``_keff_x`` of 2x2 blocks in closed form. k is (2, 2, ...): k[j, i]
    is cell (i, j) of every block, the blocks along the trailing axes,
    which hx and hy broadcast against.

    The corner cells (0,0) and (1,1) do not couple to each other and are
    eliminated first. The remaining 2x2 system of cells (0,1) and (1,0)
    is solved by its LDL^T factors, which cannot overflow where a
    determinant would. Every transmissibility is >= 0, so the Schur
    complements are sums of nonnegative terms. As in the generic path, a
    diagonal entry that is not finite overflows, and a pivot not > 0
    (or NaN) is singular; each is checked before it divides.
    """
    inv = 1.0 / k
    cx = 2.0 * hy / hx
    Tx = cx / (inv[:, 0] + inv[:, 1])  # per row j
    Ty = 2.0 * hx / hy / (inv[0] + inv[1])  # per column i
    Te = cx * k  # edge terms: Tl = Te[:, 0], Tr = Te[:, 1]
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
    nb = coarse.n_cells
    with np.errstate(divide="ignore", over="ignore"):
        # k[f, J, j, I, i]: cell (i, j) of block (I, J) of field f
        k = _permeability(fine_logperm).reshape(-1, coarse.ny, by,
                                                 coarse.nx, bx)
        if bx == by == 2:
            # the x problem of block b at b, its y problem (the transposed
            # block) at nb + b; two slice assignments cost less per call
            # than np.stack
            problems = np.empty((2, 2, k.shape[0], 2, coarse.ny, coarse.nx))
            problems[:, :, :, 0] = k.transpose(2, 4, 0, 1, 3)
            problems[:, :, :, 1] = k.transpose(4, 2, 0, 1, 3)
            hx, hy = fine.hx, fine.hy
            if hx != hy:  # the cell size along and across each problem
                hx, hy = np.repeat([hx, hy], nb), np.repeat([hy, hx], nb)
            keff = _keff_x_2x2(problems.reshape(2, 2, -1, 2 * nb), hx, hy)
        else:
            blocks = k.transpose(0, 1, 3, 2, 4).reshape(-1, by, bx)
            keff = np.concatenate([
                _keff_x(blocks, fine.hx, fine.hy).reshape(-1, nb),
                _keff_x(blocks.transpose(0, 2, 1), fine.hy,
                        fine.hx).reshape(-1, nb)], axis=1)
    _check_pivots(keff)  # a keff that underflowed to 0
    log_keff = np.log(keff)  # x problems, then y problems
    logk = 0.5 * (log_keff[:, :nb] + log_keff[:, nb:])
    return ScalarField(coarse, logk.reshape(
        fine_logperm.values.shape[:-1] + (nb,)))


def observe_pressure(pressure, mask):
    """Pressure values at the masked cells, in ascending cell order; one
    row per field of a stack."""
    if pressure.grid != mask.grid:
        raise ArgumentError("mask grid differs from pressure grid", module=_MOD)
    return pressure.values[..., mask.cells]
