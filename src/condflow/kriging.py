"""Simple kriging of sparse log-permeability measurements.

Simple kriging with a known zero mean is used (consistent with the
zero-mean KL prior). The surface interpolates the data exactly at the
measurement cells, which is what makes the nullspace constraint in the
conditioning module homogeneous. The locations are snapped to the cells
that hold them, and the kernel is read from the covariance the KLE
reads, already factored (:mod:`condflow.covariance`), so the surface is
consistent with the discrete fields it is added to. The pointwise kernel
and the dense matrix live in the tests' oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError, ParseError
from .grid import ScalarField, _read_csv

_MOD = "kriging"


@dataclass(frozen=True)
class MeasurementSet:
    """Sparse point measurements of the log-permeability field."""

    locations: np.ndarray  # (m, 2) points in [0,1]^2
    values: np.ndarray  # (m,)

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        if locs.shape[0] < 1 or locs.shape[1] != 2:
            raise ArgumentError("locations must be an (m, 2) array", module=_MOD)
        if vals.size != locs.shape[0]:
            raise ArgumentError(
                f"{locs.shape[0]} locations but {vals.size} values", module=_MOD
            )
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(vals))):
            raise ArgumentError("non-finite measurement data", module=_MOD)
        outside = np.any((locs < 0.0) | (locs > 1.0), axis=1)
        if np.any(outside):
            raise ArgumentError(f"measurement {np.argmax(outside) + 1} lies "
                                "outside the unit square [0, 1]^2", module=_MOD)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)

    @property
    def m(self):
        return self.values.size


def snap_to_cells(ms, grid):
    """Index of the cell holding each measurement location; a location
    on x = 1 or y = 1 is in the last cell.

    Raises if two measurements land in the same cell; downstream math
    assumes one datum per cell.
    """
    i = np.minimum((ms.locations[:, 0] * grid.nx).astype(int), grid.nx - 1)
    j = np.minimum((ms.locations[:, 1] * grid.ny).astype(int), grid.ny - 1)
    cells = grid.cell_index(i, j)
    uniq, counts = np.unique(cells, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[counts > 1].tolist()
        raise ArgumentError(
            f"measurements collide in grid cell(s) {dup}", module=_MOD
        )
    return cells


def krige(ms, cov, grid):
    """Simple-kriging surface k(x)^T K^-1 v over all cell centers as a
    ScalarField, under the factored covariance ``cov`` of the grid
    (:func:`condflow.covariance.assemble_covariance`).

    Neither the Gram matrix K nor its rows k(x) are formed. With Rx =
    Lx Lx^T and Ry = Ly Ly^T from the 1-D spectra, and G the rows of
    Ly kron Lx at the data cells, K = G G^T; with G^T = QR the surface is
    (Ly kron Lx) Q R^-T v, whose error grows like cond(R) = sqrt(cond(K))
    (the change of basis of RBF-QR, Fornberg & Piret 2007). The set is
    rejected as ill-conditioned unless cond(K) = cond(R)^2 < 1e12, which
    is then not solved and misses by inf, and unless the surface honors
    every datum to 1e-10 relative to the largest |value| (or 1)."""
    cells = snap_to_cells(ms, grid)
    j, i = np.divmod(cells, grid.nx)
    # unit variance, so sigma2 cancels; a rounded eigenvalue below 0 is 0
    lx = cov.ux * np.sqrt(np.maximum(cov.nu, 0.0) / grid.hx)
    ly = cov.uy * np.sqrt(np.maximum(cov.mu, 0.0) / grid.hy)
    G = (ly[j][:, :, None] * lx[i][:, None, :]).reshape(ms.m, grid.n_cells)
    Q, R = np.linalg.qr(G.T)
    s2 = np.linalg.svd(R, compute_uv=False) ** 2  # K's eigenvalues
    # Python floats divide to inf where numpy would warn of an overflow
    cond = np.inf if s2[-1] == 0.0 else float(s2[0]) / float(s2[-1])
    miss = np.inf
    if cond < 1e12:
        theta = (Q @ np.linalg.solve(R.T, ms.values)).reshape(grid.ny, grid.nx)
        surface = (ly @ theta @ lx.T).ravel()
        miss = np.abs(surface[cells] - ms.values).max()
    if not miss <= 1e-10 * max(1.0, np.abs(ms.values).max()):
        raise NumericalError(
            f"kriging system is ill-conditioned: the surface misses the "
            f"data by {miss:.3g} at cond(K) = {cond:.3g}; the measurements "
            "are too close for the kernel's correlation lengths",
            module=_MOD, code="conditioning")
    return ScalarField(grid, surface)


def read_measurements_csv(path):
    """Load a measurement set from a CSV with header ``x,y,value`` (case
    and spaces ignored)."""
    header, data = _read_csv(path, _MOD, header=True)
    if header.lower().replace(" ", "") != "x,y,value":
        raise ParseError(f"{path}:1: expected header 'x,y,value', got "
                         f"'{header}'", module=_MOD)
    return MeasurementSet(data[:, :2], data[:, 2])
