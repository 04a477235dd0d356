"""Simple kriging of sparse log-permeability measurements.

Simple kriging with a known zero mean is used (consistent with the
zero-mean KL prior): weights solve K w(x) = k(x) with K the kernel Gram
matrix of the measurement locations, and the surface is the weighted
sum of the measured values. The surface interpolates the data exactly
at the measurement cells, which is what makes the nullspace constraint
in the conditioning module homogeneous.

The measurement locations are snapped to the cells that hold them, so
k(x) is a row of the covariance over the cell centers. Kriging reads
those rows from the same Kronecker factors as the KLE
(:mod:`condflow.covariance`), keeping the surface consistent with the
discrete fields it is added to. The pointwise kernel and the dense
matrix live in the tests' oracles (``tests/oracles.py``).
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
    """Simple-kriging surface over all cell centers as a ScalarField,
    under the Kronecker covariance ``cov`` of the grid
    (:func:`condflow.covariance.assemble_covariance`)."""
    cells = snap_to_cells(ms, grid)
    j, i = np.divmod(cells, grid.nx)
    # the rows of sigma2 * (ry kron rx) at the measurement cells
    cross = (cov.sigma2 * cov.ry[j][:, :, None]
             * cov.rx[i][:, None, :]).reshape(ms.m, grid.n_cells)
    K = cross[:, cells]
    svals = np.linalg.svd(K, compute_uv=False)
    cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
    if cond > 1e12 or svals[-1] <= 1e-12 * svals[0]:
        raise NumericalError(
            f"kriging system is ill-conditioned (cond={cond:.3g}); "
            "measurement locations are nearly duplicate",
            module=_MOD,
            code="conditioning",
        )
    weights = np.linalg.solve(K, cross)
    return ScalarField(grid, weights.T @ ms.values)


def read_measurements_csv(path):
    """Load a measurement set from a CSV with header ``x,y,value`` (case
    and spaces ignored)."""
    header, data = _read_csv(path, _MOD, header=True)
    if header.lower().replace(" ", "") != "x,y,value":
        raise ParseError(f"{path}:1: expected header 'x,y,value', got "
                         f"'{header}'", module=_MOD)
    return MeasurementSet(data[:, :2], data[:, 2])
