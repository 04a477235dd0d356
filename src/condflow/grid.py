"""Uniform cell-centered 2D grids on the unit square, scalar fields over
them, chessboard observation masks, and field file I/O (CSV, PGM).

Conventions (fixed, documented here once):
  * cells are indexed row-major with j (the y index) outermost:
    ``cell = j * nx + i``;
  * field CSV files hold ny rows of nx comma-separated values with the
    bottom row (j = 0) on the first line, printed to 17 significant
    digits so a write/read round trip is bit exact;
  * PGM images are ASCII P2, min-max scaled to 0..255, top row first;
    a constant field renders mid-gray (128);
  * every numeric artifact is written by one ``np.savetxt`` call, and
    every CSV (fields, measurements, traces, diagnostics) is read back by
    ``_read_csv``: an optional header line, then one ``np.loadtxt`` pass
    over the rows with comma delimiters and no comment character.
    Empty lines are skipped. Any malformed body (a bad token, a ragged
    row, no data rows) is a ``ParseError`` of the calling module that
    names the file and loadtxt's row and column; each reader then checks
    its header and shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ParseError

_MOD = "grid"


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered discretization of [0,1] x [0,1]."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ArgumentError(
                f"grid dimensions must be positive, got {self.nx}x{self.ny}",
                module=_MOD,
            )

    @property
    def hx(self):
        return 1.0 / self.nx

    @property
    def hy(self):
        return 1.0 / self.ny

    @property
    def n_cells(self):
        return self.nx * self.ny

    def cell_index(self, i, j):
        """Flat index of cell column i, row j (row-major, j outer)."""
        return j * self.nx + i

    def cell_centers(self):
        """(n_cells, 2) array of cell-center coordinates, flat order."""
        xs = (np.arange(self.nx) + 0.5) * self.hx
        ys = (np.arange(self.ny) + 0.5) * self.hy
        X, Y = np.meshgrid(xs, ys)
        return np.column_stack([X.ravel(), Y.ravel()])


def make_grid(nx, ny):
    """Build a Grid2D, validating dimensions."""
    return Grid2D(int(nx), int(ny))


@dataclass
class ScalarField:
    """One real value per grid cell (log-permeability, pressure, ...).

    ``values`` is (n_cells,) for one field. A 2D array whose rows hold
    n_cells values each is a stack of fields, (m, n_cells); any other
    shape is flattened into one field.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n_cells:
            vals = vals.ravel()
        if vals.shape[-1] != self.grid.n_cells:
            raise ArgumentError(
                f"field has {vals.size} values for a grid of "
                f"{self.grid.n_cells} cells",
                module=_MOD,
            )
        if not np.isfinite(vals).all():
            raise ArgumentError("field contains non-finite values", module=_MOD)
        self.values = vals

    def as_2d(self):
        """Values reshaped to (..., ny, nx), row j of the grid in row j."""
        return self.values.reshape(self.values.shape[:-1]
                                   + (self.grid.ny, self.grid.nx))


@dataclass(frozen=True)
class ObservationMask:
    """Fixed, sorted selection of cell indices used as observation points."""

    grid: Grid2D
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=int)
        if cells.ndim != 1 or np.any(cells < 0) or np.any(cells >= self.grid.n_cells):
            raise ArgumentError("mask cell indices out of range", module=_MOD)
        object.__setattr__(self, "cells", cells)


def chessboard_mask(grid):
    """Mask selecting the cells with (i + j) even (half the grid)."""
    i = np.arange(grid.nx)
    j = np.arange(grid.ny)
    I, J = np.meshgrid(i, j)
    sel = ((I + J) % 2 == 0).ravel()
    return ObservationMask(grid, np.flatnonzero(sel))


def write_field_csv(fld, path):
    """Write a field as ny rows x nx columns, bottom row first."""
    np.savetxt(path, fld.as_2d(), fmt="%.17g", delimiter=",")


def _read_csv(path, module, header=False, empty=False):
    """(header line or None, 2-D float array) of a CSV artifact.

    One ``np.loadtxt`` pass over the rows after the header; a malformed
    body raises ``ParseError(module)`` naming the path. A file without
    data rows is malformed unless ``empty`` (a report with no
    checkpoints), in which case the array has no rows.
    """
    head = None
    if header:
        with open(path) as fh:
            head = fh.readline().strip()
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file without data rows
            warnings.simplefilter("ignore" if empty else "error", UserWarning)
            # given a path, loadtxt reads the file in chunks; an open file
            # it reads line by line, several percent slower on a trace
            data = np.loadtxt(path, delimiter=",", skiprows=int(header),
                              ndmin=2, comments=None)
    except (ValueError, UserWarning) as exc:
        raise ParseError(f"{path}: {exc}", module=module) from exc
    return head, data


def read_field_csv(path, grid):
    """Read a field CSV written by :func:`write_field_csv`."""
    _, data = _read_csv(path, _MOD)
    if data.shape[1] != grid.nx:
        raise ParseError(f"{path}: expected {grid.nx} values per row, got "
                         f"{data.shape[1]}", module=_MOD)
    if data.shape[0] != grid.ny:
        raise ParseError(f"{path}: expected {grid.ny} rows, got "
                         f"{data.shape[0]}", module=_MOD)
    return ScalarField(grid, data.ravel())


def write_field_pgm(fld, path):
    """Render a field as an ASCII PGM image, one pixel per cell."""
    arr = fld.as_2d()
    lo, hi = arr.min(), arr.max()
    pix = (np.rint((arr - lo) / (hi - lo) * 255.0) if hi > lo
           else np.full(arr.shape, 128))
    np.savetxt(path, pix[::-1], fmt="%d", comments="",
               header=f"P2\n{fld.grid.nx} {fld.grid.ny}\n255")
