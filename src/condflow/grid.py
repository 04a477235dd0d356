"""Uniform cell-centered 2D grids on the unit square, scalar fields over
them, chessboard observation masks, and field file I/O (CSV, PGM).

Conventions (fixed, documented here once):
  * cells are indexed row-major with j (the y index) outermost:
    ``cell = j * nx + i``;
  * a ``ScalarField``'s values are (n_cells,) for one field or
    (m, n_cells) for a stack, all finite, and no other shape is accepted;
  * field CSV files hold ny rows of nx comma-separated values with the
    bottom row (j = 0) on the first line, printed to 17 significant
    digits so a write/read round trip is bit exact;
  * PGM images are ASCII P2, min-max scaled to 0..255, top row first;
    a constant field renders mid-gray (128), and every finite field
    renders, even one whose range exceeds the largest float;
  * every numeric artifact is written by one ``np.savetxt`` call, and
    every CSV (fields, measurements, thetas, traces, reports) is read by
    ``_read_csv`` as UTF-8: an optional header line, then one
    ``np.loadtxt`` pass over the rows with comma delimiters and no
    comment character. Empty lines are skipped. A byte that is not
    UTF-8, or any malformed body (a bad token, a ragged row, no data
    rows), is a ``ParseError`` of the calling module that names the file
    (and, for a body, loadtxt's row and column); rows must be as wide as
    a header, and each reader then checks its header and shape.
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


def make_grid(nx, ny):
    """Build a Grid2D, validating dimensions."""
    return Grid2D(int(nx), int(ny))


@dataclass
class ScalarField:
    """One real value per grid cell (log-permeability, pressure, ...).

    The one field rule: ``values`` is (n_cells,) for one field or
    (m, n_cells) for a stack of m fields, and every value is finite. Any
    other shape, such as (ny, nx), a 3-D stack or a scalar, is an
    ``ArgumentError`` that names it.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.n_cells:
            raise ArgumentError(f"field values have shape {vals.shape}, "
                                f"not (n_cells,) or (m, n_cells) with n_cells "
                                f"{self.grid.n_cells}", module=_MOD)
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

    One ``np.loadtxt`` pass over the rows after the header; a file that
    is not UTF-8, a malformed body, or rows whose width is not the
    header's, raises ``ParseError(module)`` naming the path. A file
    without data rows is malformed unless ``empty`` (a report with no
    checkpoints), in which case the array has no rows.
    """
    head = None
    try:
        if header:
            with open(path, encoding="utf-8") as fh:
                head = fh.readline().strip()
        with warnings.catch_warnings():
            # loadtxt only warns on a file without data rows
            warnings.simplefilter("ignore" if empty else "error", UserWarning)
            # given a path, loadtxt reads the file in chunks; an open file
            # it reads line by line, several percent slower on a trace
            data = np.loadtxt(path, delimiter=",", skiprows=int(header),
                              ndmin=2, comments=None, encoding="utf-8")
    except (ValueError, UserWarning) as exc:  # UnicodeDecodeError too
        raise ParseError(f"{path}: {exc}", module=module) from exc
    if header:
        width = len(head.split(","))
        if data.size and data.shape[1] != width:  # no rows: shape (0, 1)
            raise ParseError(f"{path}: rows have {data.shape[1]} values, the "
                             f"header {width}", module=module)
        data = data.reshape(-1, width)
    return head, data


def read_field_csv(path, grid):
    """Read a field CSV written by :func:`write_field_csv`."""
    _, data = _read_csv(path, _MOD)
    if data.shape != (grid.ny, grid.nx):
        raise ParseError(f"{path}: expected {grid.ny} rows of {grid.nx} "
                         f"values, got {data.shape[0]} of {data.shape[1]}",
                         module=_MOD)
    return ScalarField(grid, data.ravel())


def write_field_pgm(fld, path):
    """Render a field as an ASCII PGM image, one pixel per cell."""
    arr = fld.as_2d()
    lo, hi = arr.min(), arr.max()
    if hi / 2 - lo / 2 > np.finfo(float).max / 2:  # hi - lo overflows
        arr, lo, hi = arr / 2, lo / 2, hi / 2  # exact at this range
    pix = (np.rint((arr - lo) / (hi - lo) * 255.0) if hi > lo
           else np.full(arr.shape, 128))
    np.savetxt(path, pix[::-1], fmt="%d", comments="",
               header=f"P2\n{fld.grid.nx} {fld.grid.ny}\n255")
