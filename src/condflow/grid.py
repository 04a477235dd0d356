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
  * a numeric artifact is written by one ``np.savetxt`` call, a trace or
    a PGM through one open file by its writer's own ``%`` formats, and
    every CSV (fields, measurements, thetas, traces, reports) is read by
    ``_read_csv`` as UTF-8: an optional header line, then rows with
    comma delimiters and no comment character. Most tokens of a trace
    repeat the token above them, since a rejection repeats the state and
    a single-component move changes one coordinate, so the body is cut
    into bytes tokens by ``np.loadtxt`` a block of rows at a time, and
    only the tokens that differ from the one above are parsed.
    A body the blocks cannot take plainly (a block of mostly new tokens,
    as in a field, a blank line, a ragged row, a long, ``_`` or bad
    token) is read by one float ``np.loadtxt`` pass over the path, so
    the values, bit for bit, and the errors are that pass's either way.
    Empty lines are skipped. A byte that is not UTF-8, or any malformed
    body (a bad token, a ragged row, no data rows), is a ``ParseError``
    of the calling module that names the file (and, for a body,
    loadtxt's row and column); rows must be as wide as a header, and
    each reader then checks its header and shape.
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


#: rows per block of a CSV body: 98 kB of tokens in a 24-column trace
_BLOCK = 128


def _count_lines(path):
    """Lines of a file, a last one without a newline included. A NUL byte
    is a ValueError: a bytes token drops it where loadtxt's float parse
    rejects it."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if b"\0" in chunk:
                raise ValueError("NUL byte")
            # faster than bytes.count on a trace
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)
            last = chunk[-1:]
    return lines + (last != b"\n")


def _new_tokens(tok, above):
    """Mask of the tokens in a block of ``S32`` tokens that differ from
    the token above them; ``above`` is the row before the block, or None
    at row 0. A block the float parse reads as fast or may read
    otherwise is a ValueError: no rows, a token of 25 bytes or more (one
    that may be cut), or more than half the tokens new."""
    # 4 uint64 lanes per token; one of at most 24 bytes leaves the last 0
    lanes = tok.view(np.uint64).reshape(tok.shape + (4,))
    if not tok.size or lanes[:, :, 3].any():
        raise ValueError("no rows or a long token")
    new = np.empty(tok.shape, dtype=bool)
    new[0] = True if above is None else tok[0] != above
    np.logical_or.reduce([lanes[1:, :, k] != lanes[:-1, :, k]
                          for k in range(3)], out=new[1:])
    if 2 * np.count_nonzero(new) > new.size:
        raise ValueError("mostly new tokens")
    return new


def _fill_block(out, r, tok, new):
    """Write a block of tokens into rows r, r + 1, ... of ``out``: each new
    token parsed, each repeat copied from the value above. A block that
    is not the next ``_BLOCK`` rows of ``out`` (a blank line, which
    loadtxt skips, a ragged row), or a new token with ``_`` (which
    ``float`` takes and loadtxt does not) or that does not parse, is a
    ValueError."""
    blk = out[r:r + _BLOCK]
    if blk.shape != tok.shape:
        raise ValueError("block shape")
    fresh = tok[new]
    if b"_" in fresh.tobytes():
        raise ValueError("underscore")
    blk[new] = fresh.astype(float)
    blk[:] = _fill_down(out[r - (r > 0):r + len(blk)], new)


def _fill_down(rows, new):
    """The last ``len(new)`` rows of ``rows``, each value that is not
    ``new`` replaced by the last new one above it; with one row more
    than ``new``, ``rows`` starts with the row above the block."""
    b, w = new.shape
    base = len(rows) - b
    src = np.where(new, np.arange(base, b + base)[:, None], 0)
    np.maximum.accumulate(src, axis=0, out=src)
    return rows.take(src * w + np.arange(w))


def _read_csv(path, module, header=False, empty=False):
    """(header line or None, 2-D float array) of a CSV artifact.

    ``np.loadtxt`` cuts the body after the header into bytes tokens a
    block of rows at a time. The first block that is plain sizes the
    array from a count of the lines, and :func:`_fill_block` parses each
    block into it, only the tokens that differ from the token above (the
    repeats of a trace; see the module docstring). A body the blocks
    cannot take plainly is read again by one float ``np.loadtxt`` pass
    over the path, whose values and errors the blocks keep bit for bit.
    A file that is not UTF-8, a malformed body, or rows whose width is
    not the header's, raises ``ParseError(module)`` naming the path. A
    file without data rows is malformed unless ``empty`` (a report with
    no checkpoints), in which case the array has no rows.
    """
    kw = dict(delimiter=",", ndmin=2, comments=None, encoding="utf-8")

    def blocks():
        with open(path, encoding="utf-8") as fh:
            if header:
                fh.readline()
            out, above, r = None, None, 0
            while out is None or r < len(out):
                n = _BLOCK if out is None else min(_BLOCK, len(out) - r)
                tok = np.loadtxt(fh, dtype="S32", max_rows=n, **kw)
                new = _new_tokens(tok, above)
                if out is None:  # so a field's lines are never counted
                    out = np.empty((_count_lines(path) - header, tok.shape[1]))
                _fill_block(out, r, tok, new)
                above, r = tok[-1].copy(), r + _BLOCK
            if fh.read(1):
                raise ValueError("lines past the count")
        return out

    head = data = None
    try:
        if header:
            with open(path, encoding="utf-8") as fh:
                head = fh.readline().strip()
        with warnings.catch_warnings():
            # loadtxt warns on a file without data rows, and on a blank
            # line when it reads a block
            warnings.simplefilter("ignore" if empty else "error", UserWarning)
            try:
                data = blocks()
            except (OSError, ValueError, UserWarning):
                # the float pass raises whatever the file is at fault
                # for; outside this handler the blocks' arrays are freed
                pass
            if data is None:
                data = np.loadtxt(path, skiprows=int(header), **kw)
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
    """Render a field as an ASCII PGM image, one pixel per cell, in one
    write."""
    arr = fld.as_2d()
    lo, hi = arr.min(), arr.max()
    if hi / 2 - lo / 2 > np.finfo(float).max / 2:  # hi - lo overflows
        arr, lo, hi = arr / 2, lo / 2, hi / 2  # exact at this range
    pix = (np.rint((arr - lo) / (hi - lo) * 255.0) if hi > lo
           else np.full(arr.shape, 128)).astype(np.int64)[::-1].tolist()
    with open(path, "w") as fh:
        fh.write(f"P2\n{fld.grid.nx} {fld.grid.ny}\n255\n" + "".join(
            [" ".join(map(str, row)) + "\n" for row in pix]))
