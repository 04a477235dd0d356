import math

import numpy as np
import pytest

from condflow.errors import ArgumentError, ParseError
from condflow.grid import (
    ScalarField,
    chessboard_mask,
    make_grid,
    read_field_csv,
    write_field_csv,
    write_field_pgm,
)


def test_single_cell_center():
    g = make_grid(1, 1)
    assert g.cell_centers().tolist() == [[0.5, 0.5]]


def test_reference_grids():
    fine = make_grid(16, 16)
    assert fine.n_cells == 256
    assert fine.hx == fine.hy == 0.0625
    assert make_grid(8, 8).n_cells == 64


@pytest.mark.parametrize("nx,ny", [(0, 4), (4, 0), (-1, 3)])
def test_bad_dimensions(nx, ny):
    with pytest.raises(ArgumentError):
        make_grid(nx, ny)


def test_centers_strictly_inside():
    g = make_grid(5, 3)
    c = g.cell_centers()
    assert np.all(c > 0.0) and np.all(c < 1.0)


def test_index_bijection_exhaustive():
    # all grid sizes up to 64x64
    for nx in range(1, 65):
        for ny in range(1, 65):
            g = make_grid(nx, ny)
            idx = np.arange(g.n_cells)
            j, i = divmod(idx, g.nx)
            assert np.array_equal(g.cell_index(i, j), idx)
            assert np.all((0 <= i) & (i < nx))
            assert np.all((0 <= j) & (j < ny))


def test_chessboard_2x2():
    m = chessboard_mask(make_grid(2, 2))
    # cells (0,0) and (1,1): flat indices 0 and 3
    assert m.cells.tolist() == [0, 3]


def test_chessboard_counts():
    assert chessboard_mask(make_grid(16, 16)).cells.size == 128
    assert chessboard_mask(make_grid(3, 3)).cells.size == 5


def test_chessboard_ceil_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        nx, ny = rng.integers(1, 30, size=2)
        g = make_grid(nx, ny)
        assert chessboard_mask(g).cells.size == math.ceil(g.n_cells / 2)


def test_csv_round_trip(tmp_path):
    g = make_grid(4, 4)
    rng = np.random.default_rng(7)
    fld = ScalarField(g, rng.standard_normal(16) * 1e3)
    path = tmp_path / "f.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, fld.values)


def test_csv_shape_mismatch(tmp_path):
    g23 = make_grid(2, 3)
    fld = ScalarField(g23, np.arange(6.0))
    path = tmp_path / "f.csv"
    write_field_csv(fld, path)
    with pytest.raises(ParseError):
        read_field_csv(path, make_grid(3, 2))


def test_csv_bad_token(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,abc\n2.0,3.0\n")
    with pytest.raises(ParseError, match="'abc' .* at row 0, column 2"):
        read_field_csv(path, make_grid(2, 2))


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(ParseError, match="number of columns changed") as exc:
        read_field_csv(path, make_grid(2, 2))
    assert exc.value.module == "grid"
    assert str(exc.value).startswith(f"{path}: ")


def test_csv_wrong_row_count(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    with pytest.raises(ParseError, match="expected 2 rows, got 3"):
        read_field_csv(path, make_grid(2, 2))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="input contained no data"):
        read_field_csv(path, make_grid(2, 2))


def test_csv_zero_field(tmp_path):
    g = make_grid(3, 2)
    path = tmp_path / "f.csv"
    write_field_csv(ScalarField(g, np.zeros(6)), path)
    assert path.read_text() == "0,0,0\n0,0,0\n"


def test_pgm_minmax(tmp_path):
    g = make_grid(2, 1)
    path = tmp_path / "f.pgm"
    write_field_pgm(ScalarField(g, np.array([0.0, 1.0])), path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 1", "255"]
    assert lines[3].split() == ["0", "255"]


def test_pgm_constant_midgray(tmp_path):
    g = make_grid(2, 2)
    path = tmp_path / "f.pgm"
    write_field_pgm(ScalarField(g, np.full(4, 3.5)), path)
    body = path.read_text().splitlines()[3:]
    assert all(tok == "128" for line in body for tok in line.split())


def test_pgm_pixel_per_cell(tmp_path):
    g = make_grid(16, 16)
    path = tmp_path / "f.pgm"
    write_field_pgm(ScalarField(g, np.arange(256.0)), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "16 16"
    assert len(lines) == 3 + 16


def test_field_validation():
    g = make_grid(2, 2)
    with pytest.raises(ArgumentError):
        ScalarField(g, np.zeros(3))
    with pytest.raises(ArgumentError):
        ScalarField(g, np.array([0.0, np.nan, 0.0, 0.0]))
