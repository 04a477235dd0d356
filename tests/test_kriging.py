import numpy as np
import pytest

from condflow.covariance import KernelParams, kernel_matrix
from condflow.errors import ArgumentError, NumericalError, ParseError
from condflow.grid import make_grid
from condflow.kriging import (
    MeasurementSet,
    krige,
    read_measurements_csv,
    snap_to_cells,
)


def test_single_measurement_exact(fine_grid, kernel_params):
    ms = MeasurementSet(np.array([[0.5, 0.5]]), np.array([2.0]))
    surf = krige(ms, kernel_params, fine_grid)
    cell = snap_to_cells(ms, fine_grid)[0]
    assert surf.values[cell] == pytest.approx(2.0, abs=1e-12)


def test_far_field_decays_to_zero():
    g = make_grid(32, 32)
    params = KernelParams(sigma2=1.0, lx=0.05, ly=0.05)
    ms = MeasurementSet(np.array([[0.1, 0.1]]), np.array([5.0]))
    surf = krige(ms, params, g)
    far = g.cell_index(31, 31)
    assert abs(surf.values[far]) < 1e-10


def test_two_measurement_hand_oracle(fine_grid, kernel_params):
    ms = MeasurementSet(np.array([[0.25, 0.25], [0.75, 0.75]]),
                        np.array([1.0, -2.0]))
    surf = krige(ms, kernel_params, fine_grid)
    cells = snap_to_cells(ms, fine_grid)
    # hand 2x2 solve at the snapped centers
    pts = fine_grid.cell_centers()[cells]
    K = kernel_matrix(pts, pts, kernel_params)
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    w = np.array([
        (K[1, 1] * ms.values[0] - K[0, 1] * ms.values[1]) / det,
        (K[0, 0] * ms.values[1] - K[1, 0] * ms.values[0]) / det,
    ])
    centers = fine_grid.cell_centers()
    expected = kernel_matrix(centers, pts, kernel_params) @ w
    assert np.max(np.abs(surf.values - expected)) <= 1e-10
    assert np.abs(surf.values[cells] - ms.values).max() <= 1e-10


def test_exactness_packaged(measurements, kernel_params, fine_grid):
    surf = krige(measurements, kernel_params, fine_grid)
    cells = snap_to_cells(measurements, fine_grid)
    assert np.abs(surf.values[cells] - measurements.values).max() <= 1e-10


def test_linearity_in_data(measurements, kernel_params, fine_grid):
    surf = krige(measurements, kernel_params, fine_grid)
    scaled = MeasurementSet(measurements.locations, 3.0 * measurements.values)
    surf3 = krige(scaled, kernel_params, fine_grid)
    assert surf3.values == pytest.approx(3.0 * surf.values, abs=1e-12)


def test_three_point_cramer_oracle(fine_grid, kernel_params):
    pts = np.array([[0.2, 0.3], [0.6, 0.4], [0.4, 0.8]])
    vals = np.array([1.0, 2.0, -1.0])
    ms = MeasurementSet(pts, vals)
    surf = krige(ms, kernel_params, fine_grid)
    cells = snap_to_cells(ms, fine_grid)
    snapped = fine_grid.cell_centers()[cells]
    K = kernel_matrix(snapped, snapped, kernel_params)

    def cramer_solve(K, b):
        det = np.linalg.det(K)
        w = np.empty(3)
        for i in range(3):
            Ki = K.copy()
            Ki[:, i] = b
            w[i] = np.linalg.det(Ki) / det
        return w

    # the kriging value at any probe cell is k(x)^T K^-1 y; compare weights
    probe = fine_grid.cell_centers()[[0, 100, 255]]
    kx = kernel_matrix(probe, snapped, kernel_params)
    expected = kx @ cramer_solve(K, vals)
    assert np.abs(surf.values[[0, 100, 255]] - expected).max() <= 1e-10


def test_surface_finite(measurements, kernel_params, fine_grid):
    surf = krige(measurements, kernel_params, fine_grid)
    assert np.all(np.isfinite(surf.values))


def test_ill_conditioned_system(fine_grid):
    # huge correlation lengths make distinct locations nearly duplicate
    params = KernelParams(sigma2=1.0, lx=1e6, ly=1e6)
    ms = MeasurementSet(np.array([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]]),
                        np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NumericalError):
        krige(ms, params, fine_grid)


def test_snap_single_cell():
    ms = MeasurementSet(np.array([[0.5, 0.5]]), np.array([1.0]))
    assert snap_to_cells(ms, make_grid(1, 1)).tolist() == [0]


def test_snap_corner(fine_grid):
    ms = MeasurementSet(np.array([[0.03, 0.03]]), np.array([1.0]))
    assert snap_to_cells(ms, fine_grid).tolist() == [0]


def test_snap_collision(fine_grid):
    ms = MeasurementSet(np.array([[0.5, 0.5], [0.51, 0.51]]),
                        np.array([1.0, 2.0]))
    with pytest.raises(ArgumentError, match="collide"):
        snap_to_cells(ms, fine_grid)


def test_measurements_csv_round_trip(tmp_path):
    # 17 significant digits read back to the exact doubles; spaces in the
    # header and blank lines are tolerated
    path = tmp_path / "ms.csv"
    path.write_text("x, y, value\n"
                    "0.125,0.10000000000000001,0.5\n"
                    "\n"
                    "0.90000000000000002,0.33333333333333331,"
                    "-9.9999999999999995e-08\n")
    back = read_measurements_csv(path)
    assert np.array_equal(back.locations, [[0.125, 0.1], [0.9, 1 / 3]])
    assert np.array_equal(back.values, [0.5, -1e-7])


def test_measurements_csv_bad_header(tmp_path):
    path = tmp_path / "ms.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_measurements_csv(path)


@pytest.mark.parametrize("body, message", [
    ("0.5,0.5,1.0 # note\n", "could not convert string '1.0 # note'"),
    ("# note\n0.5,0.5,1.0\n", "could not convert string '# note'"),
    ("0.5,0.5\n0.25,0.25\n", "rows have 2 values, the header 3"),
    ("", "input contained no data"),
], ids=["comment_after_value", "comment_line", "short_rows", "header_only"])
def test_measurements_csv_malformed_body(tmp_path, body, message):
    # there is no comment character: a '#' in a data row is a bad token
    path = tmp_path / "ms.csv"
    path.write_text("x,y,value\n" + body)
    with pytest.raises(ParseError) as exc:
        read_measurements_csv(path)
    assert exc.value.module == "kriging"
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)
