import numpy as np
import pytest

from condflow.covariance import KernelParams, assemble_covariance
from condflow.errors import ArgumentError, NumericalError, ParseError
from condflow.grid import make_grid
from condflow.kriging import (
    MeasurementSet,
    krige,
    read_measurements_csv,
    snap_to_cells,
)
from oracles import cell_centers, kernel_matrix


def test_single_measurement_exact(fine_grid, fine_cov):
    ms = MeasurementSet(np.array([[0.5, 0.5]]), np.array([2.0]))
    surf = krige(ms, fine_cov, fine_grid)
    cell = snap_to_cells(ms, fine_grid)[0]
    assert surf.values[cell] == pytest.approx(2.0, abs=1e-12)


def test_far_field_decays_to_zero():
    g = make_grid(32, 32)
    params = KernelParams(sigma2=1.0, lx=0.05, ly=0.05)
    ms = MeasurementSet(np.array([[0.1, 0.1]]), np.array([5.0]))
    surf = krige(ms, assemble_covariance(g, params), g)
    far = g.cell_index(31, 31)
    assert abs(surf.values[far]) < 1e-10


def test_two_measurement_hand_oracle(fine_grid, kernel_params, fine_cov):
    ms = MeasurementSet(np.array([[0.25, 0.25], [0.75, 0.75]]),
                        np.array([1.0, -2.0]))
    surf = krige(ms, fine_cov, fine_grid)
    cells = snap_to_cells(ms, fine_grid)
    # hand 2x2 solve at the snapped centers, with the pointwise kernel
    centers = cell_centers(fine_grid)
    pts = centers[cells]
    K = kernel_matrix(pts, pts, kernel_params)
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    w = np.array([
        (K[1, 1] * ms.values[0] - K[0, 1] * ms.values[1]) / det,
        (K[0, 0] * ms.values[1] - K[1, 0] * ms.values[0]) / det,
    ])
    expected = kernel_matrix(centers, pts, kernel_params) @ w
    assert np.max(np.abs(surf.values - expected)) <= 1e-10
    assert np.abs(surf.values[cells] - ms.values).max() <= 1e-10


def test_exactness_packaged(measurements, fine_cov, fine_grid):
    surf = krige(measurements, fine_cov, fine_grid)
    cells = snap_to_cells(measurements, fine_grid)
    assert np.abs(surf.values[cells] - measurements.values).max() <= 1e-10


def test_linearity_in_data(measurements, fine_cov, fine_grid):
    surf = krige(measurements, fine_cov, fine_grid)
    scaled = MeasurementSet(measurements.locations, 3.0 * measurements.values)
    surf3 = krige(scaled, fine_cov, fine_grid)
    assert surf3.values == pytest.approx(3.0 * surf.values, abs=1e-12)


def test_three_point_cramer_oracle(fine_grid, kernel_params, fine_cov):
    pts = np.array([[0.2, 0.3], [0.6, 0.4], [0.4, 0.8]])
    vals = np.array([1.0, 2.0, -1.0])
    ms = MeasurementSet(pts, vals)
    surf = krige(ms, fine_cov, fine_grid)
    cells = snap_to_cells(ms, fine_grid)
    snapped = cell_centers(fine_grid)[cells]
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
    probe = cell_centers(fine_grid)[[0, 100, 255]]
    kx = kernel_matrix(probe, snapped, kernel_params)
    expected = kx @ cramer_solve(K, vals)
    assert np.abs(surf.values[[0, 100, 255]] - expected).max() <= 1e-10


@pytest.mark.parametrize("sigma2", [1e-300, 3.0, 1e300])
def test_surface_does_not_depend_on_sigma2(measurements, fine_grid, sigma2):
    # the weights solve K w = k(x), both scaled by sigma2; at 1e-300 the
    # scaled K would underflow and its solve give NaN weights
    def surface(sigma2):
        params = KernelParams(sigma2=sigma2, lx=0.4, ly=0.8)
        return krige(measurements, assemble_covariance(fine_grid, params),
                     fine_grid).values

    assert surface(sigma2).tobytes() == surface(1.0).tobytes()


def test_surface_finite(measurements, fine_cov, fine_grid):
    surf = krige(measurements, fine_cov, fine_grid)
    assert np.all(np.isfinite(surf.values))


def test_ill_conditioned_system(fine_grid):
    # huge correlation lengths make distinct locations nearly duplicate
    params = KernelParams(sigma2=1.0, lx=1e6, ly=1e6)
    ms = MeasurementSet(np.array([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]]),
                        np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NumericalError):
        krige(ms, assemble_covariance(fine_grid, params), fine_grid)


@pytest.mark.parametrize("length, miss", [(0.4, "1.67e-08"), (1e6, "inf")],
                         ids=["surface_misses_data", "singular"])
def test_adjacent_block_rejected(fine_grid, length, miss):
    # nine measurements on the 3x3 block of cells i, j = 6..8: at the
    # default lengths cond(K) is about 3.6e9, below 1e12, yet the surface
    # misses the data by 1.3e-8 relative to the largest value; at 1e6
    # np.linalg.solve finds K singular
    i, j = np.meshgrid(np.arange(6, 9), np.arange(6, 9))
    ms = MeasurementSet((np.column_stack([i.ravel(), j.ravel()]) + 0.5) / 16,
                        np.random.default_rng(0).standard_normal(9))
    cov = assemble_covariance(fine_grid, KernelParams(1.0, length, 2 * length))
    with pytest.raises(NumericalError) as info:
        krige(ms, cov, fine_grid)
    assert (info.value.module, info.value.code) == ("kriging", "conditioning")
    assert f"misses the data by {miss} at cond(K) = " in str(info.value)


def test_snap_single_cell():
    ms = MeasurementSet(np.array([[0.5, 0.5]]), np.array([1.0]))
    assert snap_to_cells(ms, make_grid(1, 1)).tolist() == [0]


def test_snap_corner(fine_grid):
    ms = MeasurementSet(np.array([[0.03, 0.03]]), np.array([1.0]))
    assert snap_to_cells(ms, fine_grid).tolist() == [0]


def test_snap_far_edges_to_last_cells(fine_grid):
    ms = MeasurementSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                        np.ones(3))
    assert snap_to_cells(ms, fine_grid).tolist() == [
        fine_grid.cell_index(15, 0), fine_grid.cell_index(0, 15),
        fine_grid.cell_index(15, 15)]


@pytest.mark.parametrize("loc", [[-0.01, 0.5], [0.5, 1.01], [5.0, -2.0]])
def test_location_outside_unit_square_rejected(loc):
    with pytest.raises(ArgumentError, match="outside the unit square"):
        MeasurementSet(np.array([[0.5, 0.5], loc]), np.ones(2))


@pytest.mark.parametrize("locations, values, message", [
    (np.zeros((2, 3)), np.ones(2), r"locations must be an \(m, 2\) array"),
    (np.zeros((0, 2)), np.ones(0), r"locations must be an \(m, 2\) array"),
    (np.full((2, 2), 0.5), np.ones(3), "2 locations but 3 values"),
], ids=["three_columns", "no_rows", "value_count"])
def test_measurement_set_rejects_mismatched_shapes(locations, values,
                                                   message):
    with pytest.raises(ArgumentError, match=message):
        MeasurementSet(locations, values)


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
