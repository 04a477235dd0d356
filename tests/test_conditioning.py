import numpy as np
import pytest
from scipy import stats

from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    project,
    synthesize_conditioned,
)
from condflow.errors import ArgumentError
from condflow.grid import ScalarField, make_grid
from condflow.kle import KLEBasis, synthesize_unconditioned
from condflow.kriging import MeasurementSet, krige, snap_to_cells
from oracles import cell_centers


@pytest.fixture(scope="module")
def reference_projector(basis20, measurements):
    return nullspace_basis(build_data_matrix(basis20, measurements))


@pytest.fixture(scope="module")
def kriged(measurements, fine_cov, fine_grid):
    return krige(measurements, fine_cov, fine_grid)


def test_data_matrix_shape(basis20, measurements):
    A = build_data_matrix(basis20, measurements)
    assert A.shape == (9, 20)
    assert np.all(np.isfinite(A))


def test_data_matrix_definition():
    # 1x1 grid, two modes with phi = (1, 1) and lambda = (4, 1): A = [2, 1]
    g = make_grid(1, 1)
    basis = KLEBasis(g, np.array([4.0, 1.0]), np.array([[1.0, 1.0]]), 1.0)
    ms = MeasurementSet(np.array([[0.5, 0.5]]), np.array([0.0]))
    A = build_data_matrix(basis, ms)
    assert A.tolist() == [[2.0, 1.0]]


def test_too_many_measurements(basis20, fine_grid):
    rng = np.random.default_rng(0)
    # 20 distinct cells on a 16x16 grid
    centers = cell_centers(fine_grid)
    pick = rng.choice(256, size=20, replace=False)
    ms = MeasurementSet(centers[pick], np.zeros(20))
    with pytest.raises(ArgumentError, match="nullspace"):
        build_data_matrix(basis20, ms)


def test_nullspace_axis_aligned():
    Q = nullspace_basis(np.array([[1.0, 0.0]]))
    assert Q.shape == (2, 1)  # rank 1
    P = Q @ Q.T
    assert P == pytest.approx(np.diag([0.0, 1.0]), abs=1e-14)


@pytest.mark.parametrize("shape", [(1, 3), (0, 3)],
                         ids=["one_row", "no_rows"])
def test_nullspace_zero_matrix(shape):
    # no data constrains theta: N(A) is all of R^3
    Q = nullspace_basis(np.zeros(shape))
    assert Q.shape == (3, 3)  # rank 0
    assert np.array_equal(Q, np.eye(3))


def test_reference_scale_projector(basis20, measurements,
                                   reference_projector):
    A = build_data_matrix(basis20, measurements)
    assert A.shape[1] - reference_projector.shape[1] == 9
    assert reference_projector.shape == (20, 11)


def test_projector_algebra(basis20, measurements, reference_projector):
    A = build_data_matrix(basis20, measurements)
    Q = reference_projector
    assert np.max(np.abs(Q.T @ Q - np.eye(11))) <= 1e-10
    assert np.max(np.abs(A @ Q)) <= 1e-10 * np.linalg.norm(A)
    P = Q @ Q.T
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    assert np.max(np.abs(P - P.T)) <= 1e-10


def test_project_idempotent(reference_projector):
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.standard_normal(20)
        once = project(theta, reference_projector)
        twice = project(once, reference_projector)
        assert np.max(np.abs(twice - once)) <= 1e-12


def test_project_contraction(reference_projector):
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.standard_normal(20)
        assert np.linalg.norm(project(theta, reference_projector)) <= \
            np.linalg.norm(theta)


def test_project_drops_constrained_coordinate():
    Q = nullspace_basis(np.array([[1.0, 0.0]]))
    assert project(np.array([3.0, 4.0]), Q) == pytest.approx([0.0, 4.0])


def test_project_residual_orthogonal(basis20, measurements,
                                     reference_projector):
    A = build_data_matrix(basis20, measurements)
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta = rng.standard_normal(20)
        theta_hat = project(theta, reference_projector)
        assert np.max(np.abs(A @ theta_hat)) <= 1e-10
        assert abs((theta - theta_hat) @ theta_hat) <= 1e-10


def test_conditioned_zero_theta_is_kriged(basis20, kriged, reference_projector):
    fld = synthesize_conditioned(basis20, kriged, np.zeros(20),
                                 reference_projector)
    assert np.array_equal(fld.values, kriged.values)


def test_conditioned_synthesis_rejects_kriging_on_another_grid(
        basis20, reference_projector):
    kriged = ScalarField(make_grid(8, 8), np.zeros(64))
    with pytest.raises(ArgumentError,
                       match="mean surface grid differs from basis grid"):
        synthesize_conditioned(basis20, kriged, np.zeros(20),
                               reference_projector)


def test_honoring_1000_draws(basis20, kriged, reference_projector, measurements,
                             fine_grid):
    cells = snap_to_cells(measurements, fine_grid)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        theta = rng.standard_normal(20)
        fld = synthesize_conditioned(basis20, kriged, theta, reference_projector)
        worst = max(worst,
                    np.abs(fld.values[cells] - measurements.values).max())
    assert worst <= 1e-9


def test_conditioned_minus_kriged(basis20, kriged, reference_projector):
    rng = np.random.default_rng(6)
    theta = rng.standard_normal(20)
    fld = synthesize_conditioned(basis20, kriged, theta, reference_projector)
    theta_hat = project(theta, reference_projector)
    pert = synthesize_unconditioned(basis20, theta_hat)
    assert fld.values - kriged.values == pytest.approx(pert.values, abs=1e-12)


def test_nullspace_components_standard_normal(reference_projector):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal((10_000, 20))
    coords = theta @ reference_projector  # components along each q_k
    for k in range(coords.shape[1]):
        p = stats.kstest(coords[:, k], "norm").pvalue
        assert p > 0.01


def _row_reduction_rank(A, tol=1e-10):
    """Independent Gaussian-elimination rank oracle."""
    M = np.array(A, dtype=float)
    rank = 0
    for col in range(M.shape[1]):
        if rank == M.shape[0]:
            break
        pivot = rank + np.argmax(np.abs(M[rank:, col]))
        if abs(M[pivot, col]) <= tol:
            continue
        M[[rank, pivot]] = M[[pivot, rank]]
        M[rank] /= M[rank, col]
        for r in range(M.shape[0]):
            if r != rank:
                M[r] -= M[r, col] * M[rank]
        rank += 1
    return rank


def test_rank_matches_row_reduction_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = rng.integers(1, 5)
        n = rng.integers(m + 1, 7)
        r_true = rng.integers(0, m + 1)
        A = (rng.standard_normal((m, r_true)) @
             rng.standard_normal((r_true, n))) if r_true else np.zeros((m, n))
        Q = nullspace_basis(A)
        assert Q.shape[0] == A.shape[1]
        assert A.shape[1] - Q.shape[1] == _row_reduction_rank(A)


def test_project_shape_mismatch(reference_projector):
    with pytest.raises(ArgumentError,
                       match=r"theta has shape \(7,\), nullspace basis Q "
                             "has 20 rows"):
        project(np.zeros(7), reference_projector)
