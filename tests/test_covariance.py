from dataclasses import replace

import numpy as np
import pytest

from condflow.covariance import KernelParams, assemble_covariance
from condflow.errors import ArgumentError
from condflow.grid import make_grid
from oracles import dense_covariance, kernel


def test_zero_distance(kernel_params):
    assert kernel((0.3, 0.7), (0.3, 0.7), kernel_params) == 1.0


def test_known_value(kernel_params):
    # distance 0.4 along x with lx = 0.4 gives exp(-1/2)
    v = kernel((0.0, 0.0), (0.4, 0.0), kernel_params)
    assert v == pytest.approx(np.exp(-0.5), rel=1e-15)


def test_symmetry_random(kernel_params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.random(2), rng.random(2)
        assert kernel(a, b, kernel_params) == kernel(b, a, kernel_params)


def test_param_validation(kernel_params):
    for bad in [dict(sigma2=0), dict(lx=-1.0), dict(ly=0.0),
                dict(sigma2=np.nan), dict(lx=np.nan), dict(ly=np.nan),
                dict(sigma2=np.inf), dict(ly=np.inf)]:
        with pytest.raises(ArgumentError):
            replace(kernel_params, **bad)


def test_assemble_1x1(kernel_params):
    cov = assemble_covariance(make_grid(1, 1), kernel_params)
    assert cov.sigma2 == kernel_params.sigma2
    assert cov.rx.shape == cov.ry.shape == (1, 1)
    assert cov.rx[0, 0] == cov.ry[0, 0] == 1.0


def test_assemble_2x1(kernel_params):
    # centers 0.5 apart in x: off-diagonal exp(-0.25 / (2 * 0.16)); one
    # row, so the y factor is the 1x1 unit matrix
    cov = assemble_covariance(make_grid(2, 1), kernel_params)
    expected = np.exp(-0.25 / (2 * 0.4**2))
    assert cov.rx[0, 1] == pytest.approx(expected, rel=1e-15)
    assert cov.rx[1, 0] == cov.rx[0, 1]
    assert cov.ry.shape == (1, 1)


def test_diagonal_is_sigma2(fine_cov, kernel_params):
    assert fine_cov.sigma2 == kernel_params.sigma2
    assert np.all(np.diag(fine_cov.rx) == 1.0)
    assert np.all(np.diag(fine_cov.ry) == 1.0)


def test_exact_symmetry(fine_cov):
    for r in (fine_cov.rx, fine_cov.ry):
        assert np.array_equal(r, r.T)


def test_positive_semidefinite(fine_cov):
    for r in (fine_cov.rx, fine_cov.ry):
        assert np.linalg.eigvalsh(r)[0] >= -1e-8 * np.trace(r)


@pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 0.4, 0.8),
                                            (12, 20, 0.4, 0.8),
                                            (5, 3, 0.8, 0.3)])
def test_kronecker_factors_match_dense_kernel(nx, ny, lx, ly):
    # cells are row-major with j outer, so the dense matrix over the
    # cell centers is sigma2 * kron(ry, rx), to rounding of the exponent
    g = make_grid(nx, ny)
    params = KernelParams(sigma2=1.7, lx=lx, ly=ly)
    cov = assemble_covariance(g, params)
    dense = dense_covariance(g, params)
    np.testing.assert_allclose(cov.sigma2 * np.kron(cov.ry, cov.rx), dense,
                               rtol=1e-15, atol=0.0)


def test_monotone_decay_along_axis(kernel_params):
    x = np.linspace(0.0, 1.0, 11)
    vals = [kernel((0.0, 0.0), (xi, 0.0), kernel_params) for xi in x]
    assert np.all(np.diff(vals) < 0)
    vals_y = [kernel((0.0, 0.0), (0.0, xi), kernel_params) for xi in x]
    assert np.all(np.diff(vals_y) < 0)
