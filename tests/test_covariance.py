from dataclasses import replace

import numpy as np
import pytest

from condflow.covariance import KernelParams, _kernel_1d, assemble_covariance
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
                dict(sigma2=np.inf), dict(ly=np.inf),
                # ints square past the largest float, or are past it
                dict(lx=10**200), dict(ly=10**400)]:
        with pytest.raises(ArgumentError):
            replace(kernel_params, **bad)


def _factors(grid, params):
    """The unit-variance 1-D kernels Rx and Ry the covariance factors."""
    return (_kernel_1d(grid.nx, grid.hx, params.lx),
            _kernel_1d(grid.ny, grid.hy, params.ly))


def test_assemble_1x1(kernel_params):
    g = make_grid(1, 1)
    cov = assemble_covariance(g, kernel_params)
    assert cov.sigma2 == kernel_params.sigma2
    rx, ry = _factors(g, kernel_params)
    assert rx.shape == ry.shape == (1, 1)
    assert rx[0, 0] == ry[0, 0] == 1.0
    assert cov.nu.tolist() == cov.mu.tolist() == [1.0]


def test_assemble_2x1(kernel_params):
    # centers 0.5 apart in x: off-diagonal exp(-0.25 / (2 * 0.16)); one
    # row, so the y factor is the 1x1 unit matrix
    rx, ry = _factors(make_grid(2, 1), kernel_params)
    expected = np.exp(-0.25 / (2 * 0.4**2))
    assert rx[0, 1] == pytest.approx(expected, rel=1e-15)
    assert rx[1, 0] == rx[0, 1]
    assert ry.shape == (1, 1)


def test_diagonal_is_sigma2(fine_grid, fine_cov, kernel_params):
    assert fine_cov.sigma2 == kernel_params.sigma2
    for r in _factors(fine_grid, kernel_params):
        assert np.all(np.diag(r) == 1.0)


def test_exact_symmetry(fine_grid, kernel_params):
    for r in _factors(fine_grid, kernel_params):
        assert np.array_equal(r, r.T)


def test_positive_semidefinite(fine_grid, kernel_params):
    for r in _factors(fine_grid, kernel_params):
        assert np.linalg.eigvalsh(r)[0] >= -1e-8 * np.trace(r)


@pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 0.4, 0.8),
                                            (12, 20, 0.4, 0.8),
                                            (5, 3, 0.8, 0.3)])
def test_kronecker_factors_match_dense_kernel(nx, ny, lx, ly):
    # cells are row-major with j outer, so the dense matrix over the
    # cell centers is sigma2 * kron(ry, rx), to rounding of the exponent
    g = make_grid(nx, ny)
    params = KernelParams(sigma2=1.7, lx=lx, ly=ly)
    rx, ry = _factors(g, params)
    dense = dense_covariance(g, params)
    np.testing.assert_allclose(params.sigma2 * np.kron(ry, rx), dense,
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n, length", [(16, 0.4), (16, 0.8), (64, 0.4),
                                       (192, 0.05), (5, 1e6)])
def test_spectra_rebuild_the_weighted_factors(n, length):
    # u diag(nu) u^T rebuilds h * R to 3.1e-16 at most over these cases
    # (64 cells at 0.4), and u^T u is the identity to 3.1e-15 (192 cells);
    # the bounds leave a factor of 3 for other LAPACK builds
    g = make_grid(n, 1)
    cov = assemble_covariance(g, KernelParams(1.0, length, 1.0))
    weighted = g.hx * _kernel_1d(n, g.hx, length)
    rebuilt = (cov.ux * cov.nu) @ cov.ux.T
    assert np.abs(rebuilt - weighted).max() <= 1e-15
    assert np.all(np.diff(cov.nu) <= 0.0)
    assert np.abs(cov.ux.T @ cov.ux - np.eye(n)).max() <= 1e-14


def test_monotone_decay_along_axis(kernel_params):
    x = np.linspace(0.0, 1.0, 11)
    vals = [kernel((0.0, 0.0), (xi, 0.0), kernel_params) for xi in x]
    assert np.all(np.diff(vals) < 0)
    vals_y = [kernel((0.0, 0.0), (0.0, xi), kernel_params) for xi in x]
    assert np.all(np.diff(vals_y) < 0)
