import numpy as np
import pytest

from condflow.covariance import KernelParams, assemble_covariance
from condflow.errors import ArgumentError
from condflow.grid import make_grid
from condflow.kle import (
    energy_fraction,
    full_spectrum,
    solve_kle,
    synthesize_unconditioned,
)


def test_single_cell_problem():
    g = make_grid(1, 1)
    cov = assemble_covariance(g, KernelParams(sigma2=1.0, lx=0.4, ly=0.8))
    basis = solve_kle(cov, g, 1)
    # hx * hy * sigma2 = 1 on the unit cell; constant unit eigenfunction
    assert basis.lambdas[0] == pytest.approx(1.0, rel=1e-14)
    assert basis.phi[:, 0] == pytest.approx(1.0, rel=1e-14)


def test_reference_setup_energy(basis20):
    assert basis20.energy >= 0.95


def test_trace_identity(fine_cov, fine_grid, kernel_params):
    evals, _ = full_spectrum(fine_cov, fine_grid)
    # sum of eigenvalues = trace(hx hy R) = hx hy N sigma2 = sigma2
    assert np.sum(evals) == pytest.approx(kernel_params.sigma2, rel=1e-12)


def test_eigenvalues_descending_positive(basis20):
    assert np.all(basis20.lambdas > 0)
    assert np.all(np.diff(basis20.lambdas) <= 0)


def test_orthonormality(basis20, fine_grid):
    w = fine_grid.hx * fine_grid.hy
    G = w * basis20.phi.T @ basis20.phi
    assert np.max(np.abs(G - np.eye(basis20.n))) <= 1e-8


def test_covariance_reconstruction(basis20, fine_cov, fine_grid):
    # full spectrum reconstructs the kernel exactly
    evals, phi = full_spectrum(fine_cov, fine_grid)
    full = (phi * evals) @ phi.T
    assert np.max(np.abs(full - fine_cov)) <= 1e-10
    # truncation error is bounded by the tail mass times the squared
    # sup-norm of the discarded eigenfunctions (eigenfunctions are not
    # uniformly bounded by 1, so the tail mass alone is not a bound)
    approx = (basis20.phi * basis20.lambdas) @ basis20.phi.T
    err = np.max(np.abs(approx - fine_cov))
    tail_sup2 = np.max(np.abs(phi[:, basis20.n:]), axis=0) ** 2
    bound = np.sum(evals[basis20.n:] * tail_sup2)
    assert err <= bound + 1e-6
    assert err <= 1e-4  # concrete smallness at the reference setup


def test_empirical_variance(basis20):
    rng = np.random.default_rng(11)
    theta = rng.standard_normal((10_000, basis20.n))
    samples = theta @ (basis20.sqrt_lambdas[:, None] * basis20.phi.T)
    target = np.sum(basis20.lambdas * basis20.phi**2, axis=1)
    ratio = samples.var(axis=0) / target
    assert np.all(np.abs(ratio - 1.0) < 0.10)


def test_determinism(fine_cov, fine_grid, basis20):
    again = solve_kle(fine_cov, fine_grid, 20)
    assert np.array_equal(again.lambdas, basis20.lambdas)
    assert np.array_equal(again.phi, basis20.phi)


def test_mode_count_errors(fine_cov, fine_grid):
    with pytest.raises(ArgumentError):
        solve_kle(fine_cov, fine_grid, 0)
    with pytest.raises(ArgumentError):
        solve_kle(fine_cov, fine_grid, 257)


def test_energy_fraction_basics():
    assert energy_fraction(np.array([3.0, 1.0]), 1) == 0.75
    assert energy_fraction(np.array([3.0, 1.0]), 2) == 1.0
    assert energy_fraction(np.array([3.0, 1.0]), 0) == 0.0
    with pytest.raises(ArgumentError):
        energy_fraction(np.array([]), 1)


def test_energy_threshold_mode(fine_cov, fine_grid):
    # the threshold keeps the fewest modes whose cumulative fraction of the
    # full spectrum reaches it, the basis of that fixed count bit for bit
    evals, _ = full_spectrum(fine_cov, fine_grid)
    frac = np.cumsum(evals) / np.sum(evals)
    for threshold, n in ((0.95, 4), (0.999, 11), (0.9999999, 30)):
        assert int(np.searchsorted(frac, threshold) + 1) == n
        basis = solve_kle(fine_cov, fine_grid, 1, threshold)
        fixed = solve_kle(fine_cov, fine_grid, n)
        assert basis.n == n
        assert np.array_equal(basis.lambdas, fixed.lambdas)
        assert np.array_equal(basis.phi, fixed.phi)
        assert basis.energy == fixed.energy >= threshold


def test_synthesize_zero(basis20):
    fld = synthesize_unconditioned(basis20, np.zeros(20))
    assert np.all(fld.values == 0.0)


def test_synthesize_single_mode(basis20):
    e1 = np.zeros(20)
    e1[0] = 1.0
    fld = synthesize_unconditioned(basis20, e1)
    expected = np.sqrt(basis20.lambdas[0]) * basis20.phi[:, 0]
    assert fld.values == pytest.approx(expected, abs=1e-15)


def test_synthesize_linearity(basis20):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(20), rng.standard_normal(20)
    lhs = synthesize_unconditioned(basis20, a + b).values
    rhs = (synthesize_unconditioned(basis20, a).values
           + synthesize_unconditioned(basis20, b).values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_synthesize_length_mismatch(basis20):
    with pytest.raises(ArgumentError):
        synthesize_unconditioned(basis20, np.zeros(7))
