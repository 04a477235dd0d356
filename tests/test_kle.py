import numpy as np
import pytest

from condflow.covariance import KernelParams, assemble_covariance
from condflow.errors import ArgumentError
from condflow.grid import make_grid
from condflow.kle import _fix_signs, solve_kle, synthesize_unconditioned
from oracles import dense_covariance, dense_spectrum, energy_fraction


def test_single_cell_problem():
    g = make_grid(1, 1)
    cov = assemble_covariance(g, KernelParams(sigma2=1.0, lx=0.4, ly=0.8))
    basis = solve_kle(cov, g, 1)
    # hx * hy * sigma2 = 1 on the unit cell; constant unit eigenfunction
    assert basis.lambdas[0] == pytest.approx(1.0, rel=1e-14)
    assert basis.phi[:, 0] == pytest.approx(1.0, rel=1e-14)


def test_reference_setup_energy(basis20):
    assert basis20.energy >= 0.95


def test_trace_identity(basis20, kernel_params):
    # the full spectrum's sum, the retained mass over the energy fraction,
    # is trace(hx hy R) = hx hy N sigma2 = sigma2
    assert np.sum(basis20.lambdas) / basis20.energy == pytest.approx(
        kernel_params.sigma2, rel=1e-12)


def test_eigenvalues_descending_positive(basis20):
    assert np.all(basis20.lambdas > 0)
    assert np.all(np.diff(basis20.lambdas) <= 0)


def test_orthonormality(basis20, fine_grid):
    w = fine_grid.hx * fine_grid.hy
    G = w * basis20.phi.T @ basis20.phi
    assert np.max(np.abs(G - np.eye(basis20.n))) <= 1e-8


def test_covariance_reconstruction(basis20, fine_grid, kernel_params):
    # the dense oracle's full spectrum reconstructs the kernel exactly
    dense = dense_covariance(fine_grid, kernel_params)
    evals, phi = dense_spectrum(fine_grid, kernel_params)
    full = (phi * evals) @ phi.T
    assert np.max(np.abs(full - dense)) <= 1e-10
    # truncation error is bounded by the tail mass times the squared
    # sup-norm of the discarded eigenfunctions (eigenfunctions are not
    # uniformly bounded by 1, so the tail mass alone is not a bound)
    approx = (basis20.phi * basis20.lambdas) @ basis20.phi.T
    err = np.max(np.abs(approx - dense))
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


def _simple(evals, n, gap=1e-3):
    """Which of the n leading eigenvalues are apart from both neighbours
    by more than ``gap`` relative."""
    rel = -np.diff(evals[:n + 1]) / evals[:n]
    return np.minimum(np.r_[np.inf, rel[:-1]], rel) > gap


@pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 0.4, 0.8),
                                            (32, 32, 0.4, 0.8),
                                            (12, 20, 0.4, 0.8),
                                            (16, 16, 0.8, 0.3)],
                         ids=["default", "32x32", "12x20", "lx>ly"])
def test_separable_basis_matches_dense_oracle(nx, ny, lx, ly):
    g = make_grid(nx, ny)
    params = KernelParams(sigma2=1.0, lx=lx, ly=ly)
    cov = assemble_covariance(g, params)
    evals, phi = dense_spectrum(g, params)
    w = g.hx * g.hy
    basis = solve_kle(cov, g, 20)
    assert np.max(np.abs(basis.lambdas - evals[:20]) / evals[:20]) <= 1e-10
    # the retained subspace, through its quadrature-weighted projector
    P = w * basis.phi @ basis.phi.T
    P_dense = w * phi[:, :20] @ phi[:, :20].T
    assert np.max(np.abs(P - P_dense)) <= 1e-10
    # each eigenfunction of a simple eigenvalue, under the same sign rule
    simple = _simple(evals, 20)
    assert simple.sum() >= 4
    assert np.max(np.abs(basis.phi[:, simple] - phi[:, :20][:, simple])) \
        <= 1e-9
    # the energy of the 20 retained modes
    frac = np.cumsum(evals) / np.sum(evals)
    assert basis.energy == pytest.approx(frac[19], rel=1e-12)


def test_tied_pair_cut_keeps_the_lower_flat_index():
    # an isotropic kernel on a square grid: modes (a, b) and (b, a) have
    # exactly equal eigenvalues. A cut between them keeps the one with
    # the lower flat index a*nx + b, the one smoother along y
    g = make_grid(8, 8)
    cov = assemble_covariance(g, KernelParams(sigma2=1.0, lx=0.5, ly=0.5))
    three = solve_kle(cov, g, 3)
    assert three.lambdas[1] == three.lambdas[2] < three.lambdas[0]
    two = solve_kle(cov, g, 2)
    assert np.array_equal(two.phi, three.phi[:, :2])
    assert np.array_equal(two.lambdas, three.lambdas[:2])
    # mode 1 is (a, b) = (0, 1): even along y, odd along x; mode 2 the
    # mirror image (1, 0)
    for k, (odd_axis, even_axis) in ((1, (1, 0)), (2, (0, 1))):
        f = three.phi[:, k].reshape(g.ny, g.nx)
        np.testing.assert_allclose(np.flip(f, axis=even_axis), f,
                                   atol=1e-12)
        np.testing.assert_allclose(np.flip(f, axis=odd_axis), -f,
                                   atol=1e-12)


def test_sign_rule_ignores_one_ulp_between_mirrored_maxima():
    # mirror cells 1 and 3 share the largest magnitude up to one ulp;
    # which of them is larger must not decide the column's sign
    big = np.nextafter(1.0, 2.0)
    for col in ([0.5, -1.0, 0.2, big], [0.5, -big, 0.2, 1.0],
                [0.5, 1.0, 0.2, -big], [0.5, big, 0.2, -1.0]):
        fixed = _fix_signs(np.array(col)[:, None])[:, 0]
        assert fixed[1] > 0.0
        assert np.array_equal(np.abs(fixed), np.abs(col))
