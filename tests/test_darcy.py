import numpy as np
import pytest

from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    project,
    synthesize_conditioned,
)
from condflow.covariance import KernelParams, assemble_covariance
from condflow.darcy import (
    BoundaryConditions,
    boundary_fluxes,
    observe_pressure,
    solve_pressure,
    upscale,
)
from condflow.errors import ArgumentError, NumericalError
from condflow.grid import ScalarField, chessboard_mask, make_grid
from condflow.kle import solve_kle, synthesize_unconditioned
from condflow.kriging import MeasurementSet, krige

BC = BoundaryConditions(p_left=1.0, p_right=0.0)


def test_uniform_k_linear_pressure():
    g = make_grid(16, 16)
    p = solve_pressure(ScalarField(g, np.zeros(256)), BC)
    exact = 1.0 - g.cell_centers()[:, 0]
    assert np.max(np.abs(p.values - exact)) <= 1e-12


def test_layered_series_resistance_flux():
    g = make_grid(16, 16)
    x = g.cell_centers()[:, 0]
    k = np.where(x < 0.5, 1.0, 4.0)
    logperm = ScalarField(g, np.log(k))
    p = solve_pressure(logperm, BC)
    q_in, q_out = boundary_fluxes(logperm, p, BC)
    expected = 1.0 / (0.5 / 1.0 + 0.5 / 4.0)  # 1.6
    assert q_in == pytest.approx(expected, abs=1e-10)
    assert q_out == pytest.approx(expected, abs=1e-10)


def _dense_oracle_solve(k2d, hx, hy, bc):
    """Independent loop-based TPFA assembly and solve."""
    ny, nx = k2d.shape
    N = nx * ny
    A = np.zeros((N, N))
    b = np.zeros(N)

    def idx(i, j):
        return j * nx + i

    for j in range(ny):
        for i in range(nx):
            c = idx(i, j)
            if i + 1 < nx:
                T = 2 * hy / (hx * (1 / k2d[j, i] + 1 / k2d[j, i + 1]))
                A[c, c] += T
                A[c, idx(i + 1, j)] -= T
                A[idx(i + 1, j), idx(i + 1, j)] += T
                A[idx(i + 1, j), c] -= T
            if j + 1 < ny:
                T = 2 * hx / (hy * (1 / k2d[j, i] + 1 / k2d[j + 1, i]))
                A[c, c] += T
                A[c, idx(i, j + 1)] -= T
                A[idx(i, j + 1), idx(i, j + 1)] += T
                A[idx(i, j + 1), c] -= T
            if i == 0:
                T = 2 * hy * k2d[j, i] / hx
                A[c, c] += T
                b[c] += T * bc.p_left
            if i == nx - 1:
                T = 2 * hy * k2d[j, i] / hx
                A[c, c] += T
                b[c] += T * bc.p_right
            if j == 0:
                b[c] -= bc.v_bottom * hx
            if j == ny - 1:
                b[c] -= bc.v_top * hx
    return np.linalg.solve(A, b)


def test_checkerboard_maximum_principle_and_oracle():
    g = make_grid(4, 4)
    k = np.where((np.arange(16) + np.arange(16) // 4) % 2 == 0, 1.0, 10.0)
    logperm = ScalarField(g, np.log(k))
    p = solve_pressure(logperm, BC)
    assert np.all(p.values >= 0.0 - 1e-12)
    assert np.all(p.values <= 1.0 + 1e-12)
    oracle = _dense_oracle_solve(k.reshape(4, 4), g.hx, g.hy, BC)
    assert np.max(np.abs(p.values - oracle)) <= 1e-11


@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 3), (3, 7), (1, 6),
                                    (6, 1), (1, 1), (16, 16), (10, 3),
                                    (3, 10)])
def test_random_fields_match_oracle(nx, ny):
    g = make_grid(nx, ny)
    rng = np.random.default_rng(nx * 10 + ny)
    for _ in range(5):
        logperm = ScalarField(g, 1.5 * rng.standard_normal(g.n_cells))
        bc = BoundaryConditions(*rng.uniform(-2.0, 2.0, size=4))
        p = solve_pressure(logperm, bc)
        oracle = _dense_oracle_solve(np.exp(logperm.as_2d()), g.hx, g.hy, bc)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(p.values - oracle)) <= 1e-10 * scale


def test_singular_field_raises_numerical_error():
    # k = exp(-800) underflows to 0: every transmissibility vanishes
    g, coarse = make_grid(4, 4), make_grid(2, 2)
    logperm = ScalarField(g, np.full(16, -800.0))
    with np.errstate(divide="ignore"):
        for solve in (lambda: solve_pressure(logperm, BC),
                      lambda: upscale(logperm, g, coarse)):
            with pytest.raises(NumericalError) as info:
                solve()
            assert (info.value.module, info.value.code) == ("darcy",
                                                            "singular")


def test_upscale_singular_block_in_stack():
    # one 2x2 block of the second field underflows to k = 0; the other
    # blocks and the first field are regular
    fine, coarse = make_grid(16, 16), make_grid(8, 8)
    values = np.zeros((3, fine.ny, fine.nx))
    values[1, 4:6, 10:12] = -800.0
    with np.errstate(divide="ignore"), pytest.raises(NumericalError) as info:
        upscale(ScalarField(fine, values.reshape(3, -1)), fine, coarse)
    assert (info.value.module, info.value.code) == ("darcy", "singular")


def test_overflowing_edge_transmissibility_is_not_a_solution():
    # k = exp(709) is finite, but 2 hy k / hx overflows to inf; the exact
    # answer would be 0.875, 0.625, 0.375, 0.125 along each row
    g = make_grid(4, 4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError) as info:
        solve_pressure(ScalarField(g, np.full(16, 709.0)), BC)
    assert info.value.module == "darcy"
    # upscaling names the overflow rather than a non-finite coarse field,
    # and a good field stacked before the bad one does not hide it
    coarse = make_grid(2, 2)
    for values in (np.full(16, 709.0),
                   np.stack([np.zeros(16), np.full(16, 709.0)])):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError) as info:
            upscale(ScalarField(g, values), g, coarse)
        assert info.value.module == "darcy"
        assert "transmissibility" in str(info.value)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError):
        solve_pressure(ScalarField(g, np.stack([np.zeros(16),
                                                np.full(16, 709.0)])), BC)


def test_maximum_principle_random_fields():
    g = make_grid(8, 8)
    rng = np.random.default_rng(1)
    for _ in range(100):
        logperm = ScalarField(g, rng.standard_normal(64))
        p = solve_pressure(logperm, BC)
        assert np.all(p.values >= -1e-10) and np.all(p.values <= 1.0 + 1e-10)


def test_interior_conservation():
    g = make_grid(8, 8)
    rng = np.random.default_rng(2)
    logperm = ScalarField(g, rng.standard_normal(64))
    p = solve_pressure(logperm, BC)
    k = np.exp(logperm.as_2d())
    pr = p.as_2d()
    Tx = 2 * g.hy / (g.hx * (1 / k[:, :-1] + 1 / k[:, 1:]))
    Ty = 2 * g.hx / (g.hy * (1 / k[:-1, :] + 1 / k[1:, :]))
    Tl = 2 * g.hy * k[:, 0] / g.hx
    Tr = 2 * g.hy * k[:, -1] / g.hx
    net = np.zeros((8, 8))
    net[:, :-1] += Tx * (pr[:, :-1] - pr[:, 1:])
    net[:, 1:] -= Tx * (pr[:, :-1] - pr[:, 1:])
    net[:-1, :] += Ty * (pr[:-1, :] - pr[1:, :])
    net[1:, :] -= Ty * (pr[:-1, :] - pr[1:, :])
    net[:, 0] += Tl * (pr[:, 0] - BC.p_left)
    net[:, -1] += Tr * (pr[:, -1] - BC.p_right)
    q_in, _ = boundary_fluxes(logperm, p, BC)
    assert np.max(np.abs(net)) <= 1e-9 * abs(q_in)


def test_flux_continuity():
    g = make_grid(16, 16)
    rng = np.random.default_rng(3)
    logperm = ScalarField(g, rng.standard_normal(256))
    p = solve_pressure(logperm, BC)
    q_in, q_out = boundary_fluxes(logperm, p, BC)
    assert abs(q_in - q_out) <= 1e-9 * abs(q_in)


def test_permeability_scaling_invariance():
    g = make_grid(8, 8)
    rng = np.random.default_rng(4)
    logperm = rng.standard_normal(64)
    p1 = solve_pressure(ScalarField(g, logperm), BC)
    c = 7.3
    f2 = ScalarField(g, logperm + np.log(c))
    p2 = solve_pressure(f2, BC)
    assert np.max(np.abs(p1.values - p2.values)) <= 1e-10
    q1 = boundary_fluxes(ScalarField(g, logperm), p1, BC)[0]
    q2 = boundary_fluxes(f2, p2, BC)[0]
    assert q2 == pytest.approx(c * q1, rel=1e-10)


def test_upscale_constant():
    fine, coarse = make_grid(16, 16), make_grid(8, 8)
    up = upscale(ScalarField(fine, np.full(256, 0.7)), fine, coarse)
    assert np.max(np.abs(up.values - 0.7)) <= 1e-12


def test_upscale_serial_layers():
    # columns (a, a), (b, b) inside each 2x2 block: x-direction harmonic
    fine, coarse = make_grid(4, 4), make_grid(2, 2)
    a, b = 2.0, 8.0
    k = np.empty((4, 4))
    k[:, 0::2] = a
    k[:, 1::2] = b
    up = upscale(ScalarField(fine, np.log(k).ravel()), fine, coarse)
    keff_x = 2 * a * b / (a + b)
    keff_y = (a + b) / 2  # parallel in y
    expected = 0.5 * (np.log(keff_x) + np.log(keff_y))
    assert np.max(np.abs(up.values - expected)) <= 1e-12


def test_upscale_parallel_layers():
    # rows (a, a), (b, b): x-direction arithmetic mean
    fine, coarse = make_grid(4, 4), make_grid(2, 2)
    a, b = 2.0, 8.0
    k = np.empty((4, 4))
    k[0::2, :] = a
    k[1::2, :] = b
    up = upscale(ScalarField(fine, np.log(k).ravel()), fine, coarse)
    keff_x = (a + b) / 2
    keff_y = 2 * a * b / (a + b)
    expected = 0.5 * (np.log(keff_x) + np.log(keff_y))
    assert np.max(np.abs(up.values - expected)) <= 1e-12


def _oracle_keff_x(kb, hx, hy):
    """Effective x permeability of one block: inflow through the left
    edge of the oracle solution under a unit pressure drop."""
    by, bx = kb.shape
    p = _dense_oracle_solve(kb, hx, hy, BC).reshape(by, bx)
    q = np.sum(2 * hy * kb[:, 0] / hx * (1.0 - p[:, 0]))
    return q * (bx * hx) / (by * hy)


@pytest.mark.parametrize("fine_shape, coarse_shape", [
    ((12, 8), (4, 4)),  # 3x2 blocks
    ((8, 8), (8, 4)),   # blocks one cell wide
    ((8, 8), (4, 8)),   # blocks one cell tall
    ((6, 6), (1, 1)),   # one block
    ((16, 16), (8, 8)),  # 2x2 blocks, as the sampler runs
    ((16, 8), (8, 4)),  # 2x2 blocks of cells twice as tall as wide
])
def test_upscale_random_blocks_match_oracle(fine_shape, coarse_shape):
    # one field, then a stack of 4 fields whose first row is that field
    fine, coarse = make_grid(*fine_shape), make_grid(*coarse_shape)
    bx, by = fine.nx // coarse.nx, fine.ny // coarse.ny
    rng = np.random.default_rng(fine.n_cells + coarse.n_cells)
    values = rng.standard_normal((4, fine.n_cells))
    for logperm in (ScalarField(fine, values[0]), ScalarField(fine, values)):
        ups = upscale(logperm, fine, coarse).values.reshape(
            -1, coarse.ny, coarse.nx)
        for up, k in zip(ups, np.exp(logperm.values.reshape(
                -1, fine.ny, fine.nx))):
            for cj in range(coarse.ny):
                for ci in range(coarse.nx):
                    kb = k[cj * by:(cj + 1) * by, ci * bx:(ci + 1) * bx]
                    keff_x = _oracle_keff_x(kb, fine.hx, fine.hy)
                    keff_y = _oracle_keff_x(kb.T, fine.hy, fine.hx)
                    expected = 0.5 * (np.log(keff_x) + np.log(keff_y))
                    assert abs(up[cj, ci] - expected) <= 1e-10


@pytest.mark.parametrize("fine_shape, coarse_shape", [
    ((16, 16), (8, 8)),
    ((12, 8), (4, 4)),
    ((8, 8), (8, 4)),
    ((8, 8), (4, 8)),
    ((16, 8), (8, 4)),
])
def test_upscale_blocks_are_independent(fine_shape, coarse_shape):
    # the stacked banded system must not couple neighbouring blocks
    fine, coarse = make_grid(*fine_shape), make_grid(*coarse_shape)
    bx, by = fine.nx // coarse.nx, fine.ny // coarse.ny
    rng = np.random.default_rng(7)
    logperm = rng.standard_normal((fine.ny, fine.nx))
    before = upscale(ScalarField(fine, logperm.ravel()), fine, coarse).as_2d()
    for cj, ci in ((0, 0), (coarse.ny // 2, coarse.nx // 2),
                   (coarse.ny - 1, coarse.nx - 1), (0, coarse.nx - 1)):
        changed = logperm.copy()
        changed[cj * by:(cj + 1) * by, ci * bx:(ci + 1) * bx] += 2.0
        after = upscale(ScalarField(fine, changed.ravel()), fine,
                        coarse).as_2d()
        others = np.ones(after.shape, dtype=bool)
        others[cj, ci] = False
        assert after[cj, ci] != before[cj, ci]
        assert np.array_equal(after[others], before[others])


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("hx, hy", [(1 / 16, 1 / 16), (1 / 16, 1 / 8),
                                    (0.3, 0.1)])
def test_closed_form_2x2_matches_band_cholesky_and_oracle(sigma, hx, hy):
    # the closed form against the generic _tpfa + _solve_blocks path and
    # the dense oracle, on lognormal blocks of growing contrast
    from condflow import darcy

    rng = np.random.default_rng(int(10 * sigma))
    kb = np.exp(sigma * rng.standard_normal((200, 2, 2)))
    closed = darcy._keff_x_2x2(kb, hx, hy)
    generic = darcy._keff_x(kb, hx, hy)
    assert np.max(np.abs(closed - generic) / generic) <= 1e-13
    oracle = np.array([_oracle_keff_x(b, hx, hy) for b in kb])
    assert np.max(np.abs(np.log(closed) - np.log(oracle))) <= 1e-10


@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_closed_form_2x2_singular_cell(cell):
    # one impermeable cell zeroes a different pivot in each position; both
    # paths name it singular
    from condflow import darcy

    kb = np.ones((3, 2, 2))
    kb[1][cell] = 0.0
    for keff in (darcy._keff_x_2x2, darcy._keff_x):
        with np.errstate(divide="ignore"), \
                pytest.raises(NumericalError) as info:
            keff(kb, 0.5, 0.25)
        assert (info.value.module, info.value.code) == ("darcy", "singular")


def test_upscale_takes_closed_form_for_2x2_blocks_only(monkeypatch):
    from condflow import darcy

    def fail(*args):
        raise AssertionError("wrong upscaling path")

    fine = make_grid(8, 8)
    field = ScalarField(fine, np.zeros(64))
    with monkeypatch.context() as m:
        m.setattr(darcy, "_solve_blocks", fail)
        upscale(field, fine, make_grid(4, 4))
    monkeypatch.setattr(darcy, "_keff_x_2x2", fail)
    for coarse in (make_grid(2, 2), make_grid(4, 8), make_grid(8, 4)):
        upscale(field, fine, coarse)


@pytest.mark.parametrize("fine_shape, coarse_shape", [
    ((16, 16), (8, 8)),
    ((12, 8), (4, 4)),
    ((5, 3), (5, 3)),
    ((1, 6), (1, 3)),
])
def test_stacked_calls_equal_single_calls(fine_shape, coarse_shape):
    # a stack is solved as one system, but each row must be bitwise the
    # single-field result
    fine, coarse = make_grid(*fine_shape), make_grid(*coarse_shape)
    rng = np.random.default_rng(fine.n_cells)
    stack = ScalarField(fine, 1.5 * rng.standard_normal((4, fine.n_cells)))
    assert stack.as_2d().shape == (4, fine.ny, fine.nx)
    pressures = solve_pressure(stack, BC)
    coarse_fields = upscale(stack, fine, coarse)
    coarse_pressures = solve_pressure(coarse_fields, BC)
    assert pressures.values.shape == (4, fine.n_cells)
    assert coarse_fields.values.shape == (4, coarse.n_cells)
    for i, row in enumerate(stack.values):
        one = ScalarField(fine, row)
        assert np.array_equal(pressures.values[i],
                              solve_pressure(one, BC).values)
        up = upscale(one, fine, coarse)
        assert np.array_equal(coarse_fields.values[i], up.values)
        assert np.array_equal(coarse_pressures.values[i],
                              solve_pressure(up, BC).values)
    mask = chessboard_mask(fine)
    assert np.array_equal(observe_pressure(pressures, mask),
                          pressures.values[:, mask.cells])

    # so is the KL synthesis of a stack of thetas, and their projection
    params = KernelParams()
    basis = solve_kle(assemble_covariance(fine, params), fine, 3)
    ms = MeasurementSet([[0.5, 0.5]], [0.7])
    kriged = krige(ms, params, fine)
    proj = nullspace_basis(build_data_matrix(basis, ms, fine))
    thetas = rng.standard_normal((4, basis.n))
    unconditioned = synthesize_unconditioned(basis, thetas)
    conditioned = synthesize_conditioned(basis, kriged, thetas, proj)
    projected = project(thetas, proj)
    assert conditioned.values.shape == (4, fine.n_cells)
    for i, theta in enumerate(thetas):
        assert np.array_equal(unconditioned.values[i],
                              synthesize_unconditioned(basis, theta).values)
        assert np.array_equal(
            conditioned.values[i],
            synthesize_conditioned(basis, kriged, theta, proj).values)
        assert np.array_equal(projected[i], project(theta, proj))


def test_stacked_residual_is_checked_per_field(monkeypatch):
    # one field that misses its own residual fails the stack, although
    # the relative residual of the whole stack would pass
    from condflow import darcy

    g = make_grid(4, 4)
    original = darcy._solve

    def off_in_last_field(ab, rhs):
        p = original(ab, rhs)
        p[-g.n_cells:] += 2e-10
        return p

    k = np.ones((100, g.ny, g.nx))
    ab, Tl, _ = darcy._tpfa(k, g.hx, g.hy)
    rhs = np.zeros(k.shape)
    rhs[..., :, 0] = Tl * BC.p_left
    rhs = rhs.ravel()
    res = darcy._matvec(ab, off_in_last_field(ab, rhs)) - rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)

    monkeypatch.setattr(darcy, "_solve", off_in_last_field)
    with pytest.raises(NumericalError) as info:
        solve_pressure(ScalarField(g, np.log(k).reshape(100, -1)), BC)
    assert (info.value.module, info.value.code) == ("darcy", "residual")


def test_upscale_non_divisible():
    fine, coarse = make_grid(16, 16), make_grid(7, 8)
    with pytest.raises(ArgumentError):
        upscale(ScalarField(fine, np.zeros(256)), fine, coarse)


def test_observe_pressure_chessboard(fine_grid):
    mask = chessboard_mask(fine_grid)
    p = ScalarField(fine_grid, np.arange(256.0))
    obs = observe_pressure(p, mask)
    assert obs.size == 128
    obs2 = observe_pressure(p, mask)
    assert np.array_equal(obs, obs2)


def test_observe_constant(fine_grid):
    mask = chessboard_mask(fine_grid)
    p = ScalarField(fine_grid, np.full(256, 0.25))
    assert np.all(observe_pressure(p, mask) == 0.25)


def test_observe_grid_mismatch(fine_grid):
    mask = chessboard_mask(make_grid(8, 8))
    p = ScalarField(fine_grid, np.zeros(256))
    with pytest.raises(ArgumentError):
        observe_pressure(p, mask)


def test_coarse_fine_coherence(basis20, fine_grid, coarse_grid):
    # smooth single-mode fields: coarse pressures track fine pressures
    cmask = chessboard_mask(coarse_grid)
    bx = fine_grid.nx // coarse_grid.nx
    by = fine_grid.ny // coarse_grid.ny
    for mode in range(3):
        theta = np.zeros(20)
        theta[mode] = 1.5
        fld = synthesize_unconditioned(basis20, theta)
        pf = solve_pressure(fld, BC)
        pc = solve_pressure(upscale(fld, fine_grid, coarse_grid), BC)
        # prolong coarse pressure to the fine grid by injection
        prolonged = np.repeat(np.repeat(pc.as_2d(), by, axis=0), bx, axis=1)
        r = np.corrcoef(prolonged.ravel(), pf.values)[0, 1]
        assert r >= 0.95
