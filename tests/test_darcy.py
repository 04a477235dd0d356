import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    project,
    synthesize_conditioned,
)
from condflow.config import StudyConfig
from condflow.covariance import assemble_covariance
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
from oracles import cell_centers

BC = BoundaryConditions(p_left=1.0, p_right=0.0)


def test_uniform_k_linear_pressure():
    g = make_grid(16, 16)
    p = solve_pressure(ScalarField(g, np.zeros(256)), BC)
    exact = 1.0 - cell_centers(g)[:, 0]
    assert np.max(np.abs(p.values - exact)) <= 1e-12


def test_layered_series_resistance_flux():
    g = make_grid(16, 16)
    x = cell_centers(g)[:, 0]
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
        # four draws, two of them unused: each case's fields stay fixed
        bc = BoundaryConditions(*rng.uniform(-2.0, 2.0, size=4)[:2])
        p = solve_pressure(logperm, bc)
        oracle = _dense_oracle_solve(np.exp(logperm.as_2d()), g.hx, g.hy, bc)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(p.values - oracle)) <= 1e-10 * scale


def _upper_band_solve(bands, rhs):
    """The stack's system solved as one unpadded matrix in LAPACK's upper
    banded storage: the reference for ``darcy._solve``."""
    from scipy.linalg.lapack import dpbsv

    diag, tx, ty = bands
    n = diag.size
    nx = ty.size - n
    # row c of ab holds column c of the +nx, +1 and main diagonals; the
    # +1 band first, as the two share a column when nx = 1
    ab = np.zeros((n, nx + 1))
    np.subtract(0.0, tx[:n], out=ab[:, -2])
    np.subtract(0.0, ty[:n], out=ab[:, 0])
    ab[:, -1] = diag
    _, x, info = dpbsv(ab[:, max(nx + 1 - n, 0):].T, rhs, overwrite_ab=1)
    assert info == 0
    return x


@pytest.mark.parametrize("nx, ny, count, hx, hy", [
    (8, 8, 8, 1 / 8, 1 / 8),
    (16, 16, 8, 1 / 16, 1 / 16),
    (32, 32, 8, 1 / 32, 1 / 32),
    (1, 6, 3, 1.0, 1 / 6),  # nx = 1
    (6, 1, 3, 1 / 6, 1.0),  # one row: u = cells - 1 < nx
    (1, 1, 3, 1.0, 1.0),
    (4, 4, 20, 1 / 16, 1 / 8),  # generic upscaling blocks of 4x4 cells
    (2, 1, 20, 1 / 16, 1 / 8),  # and of 2x1 cells
], ids=["8x8", "16x16", "32x32", "1x6", "6x1", "1x1", "blocks4x4",
        "blocks2x1"])
def test_solve_matches_upper_band_reference(nx, ny, count, hx, hy):
    # the lower-storage solve against one upper-storage call over the
    # whole stack, on a stack of lognormal fields with p = 1 on the left
    # edge and 0 on the right, as solve_pressure and _keff_x pose it
    from condflow import darcy

    rng = np.random.default_rng(nx * 100 + ny)
    k = np.exp(1.5 * rng.standard_normal((count, ny, nx)))
    bands, Tl, _ = darcy._tpfa(k, hx, hy)
    rhs = np.zeros((count * ny, nx))
    rhs[:, 0] = Tl
    rhs = rhs.ravel()
    expected = _upper_band_solve(bands, rhs)
    got = darcy._solve(bands, rhs, nx * ny)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("nx, ny", [(32, 32), (65, 9)],
                         ids=["32x32", "65x9"])
def test_solve_does_not_depend_on_blas_threads(tmp_path, nx, ny):
    # one fixed stack of 8 fields, each of bandwidth at least 32, solved
    # under one and two OpenBLAS threads gives bitwise the same pressures
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from condflow.darcy import BoundaryConditions, solve_pressure\n"
        "from condflow.grid import ScalarField, make_grid\n"
        f"g = make_grid({nx}, {ny})\n"
        "rng = np.random.default_rng(2024)\n"
        "field = ScalarField(g, 1.5 * rng.standard_normal((8, g.n_cells)))\n"
        "p = solve_pressure(field, BoundaryConditions()).values\n"
        "print(hashlib.sha256(p.tobytes()).hexdigest())\n"
    )
    src = str(Path(inspect.getfile(solve_pressure)).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split()[-1])
    assert digests[0] == digests[1]


def test_singular_field_raises_numerical_error():
    # k = exp(-800) underflows to 0: every transmissibility vanishes
    g, coarse = make_grid(4, 4), make_grid(2, 2)
    logperm = ScalarField(g, np.full(16, -800.0))
    with np.errstate(divide="ignore"):
        for solve in (lambda: solve_pressure(logperm, BC),
                      lambda: upscale(logperm, coarse)):
            with pytest.raises(NumericalError) as info:
                solve()
            assert (info.value.module, info.value.code) == ("darcy",
                                                            "singular")
    # one impermeable cell of the second field of a stack zeroes its own
    # pivot: the message names that field and cell, whether the stack is
    # one call (4x4) or one call per field (65x9, of bandwidth 65)
    for g, cell in ((g, 6), (make_grid(65, 9), 400)):
        values = np.zeros((3, g.n_cells))
        values[1, cell] = -800.0
        with (np.errstate(divide="ignore"),
              pytest.raises(NumericalError) as info):
            solve_pressure(ScalarField(g, values), BC)
        assert (info.value.module, info.value.code) == ("darcy", "singular")
        assert f"cell {cell} of field 1 " in str(info.value)


def test_upscale_singular_block_in_stack():
    # one 2x2 block of the second field underflows to k = 0; the other
    # blocks and the first field are regular
    fine, coarse = make_grid(16, 16), make_grid(8, 8)
    values = np.zeros((3, fine.ny, fine.nx))
    values[1, 4:6, 10:12] = -800.0
    with np.errstate(divide="ignore"), pytest.raises(NumericalError) as info:
        upscale(ScalarField(fine, values.reshape(3, -1)), coarse)
    assert (info.value.module, info.value.code) == ("darcy", "singular")


@pytest.mark.parametrize("coarse_shape", [(8, 8), (4, 4)])
def test_upscale_underflowed_keff_is_singular(coarse_shape):
    # k = exp(-740) is subnormal, not 0: the 2x2 closed form keeps its
    # pivots > 0 but its keff underflows to 0; 4x4 blocks have a zero
    # interior pivot. Both name the block singular, with no numpy warning.
    fine = make_grid(16, 16)
    with pytest.raises(NumericalError) as info:
        upscale(ScalarField(fine, np.full(256, -740.0)),
                make_grid(*coarse_shape))
    assert (info.value.module, info.value.code) == ("darcy", "singular")


def test_boundary_fluxes_overflowing_permeability():
    # exp(710) overflows; the flux check names it as solve_pressure does
    g = make_grid(4, 4)
    logperm = ScalarField(g, np.full(16, 710.0))
    with pytest.raises(ArgumentError) as info:
        boundary_fluxes(logperm, ScalarField(g, np.zeros(16)), BC)
    assert (info.value.module, info.value.code) == ("darcy", "argument")


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
            upscale(ScalarField(g, values), coarse)
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
    up = upscale(ScalarField(fine, np.full(256, 0.7)), coarse)
    assert np.max(np.abs(up.values - 0.7)) <= 1e-12


def test_upscale_serial_layers():
    # columns (a, a), (b, b) inside each 2x2 block: x-direction harmonic
    fine, coarse = make_grid(4, 4), make_grid(2, 2)
    a, b = 2.0, 8.0
    k = np.empty((4, 4))
    k[:, 0::2] = a
    k[:, 1::2] = b
    up = upscale(ScalarField(fine, np.log(k).ravel()), coarse)
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
    up = upscale(ScalarField(fine, np.log(k).ravel()), coarse)
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
        ups = upscale(logperm, coarse).values.reshape(
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
    ((16, 16), (4, 4)),  # 4x4 blocks: x and y in one dpbsv stack
])
def test_upscale_blocks_are_independent(fine_shape, coarse_shape):
    # the stacked banded system must not couple neighbouring blocks
    fine, coarse = make_grid(*fine_shape), make_grid(*coarse_shape)
    bx, by = fine.nx // coarse.nx, fine.ny // coarse.ny
    rng = np.random.default_rng(7)
    logperm = rng.standard_normal((fine.ny, fine.nx))
    before = upscale(ScalarField(fine, logperm.ravel()), coarse).as_2d()
    for cj, ci in ((0, 0), (coarse.ny // 2, coarse.nx // 2),
                   (coarse.ny - 1, coarse.nx - 1), (0, coarse.nx - 1)):
        changed = logperm.copy()
        changed[cj * by:(cj + 1) * by, ci * bx:(ci + 1) * bx] += 2.0
        after = upscale(ScalarField(fine, changed.ravel()), coarse).as_2d()
        others = np.ones(after.shape, dtype=bool)
        others[cj, ci] = False
        assert after[cj, ci] != before[cj, ci]
        assert np.array_equal(after[others], before[others])


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("hx, hy", [(1 / 16, 1 / 16), (1 / 16, 1 / 8),
                                    (0.3, 0.1)])
def test_closed_form_2x2_matches_band_cholesky_and_oracle(sigma, hx, hy):
    # the closed form against the generic _tpfa + _solve path and
    # the dense oracle, on lognormal blocks of growing contrast
    from condflow import darcy

    rng = np.random.default_rng(int(10 * sigma))
    kb = np.exp(sigma * rng.standard_normal((200, 2, 2)))
    closed = darcy._keff_x_2x2(kb.transpose(1, 2, 0), hx, hy)
    generic = darcy._keff_x(kb, hx, hy)
    assert np.max(np.abs(closed - generic) / generic) <= 1e-13
    oracle = np.array([_oracle_keff_x(b, hx, hy) for b in kb])
    assert np.max(np.abs(np.log(closed) - np.log(oracle))) <= 1e-10


def _exact_keff_x(kb, hx, hy):
    """``_oracle_keff_x`` in exact rational arithmetic on the float
    inputs: dense TPFA assembly, Gaussian elimination without pivoting
    (the matrix is SPD), and the outflow through the right edge."""
    by, bx = kb.shape
    hx, hy = Fraction(hx), Fraction(hy)
    k = [[Fraction(float(v)) for v in row] for row in kb]
    n = bx * by
    A = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n

    def couple(c, o, T):
        A[c][c] += T
        A[o][o] += T
        A[c][o] -= T
        A[o][c] -= T

    for j in range(by):
        for i in range(bx):
            c = j * bx + i
            if i + 1 < bx:
                couple(c, c + 1,
                       2 * hy / (hx * (1 / k[j][i] + 1 / k[j][i + 1])))
            if j + 1 < by:
                couple(c, c + bx,
                       2 * hx / (hy * (1 / k[j][i] + 1 / k[j + 1][i])))
            if i == 0:  # p = 1 on the left face
                A[c][c] += 2 * hy * k[j][i] / hx
                b[c] += 2 * hy * k[j][i] / hx
            if i == bx - 1:  # p = 0 on the right face
                A[c][c] += 2 * hy * k[j][i] / hx
    for col in range(n):
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for cc in range(col, n):
                A[r][cc] -= f * A[col][cc]
            b[r] -= f * b[col]
    p = [Fraction(0)] * n
    for r in reversed(range(n)):
        p[r] = (b[r] - sum(A[r][cc] * p[cc] for cc in range(r + 1, n))) \
            / A[r][r]
    q = sum(2 * hy * k[j][-1] / hx * p[j * bx + bx - 1] for j in range(by))
    return float(q * (bx * hx) / (by * hy))


@pytest.mark.parametrize("shape", [(4, 4), (3, 2), (2, 3), (1, 4)])
@pytest.mark.parametrize("hx, hy", [(1 / 16, 1 / 16), (30 / 16, 1 / 16),
                                    (1 / 16, 30 / 16)])
def test_generic_keff_matches_exact_elimination(shape, hx, hy):
    # the dpbsv path of any block shape against exact rational
    # elimination, on lognormal blocks with sigma = 4 and stretched
    # cells, where the float dense oracle loses digits of its own
    from condflow import darcy

    rng = np.random.default_rng(sum(shape))
    kb = np.exp(4.0 * rng.standard_normal((10,) + shape))
    generic = darcy._keff_x(kb, hx, hy)
    exact = np.array([_exact_keff_x(b, hx, hy) for b in kb])
    assert np.max(np.abs(generic - exact) / exact) <= 1e-10


@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_closed_form_2x2_singular_cell(cell):
    # one impermeable cell zeroes a different pivot in each position; both
    # paths name it singular
    from condflow import darcy

    kb = np.ones((3, 2, 2))
    kb[1][cell] = 0.0
    for keff, blocks in ((darcy._keff_x_2x2, kb.transpose(1, 2, 0)),
                         (darcy._keff_x, kb)):
        with np.errstate(divide="ignore"), \
                pytest.raises(NumericalError) as info:
            keff(blocks, 0.5, 0.25)
        assert (info.value.module, info.value.code) == ("darcy", "singular")


def test_upscale_takes_closed_form_for_2x2_blocks_only(monkeypatch):
    from condflow import darcy

    def fail(*args):
        raise AssertionError("wrong upscaling path")

    fine = make_grid(8, 8)
    field = ScalarField(fine, np.zeros(64))
    with monkeypatch.context() as m:
        m.setattr(darcy, "_keff_x", fail)
        upscale(field, make_grid(4, 4))
    monkeypatch.setattr(darcy, "_keff_x_2x2", fail)
    for coarse in (make_grid(2, 2), make_grid(4, 8), make_grid(8, 4)):
        upscale(field, coarse)


@pytest.mark.parametrize("fine_shape, coarse_shape", [
    ((16, 16), (8, 8)),
    ((12, 8), (4, 4)),
    ((5, 3), (5, 3)),
    ((1, 6), (1, 3)),
    ((16, 16), (4, 4)),
    ((6, 1), (3, 1)),
    ((32, 32), (16, 16)),
    ((16, 8), (8, 4)),
    ((8, 16), (4, 8)),
    ((64, 4), (32, 2)),
    ((65, 9), (5, 3)),
    ((100, 7), (50, 7)),
    ((70, 3), (35, 3)),
])
def test_stacked_calls_equal_single_calls(fine_shape, coarse_shape):
    # a stack is solved as one system, but each row must be bitwise the
    # single-field result; on anisotropic cells too, and on grids wider
    # than 32 cells, whose band LAPACK factors in blocks of 32 columns
    fine, coarse = make_grid(*fine_shape), make_grid(*coarse_shape)
    rng = np.random.default_rng(fine.n_cells)
    stack = ScalarField(fine, 1.5 * rng.standard_normal((4, fine.n_cells)))
    assert stack.as_2d().shape == (4, fine.ny, fine.nx)
    pressures = solve_pressure(stack, BC)
    coarse_fields = upscale(stack, coarse)
    coarse_pressures = solve_pressure(coarse_fields, BC)
    assert pressures.values.shape == (4, fine.n_cells)
    assert coarse_fields.values.shape == (4, coarse.n_cells)
    for i, row in enumerate(stack.values):
        one = ScalarField(fine, row)
        assert np.array_equal(pressures.values[i],
                              solve_pressure(one, BC).values)
        up = upscale(one, coarse)
        assert np.array_equal(coarse_fields.values[i], up.values)
        assert np.array_equal(coarse_pressures.values[i],
                              solve_pressure(up, BC).values)
    mask = chessboard_mask(fine)
    assert np.array_equal(observe_pressure(pressures, mask),
                          pressures.values[:, mask.cells])

    # so is the KL synthesis of a stack of thetas, and their projection
    cov = assemble_covariance(fine, StudyConfig().kernel)
    basis = solve_kle(cov, fine, 3)
    ms = MeasurementSet([[0.5, 0.5]], [0.7])
    kriged = krige(ms, cov, fine)
    proj = nullspace_basis(build_data_matrix(basis, ms))
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

    def off_in_last_field(bands, rhs, cells):
        p = original(bands, rhs, cells)
        p[-g.n_cells:] += 2e-10
        return p

    k = np.ones((100, g.ny, g.nx))
    bands, Tl, _ = darcy._tpfa(k, g.hx, g.hy)
    rhs = np.zeros(k.shape)
    rhs[..., :, 0] = Tl.reshape(100, g.ny) * BC.p_left
    rhs = rhs.ravel()
    res = darcy._matvec(bands, off_in_last_field(bands, rhs,
                                                  g.n_cells)) - rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)

    monkeypatch.setattr(darcy, "_solve", off_in_last_field)
    with pytest.raises(NumericalError) as info:
        solve_pressure(ScalarField(g, np.log(k).reshape(100, -1)), BC)
    assert (info.value.module, info.value.code) == ("darcy", "residual")


def test_upscale_non_divisible():
    fine, coarse = make_grid(16, 16), make_grid(7, 8)
    with pytest.raises(ArgumentError):
        upscale(ScalarField(fine, np.zeros(256)), coarse)


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
        pc = solve_pressure(upscale(fld, coarse_grid), BC)
        # prolong coarse pressure to the fine grid by injection
        prolonged = np.repeat(np.repeat(pc.as_2d(), by, axis=0), bx, axis=1)
        r = np.corrcoef(prolonged.ravel(), pf.values)[0, 1]
        assert r >= 0.95


def test_scipy_is_named_only_inside_the_lapack_loader():
    # scipy is named in one loader, which only the solve calls, so a
    # command that solves no pressure (diagnose) never imports it
    from condflow import darcy

    def lines_of(func):
        lines, start = inspect.getsourcelines(func)
        return {("darcy.py", n) for n in range(start, start + len(lines))}

    src = Path(darcy.__file__).parent

    def naming(word):
        return {(path.name, n) for path in src.rglob("*")
                if path.is_file() and "__pycache__" not in path.parts
                for n, line in enumerate(path.read_bytes().splitlines(),
                                         start=1)
                if word in line}

    loader, solve = lines_of(darcy._lapack), lines_of(darcy._solve)
    named = naming(b"scipy")
    assert named and named <= loader, sorted(named - loader)
    calls = naming(b"_lapack(") - loader
    assert calls and calls <= solve, sorted(calls - solve)
