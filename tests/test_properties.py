"""Property tests of the field rule, the pressure solver, the trace CSV
round trip, kriging and conditioning. Every test is derandomized and
keeps no example database, so a run draws the same examples every
time."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from condflow.conditioning import (build_data_matrix, nullspace_basis,
                                   synthesize_conditioned)
from condflow.covariance import KernelParams, assemble_covariance
from condflow.darcy import BoundaryConditions, solve_pressure, upscale
from condflow.errors import ArgumentError, CondflowError, NumericalError
from condflow.grid import ScalarField, make_grid
from condflow.kle import solve_kle
from condflow.kriging import MeasurementSet, krige
from condflow.mcmc import ChainTrace, read_trace_csv, write_trace_csv
from oracles import dense_tpfa

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def _settings(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _arrays_on_grids(draw):
    """A grid up to 6 x 6 and a finite array of 0-3 dimensions, each
    dimension 0, 1, 2, nx, ny, n_cells or n_cells + 1 long."""
    grid = make_grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = grid.n_cells
    side = st.sampled_from([0, 1, 2, grid.nx, grid.ny, n, n + 1])
    shape = tuple(draw(st.lists(side, max_size=3)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return grid, draw(arrays(np.float64, shape, elements=finite))


@_settings(200)
@given(_arrays_on_grids())
def test_field_keeps_its_bits_or_rejects_the_shape(case):
    grid, values = case
    if values.ndim in (1, 2) and values.shape[-1] == grid.n_cells:
        fld = ScalarField(grid, values)
        assert fld.values.shape == values.shape
        assert fld.values.tobytes() == values.tobytes()
    else:
        with pytest.raises(ArgumentError) as info:
            ScalarField(grid, values)
        assert type(info.value) is ArgumentError
        assert f"field values have shape {values.shape}" in str(info.value)


@st.composite
def _fields(draw):
    """A lognormal log-permeability field on a grid up to 12 x 12, at a
    drawn scale up to 5, and boundary pressures in [-2, 2]."""
    grid = make_grid(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.floats(0.0, 5.0)) * rng.standard_normal(grid.n_cells)
    pressure = st.floats(-2.0, 2.0)
    return (ScalarField(grid, values),
            BoundaryConditions(draw(pressure), draw(pressure)))


def _pressure_scale(bc):
    """The largest boundary pressure, at least the smallest normal
    float, below which pressures round absolutely."""
    return max(abs(bc.p_left), abs(bc.p_right), TINY)


@_settings(150)
@given(_fields())
def test_pressure_obeys_the_maximum_principle(case):
    # the TPFA matrix is an M-matrix, so the exact pressure lies between
    # the boundary pressures; the solved one within 16 eps times the
    # contrast kmax / kmin and the cell count (2.8 was the largest seen)
    logperm, bc = case
    p = solve_pressure(logperm, bc).values
    k = np.exp(logperm.values)
    tol = (16 * EPS * k.max() / k.min() * logperm.grid.n_cells
           * _pressure_scale(bc))
    assert p.min() >= min(bc.p_left, bc.p_right) - tol
    assert p.max() <= max(bc.p_left, bc.p_right) + tol


@_settings(150)
@given(_fields())
def test_pressure_matches_the_dense_solve(case):
    # within 8 eps cond_inf(A) of np.linalg.solve of the dense TPFA
    # matrix, both solves being backward stable (1.6 was the largest
    # ratio seen)
    logperm, bc = case
    grid = logperm.grid
    p = solve_pressure(logperm, bc).values
    A, b = dense_tpfa(np.exp(logperm.as_2d()), grid.hx, grid.hy, bc)
    tol = 8 * EPS * np.linalg.cond(A, np.inf) * _pressure_scale(bc)
    assert np.abs(p - np.linalg.solve(A, b)).max() <= tol


@st.composite
def _stacks(draw):
    """A stack of 1-4 log-permeability fields on an nx x ny grid, nx up
    to 40 so that the bandwidth crosses 32, and a coarse grid that the
    grid tiles. The fields are lognormal at a drawn scale, with up to
    three cells set to values from -800 to 800, where permeability
    underflows to 0 or overflows."""
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    count = draw(st.integers(1, 4))
    coarse = make_grid(draw(st.sampled_from(_divisors(nx))),
                       draw(st.sampled_from(_divisors(ny))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.floats(0.0, 5.0)) * rng.standard_normal((count, nx * ny))
    for _ in range(draw(st.integers(0, 3))):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(
            st.floats(-800.0, 800.0))
    return ScalarField(make_grid(nx, ny), values), coarse


def _stacked_as_alone(solve, stack):
    """solve(stack) is bitwise each field's own solve, or, when a field
    alone raises a CondflowError, the stack raises one too."""
    alone = []
    for values in stack.values:
        try:
            alone.append(solve(ScalarField(stack.grid, values)).values)
        except CondflowError:
            with pytest.raises(CondflowError):
                solve(stack)
            return
    assert solve(stack).values.tobytes() == np.stack(alone).tobytes()


@_settings(150)
@given(_stacks())
def test_stacked_solve_and_upscale_are_each_fields_own(case):
    stack, coarse = case
    _stacked_as_alone(lambda f: solve_pressure(f, BoundaryConditions()),
                      stack)
    _stacked_as_alone(lambda f: upscale(f, coarse), stack)


@st.composite
def _traces(draw):
    iterations, n = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coarse = draw(arrays(bool, iterations))
    return ChainTrace(
        thetas=draw(arrays(np.float64, (iterations, n), elements=finite)),
        coarse_accepted=coarse,
        fine_accepted=coarse & draw(arrays(bool, iterations)),
        loglik_fine=draw(arrays(np.float64, iterations, elements=finite)),
        seed=None)


@_settings(100)
@given(_traces())
def test_trace_csv_round_trip_is_bitwise(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
    for name in ("thetas", "coarse_accepted", "fine_accepted",
                 "loglik_fine"):
        got, expected = getattr(back, name), getattr(trace, name)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), name


@st.composite
def _kriging_cases(draw):
    """A grid up to 12 x 12, a kernel, and measurements at the centers of
    1-12 distinct cells."""
    grid = make_grid(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    positive = st.floats(1e-3, 1e3)
    params = KernelParams(draw(st.floats(1e-300, 1e300)), draw(positive),
                          draw(positive))
    cells = np.array(draw(st.lists(st.integers(0, grid.n_cells - 1),
                                   min_size=1, max_size=12, unique=True)))
    j, i = np.divmod(cells, grid.nx)
    locations = np.column_stack([(i + 0.5) / grid.nx, (j + 0.5) / grid.ny])
    values = draw(arrays(np.float64, cells.size,
                         elements=st.floats(-1e6, 1e6)))
    return grid, params, MeasurementSet(locations, values), cells


@_settings(150)
@given(_kriging_cases())
def test_krige_honors_the_data_or_rejects_the_system(case):
    grid, params, ms, cells = case
    try:
        surface = krige(ms, assemble_covariance(grid, params), grid)
    except NumericalError as exc:
        assert (exc.module, exc.code) == ("kriging", "conditioning")
        return
    miss = np.abs(surface.values[cells] - ms.values).max()
    assert miss <= 1e-10 * max(1.0, np.abs(ms.values).max())


@st.composite
def _conditioning_cases(draw):
    """A grid up to 12 x 12, a kernel of variance 1e-2 to 1e2 and
    lengths 1e-2 to 10 (log-uniform), 1-12 measurements at distinct cell
    centers with values in [-20, 20], a mode count above the
    measurement count where the grid allows one, and a seed for four
    thetas."""
    grid = make_grid(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    n_cells = grid.n_cells
    length = st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e)
    params = KernelParams(draw(st.floats(1e-2, 1e2)), draw(length),
                          draw(length))
    m = draw(st.integers(1, max(1, min(12, n_cells - 1))))
    modes = draw(st.integers(min(m + 1, n_cells), n_cells))
    cells = np.array(draw(st.lists(st.integers(0, n_cells - 1), min_size=m,
                                   max_size=m, unique=True)))
    j, i = np.divmod(cells, grid.nx)
    locations = np.column_stack([(i + 0.5) / grid.nx, (j + 0.5) / grid.ny])
    values = draw(arrays(np.float64, m, elements=st.floats(-20.0, 20.0)))
    return (grid, params, modes, MeasurementSet(locations, values), cells,
            draw(st.integers(0, 2**32 - 1)))


@_settings(150)
@given(_conditioning_cases())
def test_conditioned_fields_honor_the_data_or_setup_fails(case):
    # to 1e-9 relative to the largest |value| or 1, a decade above the
    # bound kriging keeps
    grid, params, modes, ms, cells, seed = case
    try:
        cov = assemble_covariance(grid, params)
        basis = solve_kle(cov, grid, modes)
        kriged = krige(ms, cov, grid)
        Q = nullspace_basis(build_data_matrix(basis, ms))
    except CondflowError:
        return
    thetas = np.random.default_rng(seed).standard_normal((4, basis.n))
    fields = synthesize_conditioned(basis, kriged, thetas, Q)
    miss = np.abs(fields.values[:, cells] - ms.values).max()
    assert miss <= 1e-9 * max(1.0, np.abs(ms.values).max())
