"""Property tests of the pressure solver, the trace CSV round trip and
kriging. Every test is derandomized and keeps no example database, so a
run draws the same examples every time."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from condflow.covariance import KernelParams, assemble_covariance
from condflow.darcy import BoundaryConditions, solve_pressure, upscale
from condflow.errors import CondflowError, NumericalError
from condflow.grid import ScalarField, make_grid
from condflow.kriging import MeasurementSet, krige
from condflow.mcmc import ChainTrace, read_trace_csv, write_trace_csv


def _settings(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


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
