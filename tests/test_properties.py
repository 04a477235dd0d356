"""Property tests of the field rule, the pressure solver, the 2x2
upscaling closed form, the CSV block reader against one float loadtxt
pass, the trace and PGM writers against one savetxt call, the trace CSV
round trip and its corrupted rows, kriging,
conditioning and the CLI. Every test is derandomized and keeps
no example database, so a run draws the same examples every time."""

import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from condflow import cli, grid
from condflow.config import _KEYS
from condflow.conditioning import (build_data_matrix, nullspace_basis,
                                   synthesize_conditioned)
from condflow.covariance import KernelParams, assemble_covariance
from condflow.darcy import (BoundaryConditions, _keff_x, _keff_x_2x2,
                            solve_pressure, upscale)
from condflow.errors import (ArgumentError, CondflowError, NumericalError,
                             ParseError)
from condflow.grid import ScalarField, make_grid, write_field_pgm
from condflow.kle import solve_kle
from condflow.kriging import MeasurementSet, krige
from condflow.mcmc import ChainTrace, read_trace_csv, write_trace_csv
from oracles import (dense_tpfa, read_csv_one_pass, write_field_pgm_savetxt,
                     write_trace_savetxt)
from test_darcy import _exact_keff_x

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
def _blocks_2x2(draw):
    """1-20 lognormal 2x2 blocks at a drawn scale up to 4, on cells of
    aspect ratio hx / hy from 1/30 to 30 (log-uniform)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kb = np.exp(draw(st.floats(0.0, 4.0))
                * rng.standard_normal((draw(st.integers(1, 20)), 2, 2)))
    return kb, 30.0 ** draw(st.floats(-1.0, 1.0)) / 16, 1 / 16


@_settings(150)
@given(_blocks_2x2())
def test_closed_form_2x2_matches_exact_elimination_and_the_generic_path(
        case):
    # the closed form is within 16 eps of exact rational elimination (4
    # eps the largest seen). The banded dpbsv solve of the same blocks
    # loses digits on cells wider than tall: up to 0.6 eps (hx / hy)^2
    # from the closed form, and within 6 eps of it at hx <= hy
    kb, hx, hy = case
    closed = _keff_x_2x2(kb.transpose(1, 2, 0), hx, hy)
    exact = np.array([_exact_keff_x(b, hx, hy) for b in kb[:4]])
    assert np.max(np.abs(closed[:4] - exact) / exact) <= 16 * EPS
    generic = _keff_x(kb, hx, hy)
    assert (np.max(np.abs(closed - generic) / generic)
            <= 16 * EPS * max(1.0, hx / hy) ** 2)


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


def _assert_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
    for name in ("thetas", "coarse_accepted", "fine_accepted",
                 "loglik_fine"):
        got, expected = getattr(back, name), getattr(trace, name)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), name


@_settings(100)
@given(_traces())
def test_trace_csv_round_trip_is_bitwise(trace):
    _assert_round_trip(trace)


@st.composite
def _sampler_traces(draw):
    """A trace shaped like the sampler's: a rejection repeats the state and
    the log-likelihood, a fine acceptance moves one coordinate and gives a
    new log-likelihood. Read in blocks of 4 to 12 rows, its repeats cross
    the blocks' edges."""
    iterations, n = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coarse = draw(arrays(bool, iterations))
    fine = coarse & draw(arrays(bool, iterations))
    theta = draw(arrays(np.float64, n, elements=finite))
    loglik = np.full(iterations, draw(finite))
    thetas = np.tile(theta, (iterations, 1))
    for it in np.flatnonzero(fine):
        thetas[it:, draw(st.integers(0, n - 1))] = draw(finite)
        loglik[it:] = draw(finite)
    trace = ChainTrace(thetas, coarse, fine, loglik, seed=None)
    return trace, draw(st.integers(4, 12))


@_settings(100)
@given(_sampler_traces())
def test_sampler_shaped_trace_csv_round_trip_is_bitwise(case):
    trace, block = case
    with patch.object(grid, "_BLOCK", block):
        _assert_round_trip(trace)


#: floats at the edges of ``%.17g``: signed zeros, subnormals, the
#: largest values, neighbours one ulp apart and the switch to an exponent
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e308, -1e308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0, 1.0000000000000002, 0.1,
                0.10000000000000002, 1e16, 1e17]


@st.composite
def _written_traces(draw):
    """(trace, block rows): a first row of theta and loglik, then rows
    that repeat the row above, move one value or move all of them, to a
    finite or edge value, to its negation (0 to -0) or to a neighbour
    one ulp away. Written in blocks of 1 to 5 rows, it is 1 row long or
    a block multiple, give or take one row."""
    block, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    iterations = max(1, draw(st.integers(0, 4)) * block
                     + draw(st.sampled_from([-1, 0, 1])))
    value = st.one_of(st.sampled_from(_EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    row = np.array(draw(st.lists(value, min_size=n + 1, max_size=n + 1)))
    rows = [row]
    for _ in range(iterations - 1):
        row = row.copy()
        moved = draw(st.sampled_from([[], [draw(st.integers(0, n))],
                                      range(n + 1)]))
        for j in moved:
            near = [v for v in (-row[j], math.nextafter(row[j], -math.inf),
                                math.nextafter(row[j], math.inf))
                    if math.isfinite(v)]
            row[j] = draw(st.one_of(value, st.sampled_from(near)))
        rows.append(row)
    rows = np.array(rows)
    coarse = draw(arrays(bool, iterations))
    trace = ChainTrace(rows[:, :n], coarse,
                       coarse & draw(arrays(bool, iterations)), rows[:, n],
                       seed=None)
    return trace, block


@_settings(200)
@given(_written_traces())
def test_trace_writer_matches_one_savetxt_call(case):
    trace, block = case
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(grid, "_BLOCK", block):
        write_trace_csv(trace, Path(tmp) / "blocks.csv")
        write_trace_savetxt(trace, Path(tmp) / "savetxt.csv")
        assert ((Path(tmp) / "blocks.csv").read_bytes()
                == (Path(tmp) / "savetxt.csv").read_bytes())


@st.composite
def _pgm_fields(draw):
    """A field on a 1 x N, N x 1 or other grid up to 6 x 6: finite
    values, one constant value, or values whose range overflows."""
    k = draw(st.integers(1, 6))
    nx, ny = draw(st.sampled_from([(k, 1), (1, k),
                                   (k, draw(st.integers(1, 6)))]))
    n = nx * ny
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["finite", "constant", "overflow"]))
    values = (np.full(n, draw(finite)) if kind == "constant"
              else draw(arrays(np.float64, n, elements=finite)))
    if kind == "overflow":
        values[draw(st.integers(0, n - 1))] = -1.7976931348623157e308
        values[draw(st.integers(0, n - 1))] = 1e308
    return ScalarField(make_grid(nx, ny), values)


@_settings(200)
@given(_pgm_fields())
def test_pgm_writer_matches_one_savetxt_call(fld):
    with tempfile.TemporaryDirectory() as tmp:
        write_field_pgm(fld, Path(tmp) / "one_write.pgm")
        write_field_pgm_savetxt(fld, Path(tmp) / "savetxt.pgm")
        assert ((Path(tmp) / "one_write.pgm").read_bytes()
                == (Path(tmp) / "savetxt.pgm").read_bytes())


#: numbers at the edges of the float parse: signed zero and NaN,
#: infinities, subnormals, the largest values, pairs that differ only in
#: their 19th, 24th (the most a bytes token holds whole) and 25th
#: character, a number that a 32-byte cut would change, and whitespace
_EDGE_NUMBERS = ["-0", "0", "nan", "-nan", "inf", "-inf", "5e-324",
                 "2.2250738585072009e-308", "1e308",
                 "1.7976931348623157e+308", "0.12345678901234567",
                 "0.12345678901234568", "-1.2345678901234567e-100",
                 "-1.2345678901234567e-101", "1.000000000000000000000e10",
                 "1.000000000000000000000e20", "1" + "0" * 39, " 2", "3\t",
                 " -0 "]
#: digits grouped by ``_``, which ``float`` reads and loadtxt does not
_UNDERSCORED = ["1_0", "-2_5.0_1", "1_0e1_0"]


@st.composite
def _csv_files(draw):
    """(bytes of a CSV file, header, empty, block rows): rows that repeat
    the row above or change one token, to a new one or in its last
    character only, then at most one fault: a token that loadtxt does
    not read as a number, a blank line, a ragged row, a token followed
    by a byte that is not UTF-8 or by a NUL, or a bare carriage return
    for a newline. The body may be empty, the header one value too
    wide."""
    width = draw(st.integers(1, 4))
    token = st.one_of(st.sampled_from(_EDGE_NUMBERS),
                      st.floats().map(lambda x: format(x, ".17g")))
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        row = list(rows[-1]) if rows else draw(
            st.lists(token, min_size=width, max_size=width))
        if rows and draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, width - 1))
            row[j] = draw(st.one_of(token, st.sampled_from(
                [row[j][:-1] + d for d in "0123456789" if row[j]])))
        rows.append(row)
    rows = [[t.encode() for t in row] for row in rows]
    ends = [b"\n"] * len(rows)
    fault = draw(st.sampled_from([None, None, "token", "blank", "ragged",
                                  "byte", "cr"]))
    if rows and fault:
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        if fault == "token":
            row[draw(st.integers(0, width - 1))] = draw(st.one_of(
                st.sampled_from(_UNDERSCORED),
                st.sampled_from(_NON_NUMERIC + [""]))).encode()
        elif fault == "blank":
            ends[at] = b"\n\n"
        elif fault == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + [b"1"]
        elif fault == "byte":
            row[draw(st.integers(0, width - 1))] += draw(
                st.sampled_from([b"\xe9", b"\0"]))
        else:
            ends[at] = b"\r"
        rows[at] = row
    if ends and draw(st.booleans()):
        ends[-1] = ends[-1][:-1]  # no newline after the last row
    header = draw(st.booleans())
    body = b"".join(b",".join(row) + end for row, end in zip(rows, ends))
    if header:
        names = range(width + draw(st.sampled_from([0, 0, 1])))
        body = ",".join(f"c{j}" for j in names).encode() + b"\n" + body
    return body, header, draw(st.booleans()), draw(st.integers(3, 6))


@_settings(300)
@given(_csv_files())
def test_block_reader_matches_one_loadtxt_pass(case):
    # the values bit for bit, or the same ParseError text
    body, header, empty, block = case
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(grid, "_BLOCK", block):
        path = Path(tmp) / "body.csv"
        path.write_bytes(body)
        try:
            head, expected = read_csv_one_pass(path, "grid", header, empty)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                grid._read_csv(path, "grid", header, empty)
            assert str(info.value) == str(exc)
            assert info.value.module == "grid"
            return
        got_head, got = grid._read_csv(path, "grid", header, empty)
    assert got_head == head
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


#: tokens that no float parser reads as a number
_NON_NUMERIC = ["x", "one", "1.0.0", "--1", "1e", "0..5", "?"]


@st.composite
def _corrupted_traces(draw):
    """A valid trace, one of its rows, and a corruption of that row: a
    non-numeric token, a value left empty or dropped, a flag of 2, a fine
    acceptance without a coarse one, or a skipped iteration. The last
    three break a trace rule; the rest break the CSV."""
    trace = draw(_traces())
    n = trace.thetas.shape[1]
    row = draw(st.integers(0, trace.iterations - 1))
    column = st.integers(0, n + 3)  # iteration, thetas, flags, loglik
    kind = draw(st.sampled_from(["token", "empty", "dropped", "flag",
                                 "fine_without_coarse", "skipped"]))
    if kind == "token":
        edit = {draw(column): draw(st.sampled_from(_NON_NUMERIC))}
    elif kind == "empty":
        edit = {draw(column): ""}
    elif kind == "dropped":
        edit = {draw(column): None}
    elif kind == "flag":
        edit = {draw(st.sampled_from([n + 1, n + 2])): "2"}
    elif kind == "fine_without_coarse":
        edit = {n + 1: "0", n + 2: "1"}
    else:
        edit = {0: str(row + 1)}
    return trace, row, edit, kind in ("flag", "fine_without_coarse",
                                      "skipped")


@_settings(100)
@given(_corrupted_traces())
def test_corrupted_trace_row_is_a_parse_error(case):
    trace, row, edit, breaks_a_rule = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        values = lines[1 + row].split(",")
        for column, value in edit.items():
            values[column] = value
        lines[1 + row] = ",".join(v for v in values if v is not None)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_trace_csv(path)
    assert info.value.module == "mcmc"
    assert str(path) in str(info.value)
    if breaks_a_rule:
        assert f"row {row}: " in str(info.value)


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


_SIZES = ["-1", "0", "1", "2", "3", "4", "8", "16", "1.5", "x", str(10**30)]
_COUNTS = ["-1", "0", "1", "2", "20", "256", "257", "1.5", "", str(10**30)]
_FLOATS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e-3", "0.5",
           "1", "1.0000001", "1e300", "1.7976931348623157e308", "x"]
_BOOLS = ["true", "no", "YES", "0", "2", "", "maybe"]
_PATHS = ["", "{tmp}/missing.csv", "{tmp}", "{tmp}/field.csv",
          "{tmp}/measurements.csv"]
#: adversarial values of every config key; a chain count stays small,
#: as a dry run writes a seed per chain to the manifest
_CONFIG_VALUES = {
    "grid.fine_nx": _SIZES, "grid.fine_ny": _SIZES,
    "grid.coarse_nx": _SIZES, "grid.coarse_ny": _SIZES,
    "kernel.sigma2": _FLOATS, "kernel.lx": _FLOATS, "kernel.ly": _FLOATS,
    "kle.n_terms": _COUNTS, "mcmc.beta": _FLOATS,
    "mcmc.sigma_f2": _FLOATS, "mcmc.sigma_c2": _FLOATS,
    "mcmc.chains": ["-1", "0", "1", "2", "4", "1.5", "x"],
    "mcmc.iterations": _COUNTS, "mcmc.burn_in": _COUNTS,
    "mcmc.conditioned": _BOOLS, "mcmc.single_component": _BOOLS,
    "seed": _COUNTS, "paths.measurements": _PATHS,
    "paths.reference_field": _PATHS, "paths.output_dir": _PATHS,
    "output.snapshots": ["", "0", "-1", "40,5000", "1,,2", "x", str(10**30)],
    "output.verbosity": _COUNTS,
}
#: field and measurement values, the extremes where exp(logperm)
#: overflows or underflows among them
_CELL_VALUES = ["0", "-1.5", "2", "709", "800", "-800", "nan", "inf", "x"]


def test_cli_config_values_cover_every_key():
    assert set(_CONFIG_VALUES) == set(_KEYS)


@st.composite
def _cli_runs(draw):
    """A command, a config of known keys with adversarial values, a
    16 x 16 reference field file and a measurements file, each of
    normal or adversarial values, and a theta file: as many rows as the
    config's mode count (20 unless that is a count up to 257), or an
    adversarial body. The field and measurement files are read only when
    the config names them (or ``--field`` does)."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)),
                         unique=True, max_size=4))
    config = {key: draw(st.sampled_from(_CONFIG_VALUES[key]))
              for key in keys}
    command = draw(st.sampled_from([["kle"], ["krige"], ["solve"],
                                    ["condition", "--theta",
                                     "{tmp}/theta.csv"],
                                    ["solve", "--field", "{tmp}/field.csv"],
                                    ["reference", "--dry-run"]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = [f"{v:.17g}" for v in rng.standard_normal(256)]
    measurements = [f"{x},{y},{v:.17g}" for x, y, v in zip(
        *rng.uniform(0.0, 1.0, (2, 9)), rng.standard_normal(9))]
    for _ in range(draw(st.integers(0, 2))):
        field[draw(st.integers(0, 255))] = draw(st.sampled_from(_CELL_VALUES))
        parts = measurements[draw(st.integers(0, 8))].split(",")
        parts[draw(st.integers(0, 2))] = draw(st.sampled_from(_CELL_VALUES))
        measurements[draw(st.integers(0, 8))] = ",".join(parts)
    modes = config.get("kle.n_terms", "20")
    n = int(modes) if modes.isdigit() and int(modes) <= 257 else 20
    theta = [f"{v:.17g}" for v in rng.standard_normal(n)]
    body = theta if draw(st.booleans()) else draw(st.sampled_from([
        theta[1:], theta + ["0.5"], [",".join(theta)],
        [f"{v},0.5" for v in theta], ["# theta"] + theta,
        theta[:1] + [""] + theta[1:], [], ["\xe9"] + theta[1:],
        *([v] + theta[1:] for v in _CELL_VALUES)]))
    return command, config, field, measurements, "\n".join(body) + "\n"


def _run_cli(argv):
    """Exit code of an in-process run, and its stderr lines with one
    line per warning, as a process would print it."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines() + [
        f"{w.category.__name__}: {w.message}" for w in caught]


@_settings(200)
@given(_cli_runs())
def test_cli_exits_0_or_with_one_error_line(run):
    command, config, field, measurements, theta = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "field.csv").write_text("\n".join(
            ",".join(field[j * 16:(j + 1) * 16]) for j in range(16)) + "\n")
        (root / "measurements.csv").write_text(
            "x,y,value\n" + "\n".join(measurements) + "\n")
        (root / "theta.csv").write_bytes(theta.encode("latin-1"))
        (root / "study.cfg").write_text("".join(
            f"{key} = {value.format(tmp=tmp)}\n"
            for key, value in config.items()))
        code, stderr = _run_cli(
            [arg.format(tmp=tmp) for arg in command]
            + ["--config", str(root / "study.cfg"),
               "--out-dir", str(root / "out")])
        made_out = (root / "out").exists()
    if code == 0:
        assert stderr == []
    else:
        assert code == 1
        assert len(stderr) == 1 and stderr[0].startswith("error:"), stderr
        # every input is read and checked before the output directory
        assert not made_out, stderr
