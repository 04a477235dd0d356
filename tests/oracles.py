"""Dense reference implementations the tests check condflow against.

condflow never evaluates the kernel pointwise: it factors the separable
kernel once, into the spectra of two 1-D problems, and the KLE and
kriging both read that factorization. The pointwise kernel, the cell
centers, the dense matrix over them and its eigendecomposition, simple
kriging of the true kernel (evaluated to 60 digits and solved exactly in
rationals), the dense TPFA system of a permeability field, the energy
fraction of a spectrum, the direct forms of the within- and
between-chain covariances, the checkpoint series over a (chains, draws,
parameters) matrix, the list of traces after a burn-in, a CSV read by
one float ``np.loadtxt`` pass and the trace and PGM writers of one
``np.savetxt`` call live here for the tests alone.
"""

import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from condflow.diagnostics import (
    DiagnosticsReport,
    _between,
    _within,
    check_chain_count,
    mpsrf,
    posterior_cov,
    psrf,
)
from condflow.errors import ArgumentError, NumericalError, ParseError
from condflow.kle import _fix_signs


def kernel(x1, x2, params):
    """Evaluate the covariance kernel at a pair of points."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    dx = x1[..., 0] - x2[..., 0]
    dy = x1[..., 1] - x2[..., 1]
    return params.sigma2 * np.exp(
        -(dx**2) / (2.0 * params.lx**2) - (dy**2) / (2.0 * params.ly**2)
    )


def kernel_matrix(points_a, points_b, params):
    """Kernel evaluated on all pairs of two point sets; shape (na, nb)."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    return kernel(a[:, None, :], b[None, :, :], params)


def cell_centers(grid):
    """(n_cells, 2) array of cell-center coordinates, flat order."""
    xs = (np.arange(grid.nx) + 0.5) * grid.hx
    ys = (np.arange(grid.ny) + 0.5) * grid.hy
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


def exact_solve(A, b):
    """x with A x = b, in rationals on the exact entries (floats,
    Decimals or Fractions): Gaussian elimination with the largest pivot
    of each column."""
    n = len(b)
    M = [[Fraction(v) for v in row] + [Fraction(rhs)]
         for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (M[r][n] - sum(M[r][c] * x[c] for c in range(r + 1, n))) \
            / M[r][r]
    return x


def exact_simple_kriging(grid, params, cells, values, digits=60):
    """Simple kriging of the data ``values`` at ``cells`` under the true
    kernel, at every cell center: the unit-variance kernel at the float
    centers and lengths is evaluated to ``digits`` digits in decimal,
    and the system K w = v is solved exactly."""
    centers = [(Decimal(float(x)), Decimal(float(y)))
               for x, y in cell_centers(grid)]
    lx, ly = Decimal(float(params.lx)), Decimal(float(params.ly))
    with localcontext() as ctx:
        ctx.prec = digits

        def k(p, q):
            return Fraction((-((p[0] - q[0]) ** 2) / (2 * lx * lx)
                             - (p[1] - q[1]) ** 2 / (2 * ly * ly)).exp())

        data = [centers[c] for c in cells]
        w = exact_solve([[k(p, q) for q in data] for p in data], values)
        return np.array([float(sum(k(x, p) * wi for p, wi in zip(data, w)))
                         for x in centers])


def dense_tpfa(k2d, hx, hy, bc):
    """The dense TPFA system (A, b) of a permeability field k2d (ny, nx),
    assembled cell by cell and face by face."""
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
    return A, b


def dense_covariance(grid, params):
    """The N x N kernel matrix over the grid's cell centers."""
    centers = cell_centers(grid)
    return kernel_matrix(centers, centers, params)


def dense_spectrum(grid, params):
    """All N eigenvalues (descending) and quadrature-normalized
    eigenfunctions of the weighted dense covariance (hx*hy) * R, under
    the sign rule of :func:`condflow.kle.solve_kle`."""
    w = grid.hx * grid.hy
    evals, evecs = np.linalg.eigh(w * dense_covariance(grid, params))
    return evals[::-1], _fix_signs(evecs[:, ::-1]) / np.sqrt(w)


def energy_fraction(lambdas, n):
    """Fraction of total spectral mass carried by the first n eigenvalues.

    The infinite sum in the continuous definition is taken as the full
    discrete spectrum.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ArgumentError("empty spectrum", module="kle")
    return float(np.sum(lambdas[:n]) / np.sum(lambdas))


def _as_chain_matrix(chains):
    """The chains as one (k, L, n) array: at least 2 chains, finite."""
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 3:
        raise ArgumentError(
            "chain matrix must have shape (chains, draws, parameters)",
            module="diagnostics",
        )
    check_chain_count(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("chain matrix contains non-finite values",
                            module="diagnostics")
    return arr


def _shifted_sums(segment, first):
    """Per-chain sums of y and y y^T over a (k, m, n) segment of draws,
    with y = draw - first and ``first`` the (k, 1, n) first draws."""
    y = segment - first
    return y.sum(axis=1), np.matmul(y.transpose(0, 2, 1), y)


def _chain_matrix(chains):
    """The chain matrix, of at least 2 draws per chain."""
    arr = _as_chain_matrix(chains)
    if arr.shape[1] < 2:
        raise ArgumentError(f"need at least 2 draws, got l={arr.shape[1]}",
                            module="diagnostics")
    return arr


def within_chain_cov(chains):
    """Average per-chain sample covariance W (denominator l-1)."""
    arr = _chain_matrix(chains)
    s1, s2 = _shifted_sums(arr, arr[:, :1])
    return _within(s1, s2, arr.shape[1])


def between_chain_cov(chains):
    """Between-chain covariance B of the chain means."""
    arr = _chain_matrix(chains)
    first = arr[:, :1]
    return _between(first[:, 0], (arr - first).sum(axis=1), arr.shape[1])


def matrix_series(chains, checkpoints):
    """:func:`condflow.diagnostics.diagnostics_series` over the whole
    (k, L, n) chain matrix at once: the shifted sums of every chain grow
    together, segment by segment between the ascending checkpoints."""
    full = _as_chain_matrix(chains)
    k, L, n = full.shape
    first = full[:, :1]
    s1, s2 = np.zeros((k, n)), np.zeros((k, n, n))
    done = 0
    report = DiagnosticsReport([], [], [])
    for c in checkpoints:
        if c < 2:
            report.notices.append(f"checkpoint {c}: fewer than 2 draws, skipped")
            continue
        d1, d2 = _shifted_sums(full[:, done:c], first)
        s1 += d1
        s2 += d2
        done = c
        try:
            W = _within(s1, s2, c)
            B = _between(first[:, 0], s1, c)
            V = posterior_cov(W, B, k, c)
            p = psrf(W, V)
            m = mpsrf(W, B, k, c)
        except NumericalError as exc:
            report.notices.append(f"checkpoint {c}: {exc}")
            continue
        report.checkpoints.append(c)
        report.max_psrf.append(float(np.max(p)))
        report.mpsrf.append(m)
    return report


def post_burn_in(traces, burn_in):
    """Every trace without its first ``burn_in`` draws, all held at once:
    what :func:`condflow.diagnostics.diagnostics_series` cuts one trace at
    a time."""
    return [replace(t, thetas=t.thetas[burn_in:]) for t in traces]


def read_csv_one_pass(path, module, header=False, empty=False):
    """What :func:`condflow.grid._read_csv` returns or raises, read by
    one float ``np.loadtxt`` pass over the path: the reader it replaced,
    whose values and error texts the block reader keeps."""
    head = None
    try:
        if header:
            with open(path, encoding="utf-8") as fh:
                head = fh.readline().strip()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if empty else "error", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=int(header),
                              ndmin=2, comments=None, encoding="utf-8")
    except (ValueError, UserWarning) as exc:
        raise ParseError(f"{path}: {exc}", module=module) from exc
    if header:
        width = len(head.split(","))
        if data.size and data.shape[1] != width:
            raise ParseError(f"{path}: rows have {data.shape[1]} values, the "
                             f"header {width}", module=module)
        data = data.reshape(-1, width)
    return head, data


def write_trace_savetxt(trace, path):
    """The file :func:`condflow.mcmc.write_trace_csv` writes, by one
    ``np.savetxt`` call that formats every value: the writer it
    replaced, whose bytes the block writer keeps."""
    n = trace.thetas.shape[1]
    cols = (["iteration"] + [f"theta_{i + 1}" for i in range(n)]
            + ["coarse_accept", "fine_accept", "loglik"])
    data = np.column_stack([np.arange(trace.iterations), trace.thetas,
                            trace.coarse_accepted, trace.fine_accepted,
                            trace.loglik_fine])
    np.savetxt(path, data, fmt=["%d"] + ["%.17g"] * n + ["%d", "%d", "%.17g"],
               delimiter=",", header=",".join(cols), comments="")


def write_field_pgm_savetxt(fld, path):
    """The file :func:`condflow.grid.write_field_pgm` writes, by one
    ``np.savetxt`` call: the writer it replaced."""
    arr = fld.as_2d()
    lo, hi = arr.min(), arr.max()
    if hi / 2 - lo / 2 > np.finfo(float).max / 2:  # hi - lo overflows
        arr, lo, hi = arr / 2, lo / 2, hi / 2  # exact at this range
    pix = (np.rint((arr - lo) / (hi - lo) * 255.0) if hi > lo
           else np.full(arr.shape, 128))
    np.savetxt(path, pix[::-1], fmt="%d", comments="",
               header=f"P2\n{fld.grid.nx} {fld.grid.ny}\n255")
