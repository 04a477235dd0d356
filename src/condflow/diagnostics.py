"""Multi-chain convergence diagnostics: within/between-chain covariance,
pooled posterior covariance, per-parameter PSRFs, and the multivariate
MPSRF.

Definitions, for k chains of l draws of an n-vector theta:

    W = 1/(k(l-1)) sum_j sum_c (theta_j^c - mean_j)(theta_j^c - mean_j)^T
    B = l/(k-1)    sum_j (mean_j - mean_all)(mean_j - mean_all)^T
    V = (l-1)/l W + (1 + 1/k) B/l
    PSRF_i = sqrt(V_ii / W_ii)
    MPSRF  = sqrt((l-1)/l + ((k+1)/k) lam),  lam = max eig of W^-1 B / l

No degrees-of-freedom correction is applied to the PSRF. lam comes from
the symmetric generalized eigenproblem B x = mu W x (mu = l*lam), not
from W^-1 B: the Cholesky factor W = L L^T reduces it to the standard
symmetric eigenproblem of L^-1 B L^-T, whose largest eigenvalue is mu.
W is degenerate unless d = diag(W) > 0, cond(W / sqrt(d d^T)) <= 1e12
and W has a Cholesky factor: like the MPSRF, the rule is scale-free.

W and B are formed from per-chain sums of y and y y^T, where y is a
draw minus its chain's first draw (the shifted sums of Chan, Golub &
LeVeque 1979). The shift keeps the sums free of cancellation for chains
far from 0, and makes the deviations of a parameter that never moved in
a chain exactly 0. A checkpoint series takes the chains one at a time:
it accumulates a chain's sums segment by segment between checkpoints,
keeps a copy at each checkpoint, and drops the chain, so it reads every
draw once and holds one trace plus k x checkpoints x n^2 sums. The
checkpoints fall every ``spacing`` draws of the first trace read, after
its burn-in, and at its last. W, B and the rest are formed per
checkpoint once every chain is summed. A checkpoint at which some chain
has zero variance in every parameter, some parameter has zero
within-chain variance, or W is degenerate, is skipped with a notice.

:func:`diagnostics_series` is the one diagnosis of a set of traces, and
every rule of one is stated here: the chain count, the burn-in, the
checkpoint spacing, the shape of Q, and each trace's shape and
finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericalError, ParseError
from .grid import _read_csv

_MOD = "diagnostics"

#: diagnostics checkpoint spacing (post-burn-in draws between evaluations)
CHECKPOINT_EVERY = 250


def check_chain_count(k):
    """Reject fewer than the 2 chains that the diagnostics compare."""
    if k < 2:
        raise ArgumentError(f"need at least 2 chains, got k={k}", module=_MOD)


def check_burn_in(burn_in, length=None):
    """Reject a negative burn-in and, when ``length`` is given, traces of
    fewer than 2 draws or a burn-in that leaves fewer than 2 of them."""
    if burn_in < 0 or length is not None and burn_in > length - 2:
        bound = ("at least 0" if length is None else
                 f"in [0, {length - 2}] to keep at least 2 of {length} draws")
        short = length is not None and length < 2
        raise ArgumentError(
            f"at least 2 draws are needed, got traces of {length}" if short
            else f"burn-in must be {bound}, got {burn_in}",
            module=_MOD,
        )


def check_checkpoint_spacing(spacing):
    if spacing < 1:
        raise ArgumentError(
            f"checkpoint spacing must be at least 1, got {spacing}",
            module=_MOD,
        )


def checkpoints_for(length, spacing=CHECKPOINT_EVERY):
    """Every ``spacing``-th of ``length`` draws, and the last."""
    check_checkpoint_spacing(spacing)
    pts = list(range(spacing, length + 1, spacing))
    if not pts or pts[-1] != length:
        pts.append(length)
    return pts


def _chain_sums(thetas, checkpoints):
    """One chain's first draw, and its sums of y and y y^T (y = draw -
    first draw) over the draws before each of the ascending
    ``checkpoints``, one row of two arrays per checkpoint. The first draw
    is a copy: a view of it would keep the whole trace alive."""
    first = thetas[0].copy()
    n = thetas.shape[1]
    s1, s2 = np.zeros(n), np.zeros((n, n))
    sums1 = np.empty((len(checkpoints), n))
    sums2 = np.empty((len(checkpoints), n, n))
    for row, (start, c) in enumerate(zip([0] + checkpoints, checkpoints)):
        y = thetas[start:c] - first
        s1 += y.sum(axis=0)
        s2 += y.T @ y
        sums1[row], sums2[row] = s1, s2
    return first, sums1, sums2


def _within(s1, s2, l):
    """W from the per-chain sums of y and y y^T over l draws."""
    k = s1.shape[0]
    scatter = s2 - s1[:, :, None] * s1[:, None, :] / l  # (k, n, n)
    variances = np.diagonal(scatter, axis1=1, axis2=2)
    constant = np.flatnonzero(np.all(variances == 0.0, axis=1))
    if constant.size:
        raise NumericalError(
            f"chain(s) {constant.tolist()} have zero variance in every "
            "parameter",
            module=_MOD, code="degenerate",
        )
    return scatter.sum(axis=0) / (k * (l - 1))


def _between(first, s1, l):
    """B from the (k, n) first draws and per-chain sums of y over l draws;
    chain means are taken relative to chain 0's first draw."""
    k = s1.shape[0]
    means = first - first[0] + s1 / l
    dev = means - means.mean(axis=0)
    return l / (k - 1) * (dev.T @ dev)


def posterior_cov(W, B, k, l):
    """Pooled posterior covariance estimate V."""
    return (l - 1) / l * np.asarray(W) + (1.0 + 1.0 / k) * np.asarray(B) / l


def psrf(W, V):
    """Per-parameter potential scale reduction factors."""
    dW = np.diag(np.asarray(W))
    dV = np.diag(np.asarray(V))
    zero = np.flatnonzero(dW == 0.0)
    if zero.size:
        raise NumericalError(
            f"parameter(s) {zero.tolist()} have zero within-chain variance",
            module=_MOD, code="degenerate",
        )
    return np.sqrt(dV / dW)


def mpsrf(W, B, k, l):
    """Multivariate PSRF; a degenerate W is a NumericalError."""
    W = np.asarray(W, dtype=float)
    d = np.diag(W)
    cond = (np.linalg.cond(W / np.sqrt(np.outer(d, d))) if d.min() > 0
            else np.inf)
    try:
        if not cond <= 1e12:
            raise np.linalg.LinAlgError
        Li = np.linalg.inv(np.linalg.cholesky(W))
    except np.linalg.LinAlgError:
        raise NumericalError(
            "within-chain covariance is not positive definite to working "
            f"precision (correlation condition number {cond:.3g})",
            module=_MOD, code="degenerate") from None
    mu = np.linalg.eigvalsh(Li @ B @ Li.T)[-1]
    lam = max(mu, 0.0) / l
    return float(np.sqrt((l - 1) / l + (k + 1) / k * lam))


@dataclass
class DiagnosticsReport:
    """Checkpoint series of (draw count, max PSRF, MPSRF); checkpoints
    skipped as degenerate are listed in ``notices``."""

    checkpoints: list
    max_psrf: list
    mpsrf: list
    notices: list = field(default_factory=list)


def diagnostics_series(traces, spacing=CHECKPOINT_EVERY, burn_in=0, Q=None):
    """Evaluate max PSRF and MPSRF over growing prefixes of the traces,
    each cut after its first ``burn_in`` draws (at least 2 must remain)
    and, given a 2-D nullspace basis ``Q`` with a row per parameter,
    mapped to Q^T theta. The checkpoints are :func:`checkpoints_for` of
    the first cut trace's length and ``spacing``.

    ``traces`` is an iterable of at least 2 ChainTrace objects (or
    anything with a ``thetas`` array) of equal shape; an error names a
    trace by its 1-based position. The arguments are checked before a
    trace is read, and no reference to a trace is kept once its sums are
    taken, so a generator of traces read on demand holds one of them at
    a time. Checkpoints needing fewer than 2 draws, or hitting a
    degenerate W (common early on with single-component updates), are
    skipped with a notice.
    """
    check_burn_in(burn_in)
    check_checkpoint_spacing(spacing)
    if Q is not None and np.ndim(Q) != 2:
        raise ArgumentError(f"nullspace basis Q must be 2-D, got shape "
                            f"{np.shape(Q)}", module=_MOD)
    shape, chains = None, []
    # no enumerate: its reused result tuple would keep the last trace
    # alive while the next one is read
    for trace in traces:
        i = len(chains) + 1
        thetas = np.asarray(trace.thetas, dtype=float)
        if thetas.ndim != 2:
            raise ArgumentError(
                f"trace {i}: draws must have shape (draws, parameters), "
                f"got {thetas.shape}", module=_MOD)
        if Q is not None and np.shape(Q)[0] != thetas.shape[1]:
            raise ArgumentError(
                f"trace {i}: {thetas.shape[1]} parameters, but Q has "
                f"{np.shape(Q)[0]} rows", module=_MOD)
        check_burn_in(burn_in, len(thetas))
        thetas = thetas[burn_in:]
        if Q is not None:
            thetas = thetas @ Q
        if shape is None:
            shape = thetas.shape
            checkpoints = checkpoints_for(shape[0], spacing)
        elif thetas.shape != shape:
            raise ArgumentError(
                f"trace shapes differ: {sorted([shape, thetas.shape])}",
                module=_MOD)
        if not np.all(np.isfinite(thetas)):
            raise ArgumentError(f"trace {i} contains non-finite values",
                                module=_MOD)
        chains.append(_chain_sums(thetas, checkpoints))
        del trace, thetas  # freed before the next trace is read
    k = len(chains)
    check_chain_count(k)
    firsts, sums1, sums2 = zip(*chains)
    firsts = np.array(firsts)
    report = DiagnosticsReport([], [], [])
    for row, c in enumerate(checkpoints):
        if c < 2:
            report.notices.append(f"checkpoint {c}: fewer than 2 draws, skipped")
            continue
        s1 = np.array([s[row] for s in sums1])
        s2 = np.array([s[row] for s in sums2])
        try:
            W = _within(s1, s2, c)
            B = _between(firsts, s1, c)
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


def write_report_csv(report, path):
    """Checkpoint series as CSV: checkpoint, max_psrf, mpsrf."""
    np.savetxt(path, np.transpose([report.checkpoints, report.max_psrf,
                                   report.mpsrf]), fmt=["%d", "%.17g", "%.17g"],
               delimiter=",", header="checkpoint,max_psrf,mpsrf", comments="")


def write_report_dat(report, path):
    """Whitespace-separated series for plotting (gnuplot style)."""
    np.savetxt(path, np.transpose([report.checkpoints, report.max_psrf,
                                   report.mpsrf]), fmt=["%d", "%.17g", "%.17g"],
               header="checkpoint max_psrf mpsrf")


def read_report_csv(path):
    """Load a series written by :func:`write_report_csv`; a report with
    no checkpoints reads back empty."""
    header, data = _read_csv(path, _MOD, header=True, empty=True)
    if header != "checkpoint,max_psrf,mpsrf":
        raise ParseError(f"{path}: not a diagnostics CSV", module=_MOD)
    checkpoints, max_psrf, mpsrf = data.T
    return DiagnosticsReport(checkpoints.astype(int).tolist(),
                             max_psrf.tolist(), mpsrf.tolist())
