"""Multi-chain convergence diagnostics: within/between-chain covariance,
pooled posterior covariance, per-parameter PSRFs, and the multivariate
MPSRF.

Definitions, for k chains of l draws of an n-vector theta:

    W = 1/(k(l-1)) sum_j sum_c (theta_j^c - mean_j)(theta_j^c - mean_j)^T
    B = l/(k-1)    sum_j (mean_j - mean_all)(mean_j - mean_all)^T
    V = (l-1)/l W + (1 + 1/k) B/l
    PSRF_i = sqrt(V_ii / W_ii)
    MPSRF  = sqrt((l-1)/l + ((k+1)/k) lam),  lam = max eig of W^-1 B / l

No degrees-of-freedom correction is applied to the PSRF. lam is found
through the symmetric generalized eigenproblem B x = mu W x (mu = l*lam)
rather than by inverting W.

W and B are formed from per-chain sums of y and y y^T, where y is a
draw minus its chain's first draw (the shifted sums of Chan, Golub &
LeVeque 1979). The shift keeps the sums free of cancellation for chains
far from 0, and makes the deviations of a parameter that never moved in
a chain exactly 0. A checkpoint series accumulates the sums segment by
segment between checkpoints, so it reads every draw once. A checkpoint
at which some chain has zero variance in every parameter, or some
parameter has zero within-chain variance, is skipped with a notice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError, NumericalError, ParseError
from .grid import _read_csv

_MOD = "diagnostics"


def _as_chain_matrix(chains, min_draws=2):
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 3:
        raise ArgumentError(
            "chain matrix must have shape (chains, draws, parameters)",
            module=_MOD,
        )
    k, l, _ = arr.shape
    if k < 2 or l < min_draws:
        raise ArgumentError(
            f"need at least 2 chains and 2 draws, got k={k}, l={l}",
            module=_MOD,
        )
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("chain matrix contains non-finite values",
                            module=_MOD)
    return arr


def _shifted_sums(segment, first):
    """Per-chain sums of y and y y^T over a (k, m, n) segment of draws,
    with y = draw - first and ``first`` the (k, 1, n) first draws."""
    y = segment - first
    return y.sum(axis=1), np.matmul(y.transpose(0, 2, 1), y)


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
    """B from the per-chain sums of y over l draws; chain means are taken
    relative to chain 0's first draw."""
    k = s1.shape[0]
    means = first[:, 0, :] - first[0, 0, :] + s1 / l
    dev = means - means.mean(axis=0)
    return l / (k - 1) * (dev.T @ dev)


def within_chain_cov(chains):
    """Average per-chain sample covariance W (denominator l-1)."""
    arr = _as_chain_matrix(chains)
    s1, s2 = _shifted_sums(arr, arr[:, :1])
    return _within(s1, s2, arr.shape[1])


def between_chain_cov(chains):
    """Between-chain covariance B of the chain means."""
    arr = _as_chain_matrix(chains)
    first = arr[:, :1]
    return _between(first, (arr - first).sum(axis=1), arr.shape[1])


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
    """Multivariate PSRF from the largest eigenvalue of W^-1 B / l."""
    W = np.asarray(W, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        if np.linalg.cond(W) > 1e12:
            raise np.linalg.LinAlgError("ill-conditioned W")
        mu = scipy.linalg.eigh(B, W, eigvals_only=True)[-1]
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        warnings.warn(
            "within-chain covariance is ill-conditioned; "
            "falling back to a pseudo-inverse for the MPSRF",
            stacklevel=2,
        )
        mu = float(np.max(np.real(
            np.linalg.eigvals(np.linalg.pinv(W) @ B))))
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


def diagnostics_series(traces, checkpoints):
    """Evaluate max PSRF and MPSRF over growing prefixes of the traces.

    ``traces`` are ChainTrace objects (or anything with a ``thetas``
    array); all must have equal length and parameter count. The shifted
    sums grow segment by segment between the sorted checkpoints.
    Checkpoints needing fewer than 2 draws, beyond the trace length, or
    hitting degenerate within-chain variance (common early on with
    single-component updates), are skipped with a notice.
    """
    thetas = [np.asarray(t.thetas, dtype=float) for t in traces]
    shapes = {t.shape for t in thetas}
    if len(shapes) > 1:
        raise ArgumentError(f"trace shapes differ: {sorted(shapes)}",
                            module=_MOD)
    full = _as_chain_matrix(thetas, min_draws=0)  # (k, L, n)
    k, L, n = full.shape
    first = full[:, :1]
    s1, s2 = np.zeros((k, n)), np.zeros((k, n, n))
    done = 0
    report = DiagnosticsReport([], [], [])
    for c in sorted(checkpoints):
        if c < 2:
            report.notices.append(f"checkpoint {c}: fewer than 2 draws, skipped")
            continue
        if c > L:
            report.notices.append(f"checkpoint {c}: beyond trace length, skipped")
            continue
        d1, d2 = _shifted_sums(full[:, done:c], first)
        s1 += d1
        s2 += d2
        done = c
        try:
            W = _within(s1, s2, c)
            B = _between(first, s1, c)
            V = posterior_cov(W, B, k, c)
            p = psrf(W, V)
        except NumericalError as exc:
            report.notices.append(f"checkpoint {c}: {exc}")
            continue
        report.checkpoints.append(c)
        report.max_psrf.append(float(np.max(p)))
        report.mpsrf.append(mpsrf(W, B, k, c))
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
    if data.size and data.shape[1] != 3:
        raise ParseError(f"{path}: rows have {data.shape[1]} values, the "
                         "header 3", module=_MOD)
    checkpoints, max_psrf, mpsrf = data.reshape(-1, 3).T
    return DiagnosticsReport(checkpoints.astype(int).tolist(),
                             max_psrf.tolist(), mpsrf.tolist())
