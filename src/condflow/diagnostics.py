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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError, NumericalError

_MOD = "diagnostics"


def _as_chain_matrix(chains):
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 3:
        raise ArgumentError(
            "chain matrix must have shape (chains, draws, parameters)",
            module=_MOD,
        )
    k, l, _ = arr.shape
    if k < 2 or l < 2:
        raise ArgumentError(
            f"need at least 2 chains and 2 draws, got k={k}, l={l}",
            module=_MOD,
        )
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("chain matrix contains non-finite values",
                            module=_MOD)
    return arr


def within_chain_cov(chains):
    """Average per-chain sample covariance W (denominator l-1)."""
    arr = _as_chain_matrix(chains)
    k, l, n = arr.shape
    dev = arr - arr.mean(axis=1, keepdims=True)
    per_chain = dev.var(axis=1)  # (k, n)
    constant = np.flatnonzero(np.all(per_chain == 0.0, axis=1))
    if constant.size:
        raise NumericalError(
            f"chain(s) {constant.tolist()} have zero variance in every "
            "parameter",
            module=_MOD, code="degenerate",
        )
    return np.einsum("jci,jcm->im", dev, dev) / (k * (l - 1))


def between_chain_cov(chains):
    """Between-chain covariance B of the chain means."""
    arr = _as_chain_matrix(chains)
    k, l, n = arr.shape
    means = arr.mean(axis=1)
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
    """Checkpoint series of (draw count, max PSRF, MPSRF) plus the final
    W, B, V matrices; checkpoints skipped as degenerate are listed in
    ``notices``."""

    checkpoints: list
    max_psrf: list
    mpsrf: list
    W: np.ndarray = field(repr=False, default=None)
    B: np.ndarray = field(repr=False, default=None)
    V: np.ndarray = field(repr=False, default=None)
    notices: list = field(default_factory=list)


def diagnostics_series(traces, checkpoints):
    """Evaluate max PSRF and MPSRF over growing prefixes of the traces.

    ``traces`` are ChainTrace objects (or anything with a ``thetas``
    array); all must have equal length. Checkpoints needing fewer than
    2 draws, or hitting degenerate within-chain variance (common early
    on with single-component updates), are skipped with a notice.
    """
    thetas = [np.asarray(t.thetas, dtype=float) for t in traces]
    if len(thetas) < 2:
        raise ArgumentError("need at least 2 chains", module=_MOD)
    lengths = {t.shape[0] for t in thetas}
    if len(lengths) != 1:
        raise ArgumentError(f"trace lengths differ: {sorted(lengths)}",
                            module=_MOD)
    full = np.stack(thetas)  # (k, L, n)
    k, L, n = full.shape
    report = DiagnosticsReport([], [], [])
    for c in sorted(checkpoints):
        if c < 2:
            report.notices.append(f"checkpoint {c}: fewer than 2 draws, skipped")
            continue
        if c > L:
            report.notices.append(f"checkpoint {c}: beyond trace length, skipped")
            continue
        chains = full[:, :c, :]
        try:
            W = within_chain_cov(chains)
            B = between_chain_cov(chains)
            V = posterior_cov(W, B, k, c)
            p = psrf(W, V)
        except NumericalError as exc:
            report.notices.append(f"checkpoint {c}: {exc}")
            continue
        report.checkpoints.append(c)
        report.max_psrf.append(float(np.max(p)))
        report.mpsrf.append(mpsrf(W, B, k, c))
        report.W, report.B, report.V = W, B, V
    return report


def _write_report(report, path, header, sep):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(report.checkpoints, report.max_psrf, report.mpsrf):
            fh.write(sep.join(format(v, ".17g") for v in row) + "\n")


def write_report_csv(report, path):
    """Checkpoint series as CSV: checkpoint, max_psrf, mpsrf."""
    _write_report(report, path, "checkpoint,max_psrf,mpsrf", ",")


def write_report_dat(report, path):
    """Whitespace-separated series for plotting (gnuplot style)."""
    _write_report(report, path, "# checkpoint max_psrf mpsrf", " ")


def read_report_csv(path):
    report = DiagnosticsReport([], [], [])
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "checkpoint,max_psrf,mpsrf":
            raise ArgumentError(f"{path}: not a diagnostics CSV", module=_MOD)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            c, p, m = line.split(",")
            report.checkpoints.append(int(c))
            report.max_psrf.append(float(p))
            report.mpsrf.append(float(m))
    return report
