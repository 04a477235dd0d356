"""Effective sample size by Geyer's initial monotone sequence estimator
(Geyer 1992, "Practical Markov chain Monte Carlo", section 3.3).

For one chain x_0..x_{n-1} with normalized autocorrelations rho_t, the
pair sums Gamma_m = rho_{2m} + rho_{2m+1} are positive and decreasing for
a reversible chain. The estimator keeps the initial run of positive pair
sums, forces it to be non-increasing, and sets

    tau = -1 + 2 * sum_m Gamma_m,    ESS = n / tau.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x):
    """Normalized autocorrelation rho_0..rho_{n-1} (biased estimator,
    divisor n), computed by FFT. A constant chain gives all zeros."""
    x = np.asarray(x, dtype=float)
    n = x.size
    dev = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    if acov[0] <= 0.0:
        return np.zeros(n)
    return acov / acov[0]


def ess_geyer(x):
    """Effective sample size of one chain. A constant chain carries no
    information about its variance and gets 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return 0.0
    rho = autocorrelation(x)
    if rho[0] == 0.0:
        return 0.0
    m = (n - 1) // 2
    pairs = rho[0:2 * m:2] + rho[1:2 * m:2]
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[:stop[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(np.sum(pairs))
    return n / tau


def summed_ess(chains):
    """Per parameter, the ESS summed over chains.

    ``chains`` is a sequence of (draws, parameters) arrays, which may
    differ in length.
    """
    chains = [np.asarray(c, dtype=float) for c in chains]
    return np.array([sum(ess_geyer(c[:, i]) for c in chains)
                     for i in range(chains[0].shape[1])])
