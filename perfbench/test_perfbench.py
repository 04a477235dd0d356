"""Tests of the benchmark's own code: the ESS estimator and the tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import warnings

import numpy as np

from ess import ess_geyer, summed_ess
from tracing import Tracer, summarize


def ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


def test_ess_ar1_matches_theory():
    rho, n = 0.9, 200_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert abs(ess_geyer(ar1(rho, n, seed=1)) / expected - 1.0) < 0.10


def test_ess_iid_is_about_n():
    n = 20_000
    x = np.random.default_rng(2).standard_normal(n)
    assert abs(ess_geyer(x) / n - 1.0) < 0.10


def test_ess_constant_chain_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ess_geyer(np.full(500, 3.0)) == 0.0
        assert not np.any(summed_ess([np.full((500, 2), 1.0),
                                      np.full((500, 2), 2.0)]))


def test_summed_ess_sums_each_parameter_over_chains():
    rng = np.random.default_rng(3)
    n = 20_000
    chains = [np.column_stack([rng.standard_normal(n), ar1(0.9, n, seed=s)])
              for s in (4, 5)]
    per_param = [sum(ess_geyer(c[:, i]) for c in chains) for i in (0, 1)]
    assert summed_ess(chains).tolist() == per_param
    assert per_param[1] < per_param[0]


def test_tracer_spans_every_binding_and_restores_it():
    from condflow import darcy, mcmc, study
    from condflow.config import StudyConfig
    from condflow.grid import make_grid

    originals = (darcy.solve_pressure, study.solve_pressure, study.run_study,
                 mcmc.run_study)
    tracer = Tracer(make_grid(16, 16))
    tracer.install()
    try:
        assert study.solve_pressure is darcy.solve_pressure
        assert study.solve_pressure is not originals[0]
        study.build_setup(StudyConfig())
    finally:
        tracer.restore()
    assert (darcy.solve_pressure, study.solve_pressure, study.run_study,
            mcmc.run_study) == originals

    names = [s[0] for s in tracer.spans]
    root = names.index("study.build_setup")
    assert tracer.spans[root][3] == -1
    for name in ("covariance.assemble_covariance", "kle.solve_kle",
                 "kriging.krige", "conditioning.nullspace_basis",
                 "darcy.solve_pressure.fine", "darcy.solve_pressure.coarse",
                 "darcy.upscale"):
        span = tracer.spans[names.index(name)]
        assert span[3] == root
        assert tracer.spans[root][1] <= span[1] <= span[2] \
            <= tracer.spans[root][2]
    stats = summarize(tracer.spans)
    children = sum(s["total_s"] for name, s in stats.items()
                   if name != "study.build_setup")
    setup = stats["study.build_setup"]
    assert abs(setup["total_s"] - setup["self_s"] - children) < 1e-9
