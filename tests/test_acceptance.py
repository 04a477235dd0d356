"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criterion 6 runs the full reference experiment
(two studies, 4 chains x 20000 iterations each) and takes about 105 s
on two cores; criterion 7 takes about 50 s;
everything else finishes in seconds.
"""

import filecmp
import sys

import numpy as np
import pytest

from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    project,
    synthesize_conditioned,
)
from condflow.config import StudyConfig
from condflow.darcy import BoundaryConditions, boundary_fluxes, solve_pressure
from condflow.diagnostics import (
    between_chain_cov,
    mpsrf,
    posterior_cov,
    psrf,
    within_chain_cov,
)
from condflow.grid import ScalarField, make_grid
from condflow.kle import energy_fraction, full_spectrum
from condflow.kriging import snap_to_cells
from condflow.mcmc import ChainConfig, run_chain, run_study
from condflow.study import (
    build_setup,
    chain_config,
    chain_seeds,
    study_report,
)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def setup():
    return build_setup(StudyConfig())


@pytest.fixture(scope="module")
def reference_run(setup):
    """Both studies of the reference experiment at the default config."""
    cfg = setup.cfg
    seeds = chain_seeds(cfg)
    out = {}
    for conditioned in (False, True):
        traces = run_study(chain_config(cfg, conditioned), setup.bundle,
                           seeds)
        out[conditioned] = (traces, study_report(setup, traces, conditioned))
    return out


def test_criterion_1_data_honoring(setup):
    bundle = setup.bundle
    ms = setup.measurements
    cells = snap_to_cells(ms, bundle.fine)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        theta = rng.standard_normal(bundle.basis.n)
        fld = synthesize_conditioned(bundle.basis, bundle.kriged, theta,
                                     bundle.projector)
        worst = max(worst, np.max(np.abs(fld.values[cells] - ms.values)))
    _report(1, "data honoring", worst <= 1e-9,
            f"max abs error {worst:.2e} over 1000 draws")


def test_criterion_2_projector_algebra(setup):
    bundle = setup.bundle
    A = build_data_matrix(bundle.basis, setup.measurements, bundle.fine).A
    Q = bundle.projector.Q
    P = Q @ Q.T
    checks = {
        "P^2 - P": np.max(np.abs(P @ P - P)),
        "P - P^T": np.max(np.abs(P - P.T)),
        "A Q": np.max(np.abs(A @ Q)),
        "Q^T Q - I": np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))),
    }
    worst = max(checks.values())
    detail = ", ".join(f"{k} = {v:.2e}" for k, v in checks.items())
    _report(2, "projector algebra", worst <= 1e-10,
            f"A is {A.shape[0]}x{A.shape[1]}; {detail}")


def test_criterion_3_elliptic_solver():
    g = make_grid(16, 16)
    bc = BoundaryConditions()

    uniform = solve_pressure(ScalarField(g, np.full(g.n_cells, 0.7)), bc)
    centers = g.cell_centers()
    linear_err = np.max(np.abs(uniform.values - (1.0 - centers[:, 0])))

    # two vertical layers k=1 (left) and k=4 (right): series resistance
    logk = np.where(centers[:, 0] < 0.5, 0.0, np.log(4.0))
    layered = ScalarField(g, logk)
    q_in, q_out = boundary_fluxes(layered, solve_pressure(layered, bc), bc)
    expected = 1.0 / (0.5 / 1.0 + 0.5 / 4.0)
    flux_err = max(abs(q_in - expected), abs(q_out - expected))

    rng = np.random.default_rng(3)
    violation = 0.0
    for _ in range(100):
        fld = ScalarField(g, rng.standard_normal(g.n_cells))
        p = solve_pressure(fld, bc).values
        violation = max(violation, -p.min(), p.max() - 1.0)

    ok = linear_err <= 1e-12 and flux_err <= 1e-10 and violation <= 1e-10
    _report(3, "elliptic solver suite", ok,
            f"linear {linear_err:.2e}, flux {flux_err:.2e}, "
            f"max-principle violation {violation:.2e}")


def test_criterion_4_kle_energy(setup):
    g = setup.bundle.fine
    from condflow.covariance import KernelParams, assemble_covariance

    cov = assemble_covariance(g, KernelParams())
    evals, _ = full_spectrum(cov, g)
    energy20 = energy_fraction(evals, 20)
    monotone = bool(np.all(np.diff(evals) <= 0))
    energy10 = energy_fraction(evals, 10)
    ok = energy20 >= 0.95 and monotone and energy10 >= 0.9
    _report(4, "KLE energy", ok,
            f"E(20) = {energy20:.6f}, E(10) = {energy10:.4f}, "
            f"monotone decay {monotone}")


def test_criterion_5_diagnostics_oracle():
    # hand computation at k=2 chains, l=3 draws, n=2 parameters
    c0 = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    c1 = np.array([[1.0, 1.0], [3.0, 2.0], [2.0, 0.0]])
    chains = np.stack([c0, c1])
    k, l = 2, 3
    m0, m1 = c0.mean(axis=0), c1.mean(axis=0)
    W_hand = sum(np.outer(r - m, r - m)
                 for c, m in ((c0, m0), (c1, m1)) for r in c) / (k * (l - 1))
    mall = (m0 + m1) / 2
    B_hand = l / (k - 1) * sum(np.outer(m - mall, m - mall)
                               for m in (m0, m1))
    V_hand = (l - 1) / l * W_hand + (1 + 1 / k) * B_hand / l
    lam = np.max(np.linalg.eigvals(np.linalg.inv(W_hand) @ B_hand / l)).real
    mpsrf_hand = np.sqrt((l - 1) / l + (k + 1) / k * lam)

    W = within_chain_cov(chains)
    B = between_chain_cov(chains)
    V = posterior_cov(W, B, k, l)
    err = max(
        np.max(np.abs(W - W_hand)),
        np.max(np.abs(B - B_hand)),
        np.max(np.abs(V - V_hand)),
        np.max(np.abs(psrf(W, V) - np.sqrt(np.diag(V_hand)
                                           / np.diag(W_hand)))),
        abs(mpsrf(W, B, k, l) - mpsrf_hand),
    )

    rng = np.random.default_rng(5)
    margin = np.inf
    for _ in range(100):
        kk = int(rng.integers(2, 6))
        ll = int(rng.integers(5, 40))
        nn = int(rng.integers(1, 5))
        ch = rng.standard_normal((kk, ll, nn)) \
            + rng.standard_normal((kk, 1, nn))
        Wr = within_chain_cov(ch)
        Br = between_chain_cov(ch)
        Vr = posterior_cov(Wr, Br, kk, ll)
        margin = min(margin, mpsrf(Wr, Br, kk, ll) - np.max(psrf(Wr, Vr)))

    ok = err <= 1e-12 and margin >= -1e-8
    _report(5, "diagnostics oracle", ok,
            f"hand-value error {err:.2e}, min(MPSRF - max PSRF) "
            f"= {margin:.2e} over 100 random cases")


def test_criterion_6_reference_reproduction(reference_run):
    uncond_traces, uncond_rep = reference_run[False]
    cond_traces, cond_rep = reference_run[True]
    uncond_rate = float(np.mean([t.fine_rate for t in uncond_traces]))
    cond_rate = float(np.mean([t.fine_rate for t in cond_traces]))

    a = (cond_rate > uncond_rate
         and abs(cond_rate - 0.60) <= 0.15
         and abs(uncond_rate - 0.53) <= 0.15)
    b = (cond_rep.max_psrf[-1] < uncond_rep.max_psrf[-1]
         and cond_rep.mpsrf[-1] < uncond_rep.mpsrf[-1])
    c = cond_rep.mpsrf[-1] <= 1.2 < uncond_rep.mpsrf[-1]

    detail = (f"rates uncond {uncond_rate:.3f} / cond {cond_rate:.3f}; "
              f"max PSRF uncond {uncond_rep.max_psrf[-1]:.3f} / "
              f"cond {cond_rep.max_psrf[-1]:.3f}; "
              f"MPSRF uncond {uncond_rep.mpsrf[-1]:.3f} / "
              f"cond {cond_rep.mpsrf[-1]:.3f}; "
              f"(a)={a} (b)={b} (c)={c}")
    _report(6, "reference-experiment reproduction", a and b and c, detail)


def test_criterion_7_flat_likelihood_prior():
    # tiny inversion problem; the field model is irrelevant when the
    # likelihood is flat, so keep the forward solves as cheap as possible
    from test_mcmc import _small_bundle

    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12, n_modes=6)
    cfg = ChainConfig(iterations=100_000, seed=7, single_component=False)
    trace = run_chain(cfg, bundle)
    mean_err = float(np.max(np.abs(trace.thetas.mean(axis=0))))
    var_err = float(np.max(np.abs(trace.thetas.var(axis=0) - 1.0)))
    ok = mean_err <= 0.05 and var_err <= 0.05
    _report(7, "flat-likelihood prior preservation", ok,
            f"max |mean| {mean_err:.4f}, max |var - 1| {var_err:.4f}")


def test_criterion_8_determinism(tmp_path):
    from condflow.study import run_reference_experiment

    cfg_text = dict(chains=2, iterations=300, burn_in=50,
                    snapshots=(100, 300), verbosity=0)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = StudyConfig(output_dir=str(out), **cfg_text)
        run_reference_experiment(cfg, log=lambda *_: None)
        dirs.append(out)
    files = ("trace_uncond_chain1.csv", "trace_uncond_chain2.csv",
             "trace_cond_chain1.csv", "trace_cond_chain2.csv",
             "diagnostics_uncond.csv", "diagnostics_cond.csv",
             "acceptance_rates.csv")
    mismatched = [f for f in files
                  if not filecmp.cmp(dirs[0] / f, dirs[1] / f, shallow=False)]
    _report(8, "determinism", not mismatched,
            "bitwise-identical traces and diagnostics" if not mismatched
            else f"differs: {mismatched}")
