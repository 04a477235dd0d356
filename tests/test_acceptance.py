"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criterion 6 runs the full reference experiment
(two studies, 4 chains x 20000 iterations each, sampled as one stack of
8 chains); criteria 9 and 10 run once per proposal kind. README's "Tests"
section gives what each criterion costs.
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
from condflow.diagnostics import mpsrf, posterior_cov, psrf
from condflow.grid import ScalarField, make_grid
from condflow.kriging import snap_to_cells
from condflow import mcmc
from condflow.mcmc import run_study
from condflow.study import build_setup, sample_studies, study_report
from oracles import (
    between_chain_cov,
    cell_centers,
    dense_spectrum,
    energy_fraction,
    within_chain_cov,
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
    """Both studies of the reference experiment at the default config,
    sampled as run_reference_experiment samples them."""
    traces, _ = sample_studies(setup, (False, True))
    return {conditioned: (trs, study_report(setup, trs, conditioned))
            for conditioned, trs in zip((False, True), traces)}


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
    A = build_data_matrix(bundle.basis, setup.measurements)
    Q = bundle.projector
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
    centers = cell_centers(g)
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
    evals, _ = dense_spectrum(setup.bundle.fine, StudyConfig().kernel)
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
    # likelihood is flat, so keep the forward solves as cheap as possible.
    # 100000 draws, as one lockstep stack of 32 chains x 3125 iterations;
    # every chain starts at a prior draw and the target is the prior, so
    # no draw is burned in
    from test_mcmc import _small_bundle

    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12, n_modes=6)
    cfg = StudyConfig(iterations=3125, single_component=False, seed=7,
                      chains=32)
    (traces,) = run_study(cfg, bundle)
    thetas = np.concatenate([t.thetas for t in traces])
    mean_err = float(np.max(np.abs(thetas.mean(axis=0))))
    var_err = float(np.max(np.abs(thetas.var(axis=0) - 1.0)))
    ok = mean_err <= 0.05 and var_err <= 0.05
    _report(7, "flat-likelihood prior preservation", ok,
            f"{thetas.shape[0]} draws of 32 chains, max |mean| "
            f"{mean_err:.4f}, max |var - 1| {var_err:.4f}")


def test_criterion_8_determinism(tmp_path):
    from condflow.study import run_reference_experiment

    cfg_text = dict(chains=2, iterations=300, burn_in=50,
                    snapshots=(100, 300), verbosity=0)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = StudyConfig(output_dir=str(out), **cfg_text)
        run_reference_experiment(cfg)
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


@pytest.mark.parametrize("single_component", [True, False],
                         ids=["single_component", "full_vector"])
def test_criterion_9_conditioned_flat_likelihood_prior(single_component):
    # a conditioned chain samples theta whose nullspace coordinates
    # z = Q^T theta are the i.i.d. N(0, I) coefficients the projection
    # conditions; a flat likelihood must keep them so
    from test_mcmc import _small_bundle

    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12, n_modes=6)
    cfg = StudyConfig(iterations=3000, burn_in=500, conditioned=True,
                      single_component=single_component, seed=90, chains=32)
    (traces,) = run_study(cfg, bundle)
    z = (np.concatenate([t.thetas[cfg.burn_in:] for t in traces])
         @ bundle.projector)
    mean_err = float(np.max(np.abs(z.mean(axis=0))))
    var_err = float(np.max(np.abs(z.var(axis=0) - 1.0)))
    ok = mean_err <= 0.05 and var_err <= 0.05
    kind = "single-component" if single_component else "full-vector"
    _report(9, f"conditioned flat-likelihood prior, {kind}", ok,
            f"{z.shape[1]} nullspace coordinates, max |mean| "
            f"{mean_err:.4f}, max |var - 1| {var_err:.4f}")


def _posterior_moments(log_density, dim):
    """Mean and marginal variances of the density exp(log_density) on
    R^dim, by the trapezoid rule on tensor grids. The first pass spans
    [-6.5, 6.5]^dim; each later pass is centred on the previous mean and
    whitened by the Cholesky factor of the previous covariance, so its
    step resolves the narrowest posterior direction (mode 2's sd is
    0.083 in the unconditioned case) and its span covers 8 sd along
    each whitened axis."""
    mean, root = np.zeros(dim), np.eye(dim)
    for half, k in ((6.5, 41), (8.0, 31), (8.0, 41)):
        u = np.linspace(-half, half, k)
        nodes = np.stack(np.meshgrid(*[u] * dim, indexing="ij"), axis=-1)
        pts = mean + nodes.reshape(-1, dim) @ root.T
        logp = np.concatenate([log_density(part) for part in
                               np.array_split(pts, -(-len(pts) // 20000))])
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean = w @ pts
        dev = pts - mean
        cov = (w * dev.T) @ dev
        root = np.linalg.cholesky(cov)
    return mean, np.diag(cov)


@pytest.mark.parametrize("single_component", [True, False],
                         ids=["single_component", "full_vector"])
def test_criterion_10_two_stage_posterior(single_component):
    # delayed acceptance samples the fine posterior only with the coarse
    # term in alpha_f = min(1, exp((llf_p - llf) - (llc_p - llc))). The
    # oracle is prior x fine likelihood by quadrature: over the 3 KL
    # coefficients unconditioned, and over the 2 nullspace coordinates
    # z = Q^T theta conditioned (4 modes, 2 measurements), since a
    # conditioned field depends on theta only through z. The coarse
    # likelihood must be at least as sharp as the fine one for a wrong
    # correction to show: with sigma_c2 = 5e-3 a dropped or sign-flipped
    # coarse term reached only |z| 2.1 to 4.5 unconditioned, and the
    # dropped term passed the full-vector case. Standard errors come from
    # the spread of the 32 independent chains' means and mean squared
    # deviations. A fourth quadrature pass of 81 points per axis over
    # 10 sd moved no moment by more than 4e-11, far below every standard
    # error.
    from test_mcmc import _small_bundle

    worst, parts = 0.0, []
    for conditioned, n_modes in ((False, 3), (True, 4)):
        bundle, _, _ = _small_bundle(sigma_c2=5e-4, sigma_f2=1e-3,
                                     n_modes=n_modes)
        Q = bundle.projector if conditioned else np.eye(n_modes)

        def log_density(z):
            fields = mcmc.synthesize(bundle, z @ Q.T, conditioned)
            return (mcmc._fine_step(fields, bundle)
                    - 0.5 * np.sum(z * z, axis=1))

        mean, var = _posterior_moments(log_density, Q.shape[1])
        cfg = StudyConfig(iterations=4000, burn_in=500,
                          conditioned=conditioned,
                          single_component=single_component, seed=300,
                          chains=32)
        (traces,) = run_study(cfg, bundle)
        z = np.array([t.thetas[cfg.burn_in:] for t in traces]) @ Q
        zs = []
        for per_chain, target in ((z.mean(axis=1), mean),
                                  (((z - mean) ** 2).mean(axis=1), var)):
            se = per_chain.std(axis=0, ddof=1) / np.sqrt(cfg.chains)
            zs.append(np.abs(per_chain.mean(axis=0) - target) / se)
        case_worst = float(np.max(zs))
        worst = max(worst, case_worst)
        parts.append(f"{'conditioned' if conditioned else 'unconditioned'} "
                     f"max |z| {case_worst:.2f} (mean {np.max(zs[0]):.2f}, "
                     f"var {np.max(zs[1]):.2f})")
    kind = "single-component" if single_component else "full-vector"
    _report(10, f"two-stage posterior, {kind}", worst <= 4.0,
            "; ".join(parts))
