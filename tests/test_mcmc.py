import warnings
from dataclasses import replace

import numpy as np
import pytest

from condflow import darcy, kle
from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    project,
    synthesize_conditioned,
)
from condflow.config import StudyConfig
from condflow.covariance import KernelParams, assemble_covariance
from condflow.darcy import (
    BoundaryConditions,
    observe_pressure,
    solve_pressure,
    upscale,
)
from condflow.errors import ArgumentError, CondflowError, NumericalError
from condflow.grid import ScalarField, chessboard_mask, make_grid
from condflow.kle import solve_kle, synthesize_unconditioned
from condflow.kriging import MeasurementSet, krige, snap_to_cells
from condflow.mcmc import (
    ChainTrace,
    LikelihoodParams,
    ModelBundle,
    coarse_accept_prob,
    fine_accept_prob,
    log_likelihood,
    read_trace_csv,
    run_chain,
    run_study,
    rws_propose,
    write_trace_csv,
)


def _small_bundle(sigma_c2=5e-3, sigma_f2=1e-4, n_modes=6, ref_seed=9):
    """Cheap 4x4 fine / 2x2 coarse inversion problem."""
    fine = make_grid(4, 4)
    coarse = make_grid(2, 2)
    params = KernelParams()
    basis = solve_kle(assemble_covariance(fine, params), fine, n_modes)
    rng = np.random.default_rng(ref_seed)
    ref = synthesize_unconditioned(basis, rng.standard_normal(n_modes))
    ms = MeasurementSet(np.array([[0.3, 0.3], [0.7, 0.7]]),
                        ref.values[snap_to_cells(
                            MeasurementSet(np.array([[0.3, 0.3], [0.7, 0.7]]),
                                           np.zeros(2)), fine)])
    kriged = krige(ms, params, fine)
    projector = nullspace_basis(build_data_matrix(basis, ms, fine))
    bc = BoundaryConditions()
    fm, cm = chessboard_mask(fine), chessboard_mask(coarse)
    rof = observe_pressure(solve_pressure(ref, bc), fm)
    roc = observe_pressure(
        solve_pressure(upscale(ref, fine, coarse), bc), cm)
    bundle = ModelBundle(basis, fine, coarse, bc, fm, cm, rof, roc,
                         LikelihoodParams(sigma_c2, sigma_f2),
                         projector, kriged)
    return bundle, ms, ref


def test_log_likelihood_zero_residual():
    assert log_likelihood([1.0, 2.0], [1.0, 2.0], 0.5) == 0.0


def test_log_likelihood_value():
    # residual norm^2 = 2 with sigma2 = 1 gives -1
    assert log_likelihood([0.0, 0.0], [1.0, 1.0], 1.0) == -1.0


def test_log_likelihood_scaling():
    ll1 = log_likelihood([0.0], [0.3], 1.0)
    ll2 = log_likelihood([0.0], [0.3], 0.5)
    assert ll2 == pytest.approx(2.0 * ll1)


def test_log_likelihood_length_mismatch():
    with pytest.raises(ArgumentError):
        log_likelihood([1.0], [1.0, 2.0], 1.0)


def test_rws_beta_zero():
    rng = np.random.default_rng(0)
    theta = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(rws_propose(theta, 0.0, rng), theta)


def test_rws_beta_one_full_vector():
    rng = np.random.default_rng(1)
    theta = np.full(5, 100.0)
    prop = rws_propose(theta, 1.0, rng, single_component=False)
    assert np.all(np.abs(prop) < 50.0)  # no memory of theta survives


def test_rws_single_component_changes_one():
    rng = np.random.default_rng(2)
    theta = np.zeros(10)
    prop = rws_propose(theta, 0.85, rng, single_component=True)
    assert np.count_nonzero(prop - theta) == 1


def test_rws_stationarity():
    # theta ~ N(0,1) componentwise stays N(0,1) after one full-vector step
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(100_000)
    beta = 0.85
    prop = np.sqrt(1 - beta**2) * theta + beta * rng.standard_normal(
        theta.size)
    assert abs(prop.var() - 1.0) < 0.03


def test_coarse_accept_prob():
    assert coarse_accept_prob(-1.0, -1.0) == 1.0
    assert coarse_accept_prob(0.0, -np.log(2.0)) == 1.0
    assert coarse_accept_prob(-np.log(4.0), 0.0) == pytest.approx(0.25)


def test_fine_accept_prob():
    assert fine_accept_prob(-1.0, -2.0, -3.0, -4.0) == 1.0
    assert fine_accept_prob(
        -0.0, -np.log(2.0), 0.0, -np.log(8.0)) == pytest.approx(0.25)
    assert fine_accept_prob(-1.0, -1.0, -1.0, -1.0) == 1.0


def test_flat_likelihood_accepts_everything():
    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12)
    cfg = StudyConfig(iterations=200, seed=1)
    trace = run_chain(cfg, bundle)
    assert np.all(trace.coarse_accepted)
    assert np.sum(trace.fine_accepted) == np.sum(trace.coarse_accepted)


def test_reference_start_tiny_beta_high_acceptance():
    bundle, _, ref = _small_bundle()
    cfg = StudyConfig(beta=1e-6, iterations=200, seed=2)
    # start at the reference coefficients: proposals barely move
    basis = bundle.basis
    theta_ref = (basis.phi.T @ ref.values) * (bundle.fine.hx * bundle.fine.hy)
    theta_ref /= basis.sqrt_lambdas
    trace = run_chain(cfg, bundle, initial_theta=theta_ref)
    assert trace.fine_rate > 0.95


def test_trace_repetition_rule():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=300, seed=3)
    trace = run_chain(cfg, bundle)
    for it in range(1, trace.iterations):
        if not trace.fine_accepted[it]:
            assert np.array_equal(trace.thetas[it], trace.thetas[it - 1])
        else:
            assert not np.array_equal(trace.thetas[it], trace.thetas[it - 1])


def test_conditioned_chain_honors_measurements():
    bundle, ms, _ = _small_bundle()
    cells = snap_to_cells(ms, bundle.fine)
    cfg = StudyConfig(iterations=150, seed=4, conditioned=True)
    trace = run_chain(cfg, bundle)
    for it in range(trace.iterations):
        fld = synthesize_conditioned(bundle.basis, bundle.kriged,
                                     trace.thetas[it], bundle.projector)
        assert np.abs(fld.values[cells] - ms.values).max() <= 1e-9


def test_reproducibility():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=200, seed=5)
    t1 = run_chain(cfg, bundle)
    t2 = run_chain(cfg, bundle)
    assert np.array_equal(t1.thetas, t2.thetas)
    assert np.array_equal(t1.fine_accepted, t2.fine_accepted)
    assert np.array_equal(t1.loglik_fine, t2.loglik_fine)


def test_store_projected_state_stays_in_nullspace():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=150, seed=6, conditioned=True,
                      store_projected=True)
    trace = run_chain(cfg, bundle)
    accepted = trace.thetas[trace.fine_accepted]
    for theta in accepted:
        assert np.max(np.abs(project(theta, bundle.projector) - theta)) \
            <= 1e-10


def test_run_study_duplicate_seed_warns():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=20, seed=0)
    with pytest.warns(UserWarning, match="duplicate"):
        traces = run_study(cfg, bundle, [7, 7])
    assert np.array_equal(traces[0].thetas, traces[1].thetas)
    # one seed twice in the same study of a joint stack still warns
    with pytest.warns(UserWarning, match="duplicate"):
        run_study(cfg, bundle, [7, 7, 7], conditioned=[False, False, True])


def test_run_study_paired_seeds_across_studies_do_not_warn():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=20, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_study(cfg, bundle, [7, 8, 7, 8],
                  conditioned=[False, False, True, True])


def test_run_study_single_and_multi():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=20, seed=0)
    assert len(run_study(cfg, bundle, [1])) == 1
    traces = run_study(cfg, bundle, [1, 2, 3, 4])
    assert len(traces) == 4


def test_trace_csv_round_trip(tmp_path):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=50, seed=8)
    trace = run_chain(cfg, bundle)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.thetas, trace.thetas)
    assert np.array_equal(back.coarse_accepted, trace.coarse_accepted)
    assert np.array_equal(back.fine_accepted, trace.fine_accepted)
    assert np.array_equal(back.loglik_fine, trace.loglik_fine)
    assert back.seed is None  # a trace CSV does not record its seed


def test_trace_after_burn_in():
    trace = ChainTrace(np.arange(12.0).reshape(6, 2),
                       np.arange(6) % 2 == 0, np.arange(6) % 3 == 0,
                       -np.arange(6.0), seed=5)
    kept = trace.after_burn_in(4)
    assert np.array_equal(kept.thetas, trace.thetas[4:])
    assert np.array_equal(kept.coarse_accepted, [True, False])
    assert np.array_equal(kept.fine_accepted, [False, False])
    assert np.array_equal(kept.loglik_fine, [-4.0, -5.0])
    assert (kept.iterations, kept.seed) == (2, 5)
    assert trace.iterations == 6


def test_conditioned_requires_projector():
    bundle, _, _ = _small_bundle()
    from dataclasses import replace

    stripped = replace(bundle, projector=None, kriged=None)
    with pytest.raises(ArgumentError):
        run_chain(StudyConfig(iterations=5, conditioned=True), stripped)
    # one conditioned chain in a joint stack needs them too
    with pytest.raises(ArgumentError, match="projector"):
        run_study(StudyConfig(iterations=5), stripped, [1, 2],
                  conditioned=[False, True])


def test_run_study_needs_one_flag_per_seed():
    bundle, _, _ = _small_bundle()
    with pytest.raises(ArgumentError, match="one conditioned flag per seed"):
        run_study(StudyConfig(iterations=5), bundle, [1, 2],
                  conditioned=[True])


def test_chain_config_validation():
    with pytest.raises(ArgumentError):
        StudyConfig(beta=1.5)
    with pytest.raises(ArgumentError):
        StudyConfig(iterations=0)


def test_single_stage_flat_likelihood_prior_preserved():
    # flat likelihood + full-vector RWS: the sampler preserves N(0, I)
    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12, n_modes=4)
    cfg = StudyConfig(iterations=20_000, seed=10, single_component=False)
    trace = run_chain(cfg, bundle)
    mean = trace.thetas.mean(axis=0)
    var = trace.thetas.var(axis=0)
    assert np.all(np.abs(mean) < 0.1)
    assert np.all(np.abs(var - 1.0) < 0.1)


def _reference_chain(cfg, bundle):
    """The two-stage sampler written out from the public pieces. On a
    coarse acceptance it recomputes the whole forward model of the
    proposal, synthesis and coarse solve included."""

    def forward(theta, want_fine):
        if cfg.conditioned:
            fld = synthesize_conditioned(bundle.basis, bundle.kriged, theta,
                                         bundle.projector)
        else:
            fld = synthesize_unconditioned(bundle.basis, theta)
        pc = solve_pressure(upscale(fld, bundle.fine, bundle.coarse), bundle.bc)
        llc = log_likelihood(observe_pressure(pc, bundle.coarse_mask),
                             bundle.ref_obs_coarse, bundle.likelihood.sigma_c2)
        if not want_fine:
            return llc, None
        pf = solve_pressure(fld, bundle.bc)
        return llc, log_likelihood(observe_pressure(pf, bundle.fine_mask),
                                   bundle.ref_obs_fine,
                                   bundle.likelihood.sigma_f2)

    rng = np.random.default_rng(cfg.seed)
    theta = rng.standard_normal(bundle.basis.n)
    llc, llf = forward(theta, want_fine=True)
    thetas, coarse, fine, logliks = [], [], [], []
    for _ in range(cfg.iterations):
        theta_p = rws_propose(theta, cfg.beta, rng, cfg.single_component)
        llc_p, _ = forward(theta_p, want_fine=False)
        c_acc = f_acc = False
        if rng.random() < coarse_accept_prob(llc_p, llc):
            c_acc = True
            _, llf_p = forward(theta_p, want_fine=True)
            if rng.random() < fine_accept_prob(llf_p, llf, llc_p, llc):
                f_acc = True
                theta = (project(theta_p, bundle.projector)
                         if cfg.conditioned and cfg.store_projected
                         else theta_p)
                llc, llf = llc_p, llf_p
        thetas.append(theta)
        coarse.append(c_acc)
        fine.append(f_acc)
        logliks.append(llf)
    return np.array(thetas), np.array(coarse), np.array(fine), np.array(logliks)


@pytest.mark.parametrize("conditioned, single_component, store_projected", [
    (False, True, False),
    (False, False, False),
    (True, True, False),
    (True, False, False),
    (True, True, True),
])
def test_run_chain_matches_reference_loop(conditioned, single_component,
                                          store_projected):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60, seed=11,
                      conditioned=conditioned,
                      single_component=single_component,
                      store_projected=store_projected)
    trace = run_chain(cfg, bundle)
    thetas, coarse, fine, logliks = _reference_chain(cfg, bundle)
    # both stages decide somewhere, so the fine step and its reuse run
    assert 0 < np.sum(trace.fine_accepted) < np.sum(trace.coarse_accepted)
    assert np.array_equal(trace.thetas, thetas)
    assert np.array_equal(trace.coarse_accepted, coarse)
    assert np.array_equal(trace.fine_accepted, fine)
    assert np.array_equal(trace.loglik_fine, logliks)


@pytest.mark.parametrize("conditioned, single_component, store_projected", [
    (False, True, False),
    (False, False, False),
    (True, True, False),
    (True, False, False),
    (True, True, True),
])
def test_run_study_matches_reference_loop(conditioned, single_component,
                                          store_projected):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60, conditioned=conditioned,
                      single_component=single_component,
                      store_projected=store_projected)
    seeds = [11, 12, 13, 14]
    traces = run_study(cfg, bundle, seeds)
    coarse = np.array([t.coarse_accepted for t in traces])
    # some iterations stack only part of the chains for the fine solve
    assert np.any(coarse.any(axis=0) & ~coarse.all(axis=0))
    for seed, trace in zip(seeds, traces):
        want = _reference_chain(replace(cfg, seed=seed), bundle)
        assert trace.seed == seed
        assert np.array_equal(trace.thetas, want[0])
        assert np.array_equal(trace.coarse_accepted, want[1])
        assert np.array_equal(trace.fine_accepted, want[2])
        assert np.array_equal(trace.loglik_fine, want[3])


@pytest.mark.parametrize("store_projected", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("interleaved", [False, True])
def test_joint_studies_equal_separate_studies(store_projected, k,
                                               interleaved):
    # the chains of both studies in one stack sample exactly what each
    # study samples on its own, whatever the order of the flags
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60, store_projected=store_projected)
    seeds = [31 + c for c in range(k)]
    if interleaved:
        joint_seeds = [s for s in seeds for _ in (False, True)]
        flags = [f for _ in seeds for f in (False, True)]
    else:
        joint_seeds, flags = seeds + seeds, [False] * k + [True] * k
    joint = run_study(cfg, bundle, joint_seeds, conditioned=flags)
    coarse = np.array([t.coarse_accepted for t in joint])
    # some fine stacks hold only the chains that passed the coarse stage
    assert np.any(coarse.any(axis=0) & ~coarse.all(axis=0))
    assert all(t.fine_accepted.any() for t in joint)
    for flag in (False, True):
        alone = run_study(replace(cfg, conditioned=flag), bundle, seeds)
        got = [t for t, f in zip(joint, flags) if f == flag]
        for g, w in zip(got, alone):
            assert g.seed == w.seed
            assert np.array_equal(g.thetas, w.thetas)
            assert np.array_equal(g.coarse_accepted, w.coarse_accepted)
            assert np.array_equal(g.fine_accepted, w.fine_accepted)
            assert np.array_equal(g.loglik_fine, w.loglik_fine)


@pytest.mark.parametrize("conditioned", [False, True])
def test_chain_does_not_depend_on_its_companions(conditioned):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=40, conditioned=conditioned)
    seeds = [21, 22, 23, 24]
    inits = np.random.default_rng(5).standard_normal((4, bundle.basis.n))
    together = run_study(cfg, bundle, seeds)
    together_init = run_study(cfg, bundle, seeds, initial_thetas=inits)
    for c, seed in enumerate(seeds):
        for got, init in ((together[c], None), (together_init[c], inits[c])):
            alone = run_study(cfg, bundle, [seed],
                              initial_thetas=None if init is None else [init])
            assert np.array_equal(got.thetas, alone[0].thetas)
            assert np.array_equal(got.coarse_accepted,
                                  alone[0].coarse_accepted)
            assert np.array_equal(got.fine_accepted, alone[0].fine_accepted)
            assert np.array_equal(got.loglik_fine, alone[0].loglik_fine)
        # the given initial states are the ones sampled from
        assert not np.array_equal(together_init[c].thetas,
                                  together[c].thetas)


@pytest.mark.parametrize("fail_call, where", [
    (1, "the initial state"),  # coarse solve of the initial state
    (2, "the initial state"),  # fine solve of the initial state
    (3, "iteration 0"),        # coarse solve of the first proposal
    (18, "iteration 7"),       # fine solve of the eighth proposal
])
def test_forward_failure_names_where(monkeypatch, fail_call, where):
    # flat likelihood: every proposal passes the coarse stage, so each
    # iteration makes exactly two pressure solves
    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12)
    calls = []
    original = darcy.solve_pressure

    def failing(logperm, bc):
        calls.append(logperm.grid)
        if len(calls) == fail_call:
            raise NumericalError("injected", module="darcy", code="singular")
        return original(logperm, bc)

    monkeypatch.setattr(darcy, "solve_pressure", failing)
    with pytest.raises(CondflowError) as info:
        run_chain(StudyConfig(iterations=20, seed=1), bundle)
    assert (info.value.module, info.value.code) == ("mcmc", "forward")
    assert f"{where}:" in str(info.value)
    assert isinstance(info.value.__cause__, NumericalError)
    assert len(calls) == fail_call

    # two chains in lockstep share each stacked solve, so the same call
    # fails at the same place
    calls.clear()
    with pytest.raises(CondflowError) as info:
        run_study(StudyConfig(iterations=20), bundle, [1, 2])
    assert (info.value.module, info.value.code) == ("mcmc", "forward")
    assert f"{where}:" in str(info.value)
    assert isinstance(info.value.__cause__, NumericalError)
    assert len(calls) == fail_call


def test_singular_upscaling_is_a_forward_failure(monkeypatch):
    # k = exp(-800) underflows to 0, so the first upscaling is singular
    bundle, _, _ = _small_bundle()
    monkeypatch.setattr(kle, "synthesize_unconditioned",
                        lambda basis, theta: ScalarField(
                            bundle.fine, np.full(bundle.fine.n_cells, -800.0)))
    with np.errstate(divide="ignore"), pytest.raises(CondflowError) as info:
        run_chain(StudyConfig(iterations=5, seed=1), bundle)
    assert (info.value.module, info.value.code) == ("mcmc", "forward")
    assert "for the initial state:" in str(info.value)
    assert isinstance(info.value.__cause__, NumericalError)
    assert info.value.__cause__.code == "singular"
