import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condflow import darcy, kle
from condflow.conditioning import (
    build_data_matrix,
    nullspace_basis,
    synthesize_conditioned,
)
from condflow.config import StudyConfig
from condflow.covariance import assemble_covariance
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
    _metropolis,
    chain_seeds,
    log_likelihood,
    read_trace_csv,
    run_chain,
    run_study,
    rws_propose,
    write_trace_csv,
)


def _small_bundle(sigma_c2=5e-3, sigma_f2=1e-4, n_modes=6, ref_seed=9,
                  coarse_n=2):
    """Cheap 4x4 fine / coarse_n x coarse_n inversion problem: 2x2 blocks
    of fine cells, upscaled in closed form, at the default; at
    coarse_n = 1 one 4x4 block on the generic banded path."""
    fine = make_grid(4, 4)
    coarse = make_grid(coarse_n, coarse_n)
    cov = assemble_covariance(fine, StudyConfig().kernel)
    basis = solve_kle(cov, fine, n_modes)
    rng = np.random.default_rng(ref_seed)
    ref = synthesize_unconditioned(basis, rng.standard_normal(n_modes))
    ms = MeasurementSet(np.array([[0.3, 0.3], [0.7, 0.7]]),
                        ref.values[snap_to_cells(
                            MeasurementSet(np.array([[0.3, 0.3], [0.7, 0.7]]),
                                           np.zeros(2)), fine)])
    kriged = krige(ms, cov, fine)
    projector = nullspace_basis(build_data_matrix(basis, ms))
    bundle = ModelBundle(basis, coarse, ref,
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
    # coarse stage: min(1, exp(llc' - llc)); a log-ratio of at least 0 is
    # capped at 1 before exponentiating
    assert _metropolis(-1.0 - (-1.0)) == 1.0
    assert _metropolis(0.0 - (-np.log(2.0))) == 1.0
    assert _metropolis(-np.log(4.0) - 0.0) == pytest.approx(0.25)
    assert _metropolis(-1e4) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(1e4) would overflow
        assert _metropolis(1e4) == 1.0


def test_fine_accept_prob():
    # fine stage: min(1, exp((llf' - llf) - (llc' - llc))), the coarse
    # ratio divided out, in the order the sampler subtracts
    assert _metropolis((-1.0 - (-2.0)) - (-3.0 - (-4.0))) == 1.0
    assert _metropolis((-0.0 - (-np.log(2.0)))
                       - (0.0 - (-np.log(8.0)))) == pytest.approx(0.25)
    assert _metropolis((-1.0 - (-1.0)) - (-1.0 - (-1.0))) == 1.0


def test_flat_likelihood_accepts_everything():
    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12)
    cfg = StudyConfig(iterations=200, seed=1)
    trace = run_chain(cfg, bundle)
    assert np.all(trace.coarse_accepted)
    assert np.sum(trace.fine_accepted) == np.sum(trace.coarse_accepted)


def test_reference_start_tiny_beta_high_acceptance():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=1e-6, iterations=200, seed=2)
    # from the generator's first draw, proposals barely move
    trace = run_chain(cfg, bundle)
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


def test_run_study_single_and_multi():
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(iterations=20, seed=1)
    (traces,) = run_study(replace(cfg, chains=1), bundle)
    assert len(traces) == 1
    (traces,) = run_study(replace(cfg, chains=4), bundle)
    assert len(traces) == 4


def test_run_study_seeds_chain_c_of_every_study_alike():
    # chain c of each study is seeded with chain_seeds(cfg)[c], and its
    # trace is that of one chain run alone with that seed
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=20, seed=40, chains=3)
    assert chain_seeds(cfg) == [40, 41, 42]
    for flag, traces in zip((False, True), run_study(cfg, bundle,
                                                     (False, True))):
        assert [t.seed for t in traces] == chain_seeds(cfg)
        for trace in traces:
            alone = run_chain(replace(cfg, seed=trace.seed, conditioned=flag),
                              bundle)
            assert np.array_equal(trace.thetas, alone.thetas)
            assert np.array_equal(trace.loglik_fine, alone.loglik_fine)


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


def test_trace_writer_holds_a_block_not_the_trace(tmp_path):
    # a 12000 x 20 random walk, every value new: the writer's peak is
    # about 0.5 MB of one block's tokens, where one np.savetxt call over
    # the whole trace's table peaked at 2.4 MB
    rng = np.random.default_rng(0)
    coarse = rng.random(12000) < 0.9
    trace = ChainTrace(np.cumsum(rng.standard_normal((12000, 20)), axis=0),
                       coarse, coarse & (rng.random(12000) < 0.7),
                       rng.standard_normal(12000), 0)
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_run_study_needs_a_seed():
    # every study is seeded from the config; no study gives no chain
    bundle, _, _ = _small_bundle()
    with pytest.raises(ArgumentError, match="need at least one study"):
        run_study(StudyConfig(iterations=5), bundle, [])


def test_fine_rate_conditional_without_coarse_acceptance_is_zero():
    none = np.zeros(4, dtype=bool)
    trace = ChainTrace(np.zeros((4, 2)), none, none, np.zeros(4), 1)
    assert trace.fine_rate_conditional == 0.0


def test_chain_config_validation():
    with pytest.raises(ArgumentError):
        StudyConfig(beta=1.5)
    with pytest.raises(ArgumentError):
        StudyConfig(iterations=0)


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
        pc = solve_pressure(upscale(fld, bundle.coarse), bundle.bc)
        llc = log_likelihood(observe_pressure(pc, bundle.coarse_mask),
                             bundle.ref_obs_coarse, bundle.likelihood.sigma_c2)
        if not want_fine:
            return llc, None
        pf = solve_pressure(fld, bundle.bc)
        return llc, log_likelihood(observe_pressure(pf, bundle.fine_mask),
                                   bundle.ref_obs_fine,
                                   bundle.likelihood.sigma_f2)

    def accept(log_ratio):
        # min(1, exp(log_ratio)), capped before exp so it cannot overflow
        return rng.random() < (1.0 if log_ratio >= 0.0
                               else np.exp(log_ratio))

    rng = np.random.default_rng(cfg.seed)
    theta = rng.standard_normal(bundle.basis.n)
    llc, llf = forward(theta, want_fine=True)
    thetas, coarse, fine, logliks = [], [], [], []
    for _ in range(cfg.iterations):
        theta_p = rws_propose(theta, cfg.beta, rng, cfg.single_component)
        llc_p, _ = forward(theta_p, want_fine=False)
        c_acc = f_acc = False
        if accept(llc_p - llc):
            c_acc = True
            _, llf_p = forward(theta_p, want_fine=True)
            if accept((llf_p - llf) - (llc_p - llc)):
                f_acc = True
                theta = theta_p
                llc, llf = llc_p, llf_p
        thetas.append(theta)
        coarse.append(c_acc)
        fine.append(f_acc)
        logliks.append(llf)
    return np.array(thetas), np.array(coarse), np.array(fine), np.array(logliks)


# (conditioned, single_component), with ids that keep each case's name in
# test reports stable
CHAIN_KINDS = [pytest.param(c, s, id=f"{c}-{s}-False")
               for c, s in [(False, True), (False, False), (True, True),
                            (True, False)]]


@pytest.mark.parametrize("conditioned, single_component", CHAIN_KINDS)
def test_run_chain_matches_reference_loop(conditioned, single_component):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60, seed=11,
                      conditioned=conditioned,
                      single_component=single_component)
    trace = run_chain(cfg, bundle)
    thetas, coarse, fine, logliks = _reference_chain(cfg, bundle)
    # both stages decide somewhere, so the fine step and its reuse run
    assert 0 < np.sum(trace.fine_accepted) < np.sum(trace.coarse_accepted)
    assert np.array_equal(trace.thetas, thetas)
    assert np.array_equal(trace.coarse_accepted, coarse)
    assert np.array_equal(trace.fine_accepted, fine)
    assert np.array_equal(trace.loglik_fine, logliks)


@pytest.mark.parametrize("conditioned, single_component", CHAIN_KINDS)
def test_run_study_matches_reference_loop(conditioned, single_component):
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60, conditioned=conditioned,
                      single_component=single_component, seed=11, chains=4)
    seeds = [11, 12, 13, 14]
    (traces,) = run_study(cfg, bundle)
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


@pytest.mark.parametrize("single_component", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("conditioned_first", [False, True])
def test_joint_studies_equal_separate_studies(single_component, k,
                                               conditioned_first):
    # the chains of both studies in one stack sample exactly what each
    # study samples on its own, whichever study comes first
    bundle, _, _ = _small_bundle()
    cfg = StudyConfig(beta=0.3, iterations=60,
                      single_component=single_component, seed=31, chains=k)
    flags = (True, False) if conditioned_first else (False, True)
    joint = run_study(cfg, bundle, flags)
    coarse = np.array([t.coarse_accepted for ts in joint for t in ts])
    # some fine stacks hold only the chains that passed the coarse stage
    assert np.any(coarse.any(axis=0) & ~coarse.all(axis=0))
    assert all(t.fine_accepted.any() for ts in joint for t in ts)
    for flag, got in zip(flags, joint):
        (alone,) = run_study(replace(cfg, conditioned=flag), bundle)
        for g, w in zip(got, alone, strict=True):
            assert g.seed == w.seed
            assert np.array_equal(g.thetas, w.thetas)
            assert np.array_equal(g.coarse_accepted, w.coarse_accepted)
            assert np.array_equal(g.fine_accepted, w.fine_accepted)
            assert np.array_equal(g.loglik_fine, w.loglik_fine)


@pytest.mark.parametrize("conditioned, coarse", [
    (False, 2), (True, 2), (True, 1)], ids=["False", "True", "coarse1x1"])
def test_chain_does_not_depend_on_its_companions(conditioned, coarse):
    bundle, _, _ = _small_bundle(coarse_n=coarse)
    cfg = StudyConfig(beta=0.3, iterations=40, conditioned=conditioned,
                      seed=21, chains=4)
    (together,) = run_study(cfg, bundle)
    for got, seed in zip(together, [21, 22, 23, 24], strict=True):
        ((alone,),) = run_study(replace(cfg, seed=seed, chains=1), bundle)
        assert np.array_equal(got.thetas, alone.thetas)
        assert np.array_equal(got.coarse_accepted, alone.coarse_accepted)
        assert np.array_equal(got.fine_accepted, alone.fine_accepted)
        assert np.array_equal(got.loglik_fine, alone.loglik_fine)


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
        run_study(StudyConfig(iterations=20, seed=1, chains=2), bundle)
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


def test_bundles_compare_by_identity():
    # two bundles of one problem hold equal arrays, which == cannot
    # compare; a bundle equals only itself and hashes by identity
    a, _, _ = _small_bundle()
    b, _, _ = _small_bundle()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, a, b}) == 2


def test_bundle_derives_its_reference_data_from_the_reference_field():
    # the forward model written out from the public darcy calls
    bundle, _, ref = _small_bundle()
    fine, coarse, bc = make_grid(4, 4), make_grid(2, 2), BoundaryConditions()
    fine_mask, coarse_mask = chessboard_mask(fine), chessboard_mask(coarse)
    ref_obs_fine = observe_pressure(solve_pressure(ref, bc), fine_mask)
    ref_obs_coarse = observe_pressure(
        solve_pressure(upscale(ref, coarse), bc), coarse_mask)
    assert (bundle.fine, bundle.bc) == (fine, bc)
    assert np.array_equal(bundle.fine_mask.cells, fine_mask.cells)
    assert np.array_equal(bundle.coarse_mask.cells, coarse_mask.cells)
    assert bundle.ref_obs_fine.tobytes() == ref_obs_fine.tobytes()
    assert bundle.ref_obs_coarse.tobytes() == ref_obs_coarse.tobytes()
    # the derived fields are not arguments, so replace refuses them too
    for name in ("fine", "bc", "fine_mask", "coarse_mask", "ref_obs_fine",
                 "ref_obs_coarse"):
        with pytest.raises(ValueError, match="init=False"):
            replace(bundle, **{name: getattr(bundle, name)})


def test_stacked_logliks_equal_single_logliks():
    # log_likelihood of a stack gives each row bitwise its own
    # log_likelihood; a pressure stack in Fortran order gives a strided
    # residual, which is made contiguous before summing
    fine = make_grid(16, 16)
    mask = chessboard_mask(fine)
    rng = np.random.default_rng(4)
    ref = rng.random(mask.cells.size)
    values = ref.mean() + 0.01 * rng.standard_normal((8, fine.n_cells))
    for stack in (values, np.asfortranarray(values), values[:1]):
        obs = observe_pressure(ScalarField(fine, stack), mask)
        got = log_likelihood(obs, ref, 1e-4)
        want = [log_likelihood(row, ref, 1e-4) for row in obs]
        assert got.shape == (len(stack),)
        assert np.array_equal(got, want)


def test_log_likelihood_does_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10000 values over its
    # threads; stacks of rows longer than that give the same bits under
    # one and two threads
    code = (
        "import numpy as np\n"
        "from condflow.mcmc import log_likelihood\n"
        "rng = np.random.default_rng(5)\n"
        "for n in (10001, 32768):\n"
        "    sim = rng.standard_normal((3, n))\n"
        "    ref = rng.standard_normal(n)\n"
        "    print(log_likelihood(sim, ref, 0.01).tobytes().hex())\n"
    )
    src = str(Path(inspect.getfile(log_likelihood)).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def test_each_layer_runs_once_per_iteration(monkeypatch):
    # the chains of both studies in one stack: per iteration one
    # upscaling and one coarse solve of every chain, and one fine solve
    # of exactly the chains whose proposal passed the coarse stage
    bundle, _, _ = _small_bundle(sigma_c2=1e-4)
    cfg = StudyConfig(beta=0.9, iterations=60)
    upscaled, coarse_solves, fine_solves = [], [], []
    upscale_original = darcy.upscale
    solve_original = darcy.solve_pressure

    def counting_upscale(fields, coarse):
        upscaled.append(fields.values.copy())
        return upscale_original(fields, coarse)

    def counting_solve(fields, bc):
        calls = fine_solves if fields.grid == bundle.fine else coarse_solves
        calls.append(fields.values.copy())
        return solve_original(fields, bc)

    monkeypatch.setattr(darcy, "upscale", counting_upscale)
    monkeypatch.setattr(darcy, "solve_pressure", counting_solve)
    traces = run_study(replace(cfg, seed=41, chains=2), bundle,
                       (False, True))
    coarse = np.array([t.coarse_accepted for ts in traces for t in ts])
    passed_any = coarse.any(axis=0)
    # every chain, some of them, and none pass in one iteration or another
    assert coarse.all(axis=0).any() and not passed_any.all()
    assert np.any(passed_any & ~coarse.all(axis=0))
    assert len(upscaled) == len(coarse_solves) == cfg.iterations + 1
    assert len(fine_solves) == 1 + int(np.sum(passed_any))
    assert np.array_equal(fine_solves[0], upscaled[0])
    for stack, it in zip(fine_solves[1:], np.flatnonzero(passed_any)):
        assert np.array_equal(stack, upscaled[it + 1][coarse[:, it]])


@pytest.mark.parametrize("cause", ["overflow", "residual"])
def test_forward_failures_name_their_darcy_cause(monkeypatch, plant_in_dpbsv,
                                                cause):
    # a proposal whose transmissibility overflows fails in the upscaling;
    # a fine solve whose LAPACK solution is not finite fails its residual
    # check
    bundle, _, _ = _small_bundle(sigma_c2=1e12, sigma_f2=1e12)
    if cause == "overflow":
        # k = exp(709) is finite, but 2 hy k / hx is not
        original = kle.synthesize_unconditioned
        calls = []

        def synthesize(basis, theta):
            calls.append(1)
            if len(calls) == 1:  # the initial state
                return original(basis, theta)
            return ScalarField(bundle.fine,
                               np.full(bundle.fine.n_cells, 709.0))

        monkeypatch.setattr(kle, "synthesize_unconditioned", synthesize)
        where = "iteration 0"
    else:
        def solve(x):
            if x.size == bundle.fine.n_cells:
                x[0] = np.nan

        plant_in_dpbsv(solve)
        where = "the initial state"
    with pytest.raises(CondflowError) as info:
        run_chain(StudyConfig(iterations=5, seed=1), bundle)
    assert (info.value.module, info.value.code) == ("mcmc", "forward")
    assert f"{where}:" in str(info.value)
    assert isinstance(info.value.__cause__, NumericalError)
    assert (info.value.__cause__.module,
            info.value.__cause__.code) == ("darcy", cause)
