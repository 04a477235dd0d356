import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from condflow.conditioning import build_data_matrix, project
from condflow.config import StudyConfig
from condflow.diagnostics import diagnostics_series
from condflow.errors import ParseError
from condflow.mcmc import ChainTrace
from condflow import kle, study
from condflow.study import (
    build_setup,
    run_one_study,
    run_reference_experiment,
    study_report,
)
from oracles import post_burn_in

CHAINS, ITERATIONS, BURN_IN = 3, 900, 100


@pytest.fixture(scope="module")
def setup():
    return build_setup(StudyConfig(chains=CHAINS, iterations=ITERATIONS,
                                   burn_in=BURN_IN, verbosity=0))


@pytest.fixture(scope="module")
def thetas(setup):
    """Stand-in stored states whose chains disagree in their means."""
    rng = np.random.default_rng(11)
    n = setup.bundle.basis.n
    return (rng.standard_normal((CHAINS, ITERATIONS, n))
            + 0.3 * rng.standard_normal((CHAINS, 1, n)))


def _traces(thetas):
    flags = np.zeros(ITERATIONS, dtype=bool)
    return [ChainTrace(t, flags, flags, np.zeros(ITERATIONS), seed=c)
            for c, t in enumerate(thetas)]


def _stored_theta_report(traces):
    return diagnostics_series(post_burn_in(traces, BURN_IN))


def _assert_same_series(got, want):
    assert got.checkpoints == want.checkpoints
    np.testing.assert_allclose(got.max_psrf, want.max_psrf, rtol=1e-10)
    np.testing.assert_allclose(got.mpsrf, want.mpsrf, rtol=1e-10)


def test_conditioned_report_ignores_row_space(setup, thetas):
    A = build_data_matrix(setup.bundle.basis, setup.measurements)
    rng = np.random.default_rng(12)
    # a different row-space vector A^T y for every stored theta, with
    # chain-specific offsets that would dominate a stored-theta MPSRF
    y = (rng.standard_normal((CHAINS, ITERATIONS, A.shape[0]))
         + 2.0 * rng.standard_normal((CHAINS, 1, A.shape[0])))
    moved = thetas + y @ A

    report = study_report(setup, _traces(thetas), conditioned=True)
    _assert_same_series(study_report(setup, _traces(moved), conditioned=True),
                        report)
    assert _stored_theta_report(_traces(moved)).mpsrf[-1] \
        > report.mpsrf[-1] + 0.5


def test_conditioned_report_same_for_projected_traces(setup, thetas):
    projected = np.array([[project(t, setup.bundle.projector) for t in chain]
                          for chain in thetas])
    _assert_same_series(
        study_report(setup, _traces(projected), conditioned=True),
        study_report(setup, _traces(thetas), conditioned=True),
    )


def test_unconditioned_report_is_the_stored_theta_series(setup, thetas):
    traces = _traces(thetas)
    got = study_report(setup, traces, conditioned=False)
    want = _stored_theta_report(traces)
    assert got.checkpoints == want.checkpoints
    assert got.max_psrf == want.max_psrf
    assert got.mpsrf == want.mpsrf


def test_conditioned_report_holds_one_projected_trace_at_a_time(setup):
    # holding a projected copy of every trace, as a list of them, would
    # peak at more than 4 of them
    import tracemalloc
    from dataclasses import replace

    iterations, burn_in = 3000, 300
    long_run = replace(setup, cfg=replace(setup.cfg, chains=4,
                                          iterations=iterations,
                                          burn_in=burn_in))
    n, free = setup.bundle.projector.shape
    rng = np.random.default_rng(13)
    flags = np.zeros(iterations, dtype=bool)
    traces = [ChainTrace(rng.standard_normal((iterations, n)), flags, flags,
                         np.zeros(iterations), seed=c) for c in range(4)]
    one_projected = (iterations - burn_in) * free * 8
    study_report(long_run, traces, conditioned=True)  # first-call caches
    tracemalloc.start()
    try:
        report = study_report(long_run, traces, conditioned=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.checkpoints[-1] == iterations - burn_in
    assert peak < 2 * one_projected


def test_snapshots_past_the_run_warn_once_per_study(tmp_path):
    cfg = StudyConfig(chains=2, iterations=12, burn_in=2,
                      snapshots=(5, 12, 40, 300), verbosity=0)
    setup = build_setup(cfg)
    for conditioned, label in ((False, "uncond"), (True, "cond")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, paths, _ = run_one_study(setup, conditioned, str(tmp_path))
        messages = [str(w.message) for w in caught
                    if "snapshot" in str(w.message)]
        assert messages == [f"{label}: snapshots [40, 300] lie outside "
                            "iterations 1..12 and are skipped"]
        assert [p.rsplit("_", 1)[1] for p in paths["snapshots"]] == [
            "iter5.pgm", "iter12.pgm"] * 2


def test_snapshots_within_the_run_do_not_warn(tmp_path):
    setup = build_setup(StudyConfig(chains=2, iterations=12, burn_in=2,
                                    snapshots=(1, 6, 12), verbosity=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, paths, _ = run_one_study(setup, False, str(tmp_path))
    assert not [w for w in caught if "snapshot" in str(w.message)]
    assert len(paths["snapshots"]) == 6


def test_reference_experiment_samples_both_studies_in_one_call(
        tmp_path, monkeypatch):
    calls = []
    original = study.run_study

    def counting(cfg, bundle, studies):
        calls.append((cfg.seed, cfg.chains, tuple(studies)))
        return original(cfg, bundle, studies)

    monkeypatch.setattr(study, "run_study", counting)
    cfg = StudyConfig(chains=2, iterations=30, burn_in=5, snapshots=(12,),
                      verbosity=0, output_dir=str(tmp_path))
    run_reference_experiment(cfg)
    assert calls == [(cfg.seed, 2, (False, True))]



@pytest.mark.parametrize("n_terms", [None, 16])  # None: the default 20
def test_build_setup_factors_the_covariance_once(monkeypatch, n_terms):
    # the basis comes from one spectrum: one 1-D factorization per axis,
    # none of the 256 x 256 covariance
    calls = []
    original = kle._axis_spectrum

    def counting(weighted):
        calls.append(weighted.shape)
        return original(weighted)

    monkeypatch.setattr(kle, "_axis_spectrum", counting)
    setup = build_setup(StudyConfig(n_terms=n_terms or 20, verbosity=0))
    assert calls == [(16, 16), (16, 16)]
    assert setup.bundle.basis.n == (n_terms or 20)


def test_build_setup_reads_inputs_before_factoring(tmp_path, monkeypatch):
    def fail(weighted):
        pytest.fail("the covariance was factored before the inputs were read")

    monkeypatch.setattr(kle, "_axis_spectrum", fail)
    bad = tmp_path / "ms.csv"
    bad.write_text("x,y,value\n0.5,0.5,oops\n")
    with pytest.raises(ParseError, match="ms.csv"):
        build_setup(StudyConfig(measurements=str(bad), verbosity=0))


def test_setup_and_traces_do_not_depend_on_blas_threads(tmp_path):
    # the default setup and a short stack of both studies, built under
    # one and two OpenBLAS threads, give bitwise the same basis,
    # projector and traces
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from condflow.config import StudyConfig\n"
        "from condflow.study import build_setup, sample_studies\n"
        "cfg = StudyConfig(chains=4, iterations=300, verbosity=0)\n"
        "setup = build_setup(cfg)\n"
        "traces, _ = sample_studies(setup, (False, True))\n"
        "arrays = [setup.bundle.basis.phi, setup.bundle.projector]\n"
        "arrays += [t.thetas for ts in traces for t in ts]\n"
        "arrays += [t.loglik_fine for ts in traces for t in ts]\n"
        "for a in arrays:\n"
        "    print(hashlib.sha256(np.ascontiguousarray(a).tobytes())"
        ".hexdigest())\n"
    )
    src = str(Path(inspect.getfile(build_setup)).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 + 2 * 8
    labels = (["phi", "Q"] + [f"thetas of chain {c}" for c in range(8)]
              + [f"loglik of chain {c}" for c in range(8)])
    assert [lab for lab, a, b in zip(labels, *digests) if a != b] == []
