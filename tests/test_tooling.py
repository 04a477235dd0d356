"""What the benchmark reads of condflow. ``perfbench/tracing.py`` wraps
condflow's public functions from outside, so the layers it names must
stay module attributes that the sampler calls; ``perfbench/run.py``
checks every replicate it runs against condflow's own functions and
outputs, so those checks must keep passing."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from test_mcmc import _small_bundle

from condflow.config import StudyConfig
from condflow.mcmc import run_study

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """Load ``perfbench/<name>.py`` as it is, registered while the test
    runs (its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["reference", "screening", "diagnose"])
def test_bench_checks_pass_on_every_workload(tmp_path, monkeypatch, name):
    # one small replicate through run.py's own entry point and checks;
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(tmp_path))
    run = _load(monkeypatch, "run")
    if name == "diagnose":
        workload = run.Diagnose(seed=1, length=600, out_dir=tmp_path)
    else:
        workload = run.Sampling(name, seed=1, iterations=40)
        # in place of setup_seconds, which also times fresh interpreters
        workload.setup = workload.study.build_setup(workload.cfg)
    out = tmp_path / "rep0"
    out.mkdir()
    replicate = run.execute(workload, 0, out)
    assert replicate.attempted > 0
    assert replicate.failed == 0
    assert replicate.files


def test_tracer_sees_every_forward_layer_of_a_study(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    bundle, _, _ = _small_bundle()
    tracer = tracing.Tracer(bundle.fine)
    tracer.install()
    try:
        traces = run_study(StudyConfig(beta=0.3, iterations=20, seed=5,
                                       chains=2), bundle, (False, True))
    finally:
        tracer.restore()
    stats = tracing.summarize(tracer.spans)
    calls = {name: stats.get(name, {"calls": 0})["calls"] for name in (
        "darcy.solve_pressure.fine", "darcy.solve_pressure.coarse",
        "darcy.upscale", "kle.synthesize_unconditioned",
        "conditioning.synthesize_conditioned")}
    assert all(calls.values()), calls
    # one stacked call per layer and iteration, plus the initial state
    passed = np.array([t.coarse_accepted for ts in traces
                       for t in ts]).any(axis=0)
    assert calls["darcy.upscale"] == 21
    assert calls["darcy.solve_pressure.coarse"] == 21
    assert calls["darcy.solve_pressure.fine"] == 1 + int(np.sum(passed))
