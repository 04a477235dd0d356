"""The benchmark's per-layer view of the sampler: ``perfbench/tracing.py``
wraps condflow's public functions from outside, so the layers it names
must stay module attributes that the sampler calls."""

import importlib.util
from pathlib import Path

import numpy as np
from test_mcmc import _small_bundle

from condflow.config import StudyConfig
from condflow.mcmc import run_study


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_forward_layer_of_a_study():
    tracing = _load_tracing()
    bundle, _, _ = _small_bundle()
    tracer = tracing.Tracer(bundle.fine)
    tracer.install()
    try:
        traces = run_study(StudyConfig(beta=0.3, iterations=20), bundle,
                           [5, 6, 5, 6],
                           conditioned=[False, False, True, True])
    finally:
        tracer.restore()
    stats = tracing.summarize(tracer.spans)
    calls = {name: stats.get(name, {"calls": 0})["calls"] for name in (
        "darcy.solve_pressure.fine", "darcy.solve_pressure.coarse",
        "darcy.upscale", "kle.synthesize_unconditioned",
        "conditioning.synthesize_conditioned")}
    assert all(calls.values()), calls
    # one stacked call per layer and iteration, plus the initial state
    passed = np.array([t.coarse_accepted for t in traces]).any(axis=0)
    assert calls["darcy.upscale"] == 21
    assert calls["darcy.solve_pressure.coarse"] == 21
    assert calls["darcy.solve_pressure.fine"] == 1 + int(np.sum(passed))
