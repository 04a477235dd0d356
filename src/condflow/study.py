"""Study orchestration: model-bundle assembly from a config, the
comparative conditioned/unconditioned reference experiment, manifests,
and artifact output.

:func:`study_report` diagnoses a study's traces through
:func:`condflow.diagnostics.diagnostics_series`, the one diagnosis that
``condflow diagnose`` calls too; what it adds is the policy that a
study is diagnosed on its prior's coordinates."""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__
from .conditioning import build_data_matrix, nullspace_basis
from .covariance import assemble_covariance
# solve_pressure is bound here too: perfbench's
# test_tracer_spans_every_binding_and_restores_it patches it in study
from .darcy import solve_pressure
# checkpoints_for is bound here too: perfbench/run.py reads it from study
from .diagnostics import (checkpoints_for, diagnostics_series,
                          write_report_csv, write_report_dat)
from .grid import make_grid, read_field_csv, write_field_pgm
from .kle import solve_kle
from .kriging import krige, read_measurements_csv
from .mcmc import (ModelBundle, chain_seeds, run_study, synthesize,
                   write_trace_csv)


def _packaged(name):
    return resources.files("condflow.data").joinpath(name)


def read_measurements(cfg):
    """The config's measurements, or the packaged ones."""
    return read_measurements_csv(cfg.measurements
                                 or str(_packaged("measurements.csv")))


def read_reference_field(cfg):
    """The config's reference field, or the packaged one."""
    path = cfg.reference_field or str(_packaged("reference_field.csv"))
    return read_field_csv(path, make_grid(cfg.fine_nx, cfg.fine_ny))


def output_dir(cfg, override=None):
    """The output directory, created if missing: ``override`` (the
    ``--out-dir`` option), else the CONDFLOW_OUTPUT_DIR variable, else
    the config's ``paths.output_dir``."""
    out = override or os.environ.get("CONDFLOW_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


@dataclass
class StudySetup:
    """Model bundle plus the measurements it is conditioned on."""

    cfg: object
    bundle: ModelBundle
    measurements: object


def conditioned_prior(cfg):
    """The conditioned prior's parts: the measurements, the KL basis,
    the kriged surface and the nullspace basis Q of the data matrix.
    The measurements are read before the covariance is factored."""
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    ms = read_measurements(cfg)
    cov = assemble_covariance(fine, cfg.kernel)
    basis = solve_kle(cov, fine, cfg.n_terms)
    kriged = krige(ms, cov, fine)
    return ms, basis, kriged, nullspace_basis(build_data_matrix(basis, ms))


def build_setup(cfg):
    """The reference field, then the conditioned prior, in the model
    bundle, which derives the reference data. Both input CSVs are read
    before the covariance is factored, so bad input fails before the
    eigendecompositions."""
    ref_field = read_reference_field(cfg)
    ms, basis, kriged, Q = conditioned_prior(cfg)
    bundle = ModelBundle(basis=basis,
                         coarse=make_grid(cfg.coarse_nx, cfg.coarse_ny),
                         reference_field=ref_field,
                         likelihood=cfg.likelihood, projector=Q,
                         kriged=kriged)
    return StudySetup(cfg, bundle, ms)


def study_report(setup, traces, conditioned):
    """PSRF/MPSRF series of a study's traces after the burn-in, on its
    prior's coordinates Q^T theta.

    The field, the likelihood and every artifact depend on theta only
    through them, and the projected sample Q Q^T theta has the same
    MPSRF. The row-space part of a stored unprojected theta is
    bookkeeping that nothing uses; unconditioned, Q = I keeps all of it.
    """
    _, Q = setup.bundle.priors[conditioned]
    b = setup.cfg.effective_burn_in
    return diagnostics_series(t.thetas[b:] @ Q for t in traces)


def _study_label(conditioned):
    return "cond" if conditioned else "uncond"


def sample_studies(setup, studies):
    """Sample the chains of the studies, one conditioned flag each, in one
    lockstep stack with shared seeds: (traces per study, seconds)."""
    cfg = setup.cfg
    t0 = time.perf_counter()
    traces = run_study(cfg, setup.bundle, studies)
    elapsed = time.perf_counter() - t0
    if cfg.verbosity:
        print(f"{cfg.chains * len(studies)} chains x {cfg.iterations} "
              f"iterations in {elapsed:.1f}s")
    return traces, elapsed


def write_study(setup, traces, conditioned, out_dir):
    """Write one study's traces, snapshots and diagnostics; returns its
    diagnostics report (None for one chain) and artifact paths."""
    cfg = setup.cfg
    label = _study_label(conditioned)
    snapshots = [it for it in cfg.snapshots if 1 <= it <= cfg.iterations]
    skipped = [it for it in cfg.snapshots if it not in snapshots]
    if skipped:
        warnings.warn(f"{label}: snapshots {skipped} lie outside iterations "
                      f"1..{cfg.iterations} and are skipped", stacklevel=2)
    paths = {"traces": [], "snapshots": []}
    for c, trace in enumerate(traces):
        path = os.path.join(out_dir, f"trace_{label}_chain{c + 1}.csv")
        write_trace_csv(trace, path)
        paths["traces"].append(path)
        for it in snapshots:
            snap = synthesize(setup.bundle, trace.thetas[it - 1],
                              conditioned)
            spath = os.path.join(
                out_dir, f"field_{label}_chain{c + 1}_iter{it}.pgm"
            )
            write_field_pgm(snap, spath)
            paths["snapshots"].append(spath)

    report = None
    if cfg.chains > 1:
        report = study_report(setup, traces, conditioned)
        rpath = os.path.join(out_dir, f"diagnostics_{label}.csv")
        write_report_csv(report, rpath)
        write_report_dat(report, os.path.join(out_dir,
                                              f"diagnostics_{label}.dat"))
        paths["diagnostics"] = rpath
    if cfg.verbosity:
        rates = ", ".join(f"{t.fine_rate:.3f}" for t in traces)
        print(f"{label}: fine acceptance rates [{rates}]")
    return report, paths


def run_one_study(setup, conditioned, out_dir):
    """Run one k-chain study and write traces, diagnostics, snapshots."""
    (traces,), elapsed = sample_studies(setup, [conditioned])
    report, paths = write_study(setup, traces, conditioned, out_dir)
    return traces, report, paths, elapsed


def write_acceptance_table(path, traces_by_label):
    """Acceptance-rate summary across studies, one row per chain."""
    rows = [(label, c + 1, t.coarse_rate, t.fine_rate,
             t.fine_rate_conditional)
            for label, traces in traces_by_label.items()
            for c, t in enumerate(traces)]
    np.savetxt(path, np.array(rows, dtype=object),
               fmt="%s,%d,%.6f,%.6f,%.6f", comments="",
               header="study,chain,coarse_rate,fine_rate,fine_rate_conditional")


def write_manifest(path, cfg, artifact_paths, timings=None):
    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "seeds": chain_seeds(cfg),
        "artifacts": artifact_paths,
        "timings_seconds": timings,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def run_reference_experiment(cfg, dry_run=False, out_dir=None):
    """Both studies (unconditioned and conditioned, paired seeds, one stack
    of chains), plus diagnostics, snapshots, and the acceptance-rate table,
    written to :func:`output_dir` with ``out_dir`` as its override. The
    setup is built first, so a config it rejects fails before the output
    directory exists, in a dry run too."""
    setup = build_setup(cfg)
    out_dir = output_dir(cfg, out_dir)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, cfg, {})
    if dry_run:
        if cfg.verbosity:
            print(f"dry run: manifest written to {manifest_path}")
        return 0

    traces, elapsed = sample_studies(setup, (False, True))
    all_paths = {"manifest": manifest_path}
    traces_by_label = {}
    for conditioned, trs in zip((False, True), traces):
        label = _study_label(conditioned)
        _, all_paths[label] = write_study(setup, trs, conditioned, out_dir)
        traces_by_label[label] = trs

    table_path = os.path.join(out_dir, "acceptance_rates.csv")
    write_acceptance_table(table_path, traces_by_label)
    all_paths["acceptance_table"] = table_path
    write_manifest(manifest_path, cfg, all_paths, {"sampling": elapsed})
    if cfg.verbosity:
        print(f"reference experiment complete; artifacts in {out_dir}")
    return 0
