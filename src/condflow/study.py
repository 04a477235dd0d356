"""Study orchestration: model-bundle assembly from a config, the
comparative conditioned/unconditioned reference experiment, manifests,
and artifact output."""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import __version__
from .conditioning import (build_data_matrix, check_measurement_count,
                           nullspace_basis, synthesize_conditioned)
from .covariance import assemble_covariance
from .darcy import BoundaryConditions, observe_pressure, solve_pressure, upscale
from .diagnostics import diagnostics_series, write_report_csv, write_report_dat
from .errors import ArgumentError
from .grid import chessboard_mask, make_grid, read_field_csv, write_field_pgm
from .kle import modes_for_energy, solve_kle, synthesize_unconditioned
from .kriging import krige, read_measurements_csv
from .mcmc import ModelBundle, run_study, write_trace_csv

_MOD = "study"

#: diagnostics checkpoint spacing (iterations between evaluations)
CHECKPOINT_EVERY = 250


def _packaged(name):
    return resources.files("condflow.data").joinpath(name)


def default_measurements_path():
    return str(_packaged("measurements.csv"))


def read_measurements(cfg):
    return read_measurements_csv(cfg.measurements
                                 or default_measurements_path())


def default_reference_field_path():
    return str(_packaged("reference_field.csv"))


def output_dir(cfg, override=None):
    """The output directory, created if missing: ``override`` (the
    ``--out-dir`` option), else the CONDFLOW_OUTPUT_DIR variable, else
    the config's ``paths.output_dir``."""
    out = override or os.environ.get("CONDFLOW_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


def mode_count(cfg, fine, cov=None):
    """KL modes to keep: ``kle.n_terms``, or with ``kle.energy_threshold``
    the fewest that reach it, from ``cov`` (assembled when not given)."""
    if cfg.energy_threshold is None:
        return cfg.n_terms
    if cov is None:
        cov = assemble_covariance(fine, cfg.kernel)
    return modes_for_energy(cov, fine, cfg.energy_threshold)


@dataclass
class StudySetup:
    """Model bundle plus the pieces the CLI reuses for artifact output."""

    cfg: object
    bundle: ModelBundle
    measurements: object
    reference_field: object


def build_setup(cfg):
    """Assemble grids, KL basis, kriging, projector, and reference data."""
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    coarse = make_grid(cfg.coarse_nx, cfg.coarse_ny)
    params = cfg.kernel
    cov = assemble_covariance(fine, params)
    basis = solve_kle(cov, fine, mode_count(cfg, fine, cov))

    ms = read_measurements(cfg)
    kriged = krige(ms, params, fine)
    projector = nullspace_basis(build_data_matrix(basis, ms, fine))

    ref_path = cfg.reference_field or default_reference_field_path()
    ref_field = read_field_csv(ref_path, fine)

    bc = BoundaryConditions()
    fine_mask = chessboard_mask(fine)
    coarse_mask = chessboard_mask(coarse)
    ref_obs_fine = observe_pressure(solve_pressure(ref_field, bc), fine_mask)
    ref_coarse = upscale(ref_field, fine, coarse)
    ref_obs_coarse = observe_pressure(solve_pressure(ref_coarse, bc),
                                      coarse_mask)

    bundle = ModelBundle(
        basis=basis,
        fine=fine,
        coarse=coarse,
        bc=bc,
        fine_mask=fine_mask,
        coarse_mask=coarse_mask,
        ref_obs_fine=ref_obs_fine,
        ref_obs_coarse=ref_obs_coarse,
        likelihood=cfg.likelihood,
        projector=projector,
        kriged=kriged,
    )
    return StudySetup(cfg, bundle, ms, ref_field)


def chain_seeds(cfg):
    """Distinct per-chain seeds; both studies reuse the same list."""
    return [cfg.seed + c for c in range(cfg.chains)]


def check_burn_in(burn_in, length):
    """Reject a burn-in that leaves fewer than 2 of ``length`` draws."""
    if not 0 <= burn_in <= length - 2:
        raise ArgumentError(
            f"burn-in must be in [0, {length - 2}] to keep at least 2 of "
            f"{length} draws, got {burn_in}",
            module=_MOD,
        )


def post_burn_in(traces, burn_in):
    """The traces without their first ``burn_in`` draws; at least 2 must
    remain in every trace."""
    check_burn_in(burn_in, min(t.thetas.shape[0] for t in traces))
    return [t.after_burn_in(burn_in) for t in traces]


def checkpoints_for(length, spacing=CHECKPOINT_EVERY):
    if spacing < 1:
        raise ArgumentError(
            f"checkpoint spacing must be at least 1, got {spacing}",
            module=_MOD,
        )
    pts = list(range(spacing, length + 1, spacing))
    if not pts or pts[-1] != length:
        pts.append(length)
    return pts


def study_report(setup, traces, conditioned):
    """PSRF/MPSRF series of a study's traces after the burn-in.

    A conditioned study is diagnosed on the nullspace coordinates
    Q^T theta: the field, the likelihood and every artifact depend on
    theta only through them, and the projected sample Q Q^T theta has the
    same MPSRF. The row-space part of a stored unprojected theta is
    bookkeeping that nothing uses.
    """
    kept = post_burn_in(traces, setup.cfg.effective_burn_in)
    if conditioned:
        Q = setup.bundle.projector.Q
        kept = [replace(t, thetas=t.thetas @ Q) for t in kept]
    return diagnostics_series(kept, checkpoints_for(kept[0].thetas.shape[0]))


def snapshot_field(setup, trace, iteration, conditioned):
    """The fine-scale accepted log-permeability at a 1-based iteration."""
    theta = trace.thetas[iteration - 1]
    if conditioned:
        return synthesize_conditioned(
            setup.bundle.basis, setup.bundle.kriged, theta,
            setup.bundle.projector,
        )
    return synthesize_unconditioned(setup.bundle.basis, theta)


def _study_label(conditioned):
    return "cond" if conditioned else "uncond"


def sample_studies(setup, studies):
    """Sample the chains of the studies, one conditioned flag each, in one
    lockstep stack with shared seeds: (traces per study, seconds)."""
    cfg = setup.cfg
    seeds = chain_seeds(cfg)
    t0 = time.perf_counter()
    traces = run_study(cfg, setup.bundle, seeds * len(studies),
                       conditioned=[flag for flag in studies for _ in seeds])
    elapsed = time.perf_counter() - t0
    if cfg.verbosity:
        print(f"{len(traces)} chains x {cfg.iterations} iterations in "
              f"{elapsed:.1f}s")
    k = len(seeds)
    return [traces[i * k:(i + 1) * k] for i in range(len(studies))], elapsed


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
            snap = snapshot_field(setup, trace, it, conditioned)
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
    with open(path, "w") as fh:
        fh.write("study,chain,coarse_rate,fine_rate,fine_rate_conditional\n")
        for label, traces in traces_by_label.items():
            for c, t in enumerate(traces):
                fh.write(
                    f"{label},{c + 1},{t.coarse_rate:.6f},"
                    f"{t.fine_rate:.6f},{t.fine_rate_conditional:.6f}\n"
                )


def write_manifest(path, cfg, seeds, artifact_paths, timings=None):
    manifest = {
        "version": __version__,
        "config": cfg.as_dict(),
        "seeds": seeds,
        "artifacts": artifact_paths,
        "timings_seconds": timings,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def run_reference_experiment(cfg, dry_run=False, out_dir=None):
    """Both studies (unconditioned and conditioned, paired seeds, one stack
    of chains), plus diagnostics, snapshots, and the acceptance-rate table,
    written to :func:`output_dir` with ``out_dir`` as its override."""
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    check_measurement_count(read_measurements(cfg).m, mode_count(cfg, fine))
    out_dir = output_dir(cfg, out_dir)
    seeds = chain_seeds(cfg)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, cfg, seeds, {})
    if dry_run:
        if cfg.verbosity:
            print(f"dry run: manifest written to {manifest_path}")
        return 0

    setup = build_setup(cfg)
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
    write_manifest(manifest_path, cfg, seeds, all_paths, {"sampling": elapsed})
    if cfg.verbosity:
        print(f"reference experiment complete; artifacts in {out_dir}")
    return 0
