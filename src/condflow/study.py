"""Study orchestration: model-bundle assembly from a config, the
comparative conditioned/unconditioned reference experiment, manifests,
and artifact output."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import __version__
from .conditioning import build_data_matrix, nullspace_basis, synthesize_conditioned
from .covariance import KernelParams, assemble_covariance
from .darcy import BoundaryConditions, observe_pressure, solve_pressure, upscale
from .diagnostics import diagnostics_series, write_report_csv, write_report_dat
from .grid import chessboard_mask, make_grid, read_field_csv, write_field_pgm
from .kle import modes_for_energy, solve_kle, synthesize_unconditioned
from .kriging import krige, read_measurements_csv
from .mcmc import ChainConfig, LikelihoodParams, ModelBundle, run_study, write_trace_csv

_MOD = "cli"

#: diagnostics checkpoint spacing (iterations between evaluations)
CHECKPOINT_EVERY = 250


def _packaged(name):
    return resources.files("condflow.data").joinpath(name)


def default_measurements_path():
    return str(_packaged("measurements.csv"))


def default_reference_field_path():
    return str(_packaged("reference_field.csv"))


def resolve_output_dir(cfg):
    """Config value, overridable by the CONDFLOW_OUTPUT_DIR variable."""
    return os.environ.get("CONDFLOW_OUTPUT_DIR", cfg.output_dir)


@dataclass
class StudySetup:
    """Model bundle plus the pieces the CLI reuses for artifact output."""

    cfg: object
    bundle: ModelBundle
    measurements: object
    reference_field: object
    n_modes: int


def build_setup(cfg):
    """Assemble grids, KL basis, kriging, projector, and reference data."""
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    coarse = make_grid(cfg.coarse_nx, cfg.coarse_ny)
    params = KernelParams(cfg.sigma2, cfg.lx, cfg.ly)
    cov = assemble_covariance(fine, params)
    if cfg.energy_threshold is not None:
        n = modes_for_energy(cov, fine, cfg.energy_threshold)
    else:
        n = cfg.n_terms
    basis = solve_kle(cov, fine, n)

    ms_path = cfg.measurements or default_measurements_path()
    ms = read_measurements_csv(ms_path)
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
        likelihood=LikelihoodParams(cfg.sigma_c2, cfg.sigma_f2),
        projector=projector,
        kriged=kriged,
    )
    return StudySetup(cfg, bundle, ms, ref_field, n)


def chain_config(cfg, conditioned):
    return ChainConfig(
        beta=cfg.beta,
        iterations=cfg.iterations,
        seed=cfg.seed,
        conditioned=conditioned,
        single_component=cfg.single_component,
        store_projected=cfg.store_projected,
    )


def chain_seeds(cfg):
    """Distinct per-chain seeds; both studies reuse the same list."""
    return [cfg.seed + c for c in range(cfg.chains)]


def post_burn_in(traces, burn_in):
    return [replace(t, thetas=t.thetas[burn_in:],
                    coarse_accepted=t.coarse_accepted[burn_in:],
                    fine_accepted=t.fine_accepted[burn_in:],
                    loglik_fine=t.loglik_fine[burn_in:]) for t in traces]


def checkpoints_for(length, spacing=CHECKPOINT_EVERY):
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


def run_one_study(setup, conditioned, out_dir, log=print):
    """Run one k-chain study and write traces, diagnostics, snapshots."""
    cfg = setup.cfg
    label = _study_label(conditioned)
    seeds = chain_seeds(cfg)
    t0 = time.perf_counter()
    traces = run_study(chain_config(cfg, conditioned), setup.bundle, seeds)
    elapsed = time.perf_counter() - t0

    paths = {"traces": [], "snapshots": []}
    for c, trace in enumerate(traces):
        path = os.path.join(out_dir, f"trace_{label}_chain{c + 1}.csv")
        write_trace_csv(trace, path)
        paths["traces"].append(path)
        for it in cfg.snapshots:
            if 1 <= it <= trace.iterations:
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
        log(f"{label}: {cfg.chains} chains x {cfg.iterations} iterations "
            f"in {elapsed:.1f}s; fine acceptance rates [{rates}]")
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


def run_reference_experiment(cfg, dry_run=False, log=print, out_dir=None):
    """Both studies (unconditioned, then conditioned with paired seeds),
    plus diagnostics, snapshots, and the acceptance-rate table, written
    to ``out_dir`` or, when it is None, to :func:`resolve_output_dir`."""
    out_dir = out_dir or resolve_output_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    seeds = chain_seeds(cfg)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, cfg, seeds, {})
    if dry_run:
        if cfg.verbosity:
            log(f"dry run: manifest written to {manifest_path}")
        return 0

    setup = build_setup(cfg)
    all_paths = {"manifest": manifest_path}
    timings = {}
    traces_by_label = {}
    for conditioned in (False, True):
        label = _study_label(conditioned)
        traces, _, paths, elapsed = run_one_study(
            setup, conditioned, out_dir, log=log
        )
        traces_by_label[label] = traces
        all_paths[label] = paths
        timings[label] = elapsed

    table_path = os.path.join(out_dir, "acceptance_rates.csv")
    write_acceptance_table(table_path, traces_by_label)
    all_paths["acceptance_table"] = table_path
    write_manifest(manifest_path, cfg, seeds, all_paths, timings)
    if cfg.verbosity:
        log(f"reference experiment complete; artifacts in {out_dir}")
    return 0
