"""Command-line interface.

Subcommands:
  kle        write the eigenvalue spectrum and eigenfunction fields
  krige      write the kriged surface (CSV + PGM)
  condition  condition a theta vector and report the honoring error
  solve      run the pressure solver on a log-permeability field
  invert     run one MCMC study per the config's conditioned flag
  diagnose   PSRF/MPSRF series from existing trace CSVs
  reference  the full conditioned-vs-unconditioned comparative study

Each subcommand builds only what it writes, all of it but a study's
chains before it creates its output directory, so bad input leaves none.
Every failure exits nonzero after printing one line starting with
``error:<module>:<code>``. The console script ``condflow`` and
``python -m condflow`` both run :func:`main`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import study
from .conditioning import synthesize_conditioned
from .config import parse_config
from .covariance import assemble_covariance
from .darcy import BoundaryConditions, solve_pressure
from .diagnostics import (CHECKPOINT_EVERY, check_chain_count,
                          diagnostics_series, write_report_csv,
                          write_report_dat)
from .errors import ArgumentError, CondflowError, ParseError
from .grid import (ScalarField, _read_csv, make_grid, read_field_csv,
                   write_field_csv, write_field_pgm)
from .kle import solve_kle
from .kriging import krige, snap_to_cells
from .mcmc import read_trace_csv
from .study import build_setup, run_reference_experiment


def cmd_kle(args):
    cfg = parse_config(args.config)
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    basis = solve_kle(assemble_covariance(fine, cfg.kernel), fine, cfg.n_terms)
    out = study.output_dir(cfg, args.out_dir)
    np.savetxt(os.path.join(out, "eigenvalues.csv"), basis.lambdas,
               fmt="%.17g")
    for i in range(basis.n):
        write_field_csv(ScalarField(basis.grid, basis.phi[:, i]),
                        os.path.join(out, f"phi_{i + 1:03d}.csv"))
    print(f"retained {basis.n} modes, energy {basis.energy:.6f}")
    return 0


def cmd_krige(args):
    cfg = parse_config(args.config)
    fine = make_grid(cfg.fine_nx, cfg.fine_ny)
    kriged = krige(study.read_measurements(cfg),
                   assemble_covariance(fine, cfg.kernel), fine)
    out = study.output_dir(cfg, args.out_dir)
    write_field_csv(kriged, os.path.join(out, "kriged.csv"))
    write_field_pgm(kriged, os.path.join(out, "kriged.pgm"))
    print(f"kriged surface written to {out}")
    return 0


def cmd_condition(args):
    cfg = parse_config(args.config)
    theta = _read_theta(args.theta, cfg.n_terms)
    ms, basis, kriged, Q = study.conditioned_prior(cfg)
    fld = synthesize_conditioned(basis, kriged, theta, Q)
    out = study.output_dir(cfg, args.out_dir)
    write_field_csv(fld, os.path.join(out, "conditioned.csv"))
    write_field_pgm(fld, os.path.join(out, "conditioned.pgm"))
    cells = snap_to_cells(ms, basis.grid)
    err = np.max(np.abs(fld.values[cells] - ms.values))
    print(f"max honoring error: {err:.3e}")
    return 0


def _read_theta(path, n):
    """The n theta values of a CSV of n rows of one value."""
    _, data = _read_csv(path, "cli")
    if data.shape != (n, 1):
        raise ParseError(f"{path}: expected {n} rows of one theta value, "
                         f"got {data.shape[0]} of {data.shape[1]}",
                         module="cli")
    return data[:, 0]


def cmd_solve(args):
    cfg = parse_config(args.config)
    field = (read_field_csv(args.field, make_grid(cfg.fine_nx, cfg.fine_ny))
             if args.field else study.read_reference_field(cfg))
    pressure = solve_pressure(field, BoundaryConditions())
    out = study.output_dir(cfg, args.out_dir)
    write_field_csv(pressure, os.path.join(out, "pressure.csv"))
    write_field_pgm(pressure, os.path.join(out, "pressure.pgm"))
    print(f"pressure field written to {out}")
    return 0


def cmd_invert(args):
    setup = build_setup(parse_config(args.config))
    out = study.output_dir(setup.cfg, args.out_dir)
    study.run_one_study(setup, setup.cfg.conditioned, out)
    return 0


def cmd_diagnose(args):
    # the chain count and the output paths, like the series its
    # arguments, are checked before any trace is parsed
    check_chain_count(len(args.traces))
    dat = os.path.splitext(args.out)[0] + ".dat"
    outs = {os.path.realpath(args.out), os.path.realpath(dat)}
    if len(outs) < 2 or outs & set(map(os.path.realpath, args.traces)):
        raise ArgumentError(f"--out {args.out} and its DAT twin {dat} must "
                            "be two files other than the traces",
                            module="cli")
    report = diagnostics_series(map(read_trace_csv, args.traces),
                                args.checkpoint_every, args.burn_in)
    write_report_csv(report, args.out)
    write_report_dat(report, dat)
    for notice in report.notices:
        print(f"notice: {notice}")
    if report.mpsrf:
        print(f"final max PSRF {report.max_psrf[-1]:.4f}, "
              f"MPSRF {report.mpsrf[-1]:.4f}")
    return 0


def cmd_reference(args):
    cfg = parse_config(args.config)
    return run_reference_experiment(cfg, dry_run=args.dry_run,
                                    out_dir=args.out_dir)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="condflow",
        description="Measurement-conditioned Gaussian field sampling with "
                    "two-stage MCMC inversion of Darcy flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="study config file (key = value)")
        p.add_argument("--out-dir", help="output directory override")
        p.set_defaults(func=func)
        return p

    add("kle", cmd_kle, "write eigenvalues and eigenfunctions")
    add("krige", cmd_krige, "write the kriged surface")
    p = add("condition", cmd_condition, "condition a theta vector")
    p.add_argument("--theta", required=True,
                   help="CSV with one theta value per line")
    p = add("solve", cmd_solve, "solve the pressure equation")
    p.add_argument("--field", help="log-permeability CSV "
                                   "(default: reference field)")
    add("invert", cmd_invert, "run one MCMC study")
    p = add("reference", cmd_reference,
            "run the conditioned vs unconditioned comparison")
    p.add_argument("--dry-run", action="store_true",
                   help="write the manifest only")

    p = sub.add_parser("diagnose", help="PSRF/MPSRF from trace CSVs")
    p.add_argument("traces", nargs="+", help="trace CSV files (k >= 2)")
    p.add_argument("--out", required=True, help="diagnostics CSV to write")
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int,
                   default=CHECKPOINT_EVERY)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CondflowError as exc:
        print(f"error:{exc.module}:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:cli:io: {exc}", file=sys.stderr)
        return 1
