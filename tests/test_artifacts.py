"""Exact bytes of every numeric artifact condflow writes.

Each writer is given a tiny input and its file is compared with literal
text: floats to 17 significant digits (so -0.0 is "-0" and 0.1 is
"0.10000000000000001"), integers, flags and pixels as plain integers.
"""

import numpy as np

from condflow.cli import main
from condflow.diagnostics import DiagnosticsReport, write_report_csv, write_report_dat
from condflow.grid import ScalarField, make_grid, write_field_csv, write_field_pgm
from condflow.kriging import MeasurementSet, write_measurements_csv
from condflow.mcmc import ChainTrace, write_trace_csv


def test_trace_csv_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(ChainTrace(np.array([[0.1, -2.5e-300], [1 / 3, -0.0]]),
                               np.array([True, False]),
                               np.array([False, False]),
                               np.array([-1.5, -1e20]), 0), path)
    assert path.read_text() == (
        "iteration,theta_1,theta_2,coarse_accept,fine_accept,loglik\n"
        "0,0.10000000000000001,-2.5e-300,1,0,-1.5\n"
        "1,0.33333333333333331,-0,0,0,-1e+20\n"
    )


def test_field_csv_and_pgm_bytes(tmp_path):
    grid = make_grid(3, 2)
    write_field_csv(ScalarField(grid, [0.0, 1 / 3, 2.0,
                                       -0.7, 1e-5, 123456789.125]),
                    tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_text() == (
        "0,0.33333333333333331,2\n"
        "-0.69999999999999996,1.0000000000000001e-05,123456789.125\n"
    )
    # bottom row (j = 0) is the last image line; 127.5 rounds to even
    write_field_pgm(ScalarField(grid, [0.0, 0.3, 1.0, 2.0, 2.5, 4.0]),
                    tmp_path / "field.pgm")
    assert (tmp_path / "field.pgm").read_text() == (
        "P2\n3 2\n255\n128 159 255\n0 19 64\n"
    )
    write_field_pgm(ScalarField(grid, np.full(6, 0.3)), tmp_path / "c.pgm")
    assert (tmp_path / "c.pgm").read_text() == (
        "P2\n3 2\n255\n128 128 128\n128 128 128\n"
    )


def test_report_bytes(tmp_path):
    report = DiagnosticsReport([10, 20], [1.5, 1 / 3],
                               [2.0, 1.0000000000000002])
    write_report_csv(report, tmp_path / "r.csv")
    write_report_dat(report, tmp_path / "r.dat")
    assert (tmp_path / "r.csv").read_text() == (
        "checkpoint,max_psrf,mpsrf\n"
        "10,1.5,2\n"
        "20,0.33333333333333331,1.0000000000000002\n"
    )
    assert (tmp_path / "r.dat").read_text() == (
        "# checkpoint max_psrf mpsrf\n"
        "10 1.5 2\n"
        "20 0.33333333333333331 1.0000000000000002\n"
    )
    empty = DiagnosticsReport([], [], [])
    write_report_csv(empty, tmp_path / "e.csv")
    write_report_dat(empty, tmp_path / "e.dat")
    assert (tmp_path / "e.csv").read_text() == "checkpoint,max_psrf,mpsrf\n"
    assert (tmp_path / "e.dat").read_text() == "# checkpoint max_psrf mpsrf\n"


def test_measurements_csv_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_measurements_csv(MeasurementSet([[0.125, 0.1], [0.9, 1 / 3]],
                                          [0.5, -1e-7]), path)
    assert path.read_text() == (
        "x,y,value\n"
        "0.125,0.10000000000000001,0.5\n"
        "0.90000000000000002,0.33333333333333331,-9.9999999999999995e-08\n"
    )


def test_eigenvalues_csv_bytes(tmp_path):
    # correlation lengths far below the cell spacing make the covariance
    # 0.1 I exactly, so every eigenvalue is hx * hy * 0.1 on any LAPACK
    (tmp_path / "ms.csv").write_text("x,y,value\n0.125,0.125,0.5\n")
    (tmp_path / "ref.csv").write_text("0,0,0,0\n" * 4)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "grid.fine_nx = 4\ngrid.fine_ny = 4\n"
        "grid.coarse_nx = 2\ngrid.coarse_ny = 2\n"
        "kernel.sigma2 = 0.1\nkernel.lx = 0.001\nkernel.ly = 0.001\n"
        "kle.n_terms = 3\n"
        f"paths.measurements = {tmp_path / 'ms.csv'}\n"
        f"paths.reference_field = {tmp_path / 'ref.csv'}\n"
    )
    out = tmp_path / "out"
    assert main(["kle", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "eigenvalues.csv").read_text() == (
        "0.0062500000000000003\n" * 3
    )
