import filecmp
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import condflow
from condflow import study
from condflow.cli import main
from condflow.config import parse_config
from condflow.diagnostics import (diagnostics_series, read_report_csv,
                                  write_report_csv)
from condflow.mcmc import read_trace_csv, write_trace_csv

FAST_CFG = """\
kle.n_terms = 12
mcmc.chains = 2
mcmc.iterations = 80
mcmc.burn_in = 10
output.snapshots = 10, 80
output.verbosity = 0
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def test_kle_subcommand(tmp_path, fast_config, capsys):
    out = tmp_path / "out"
    rc = main(["kle", "--config", fast_config, "--out-dir", str(out)])
    assert rc == 0
    evals = np.loadtxt(out / "eigenvalues.csv")
    assert evals.size == 12
    assert np.all(np.diff(evals) <= 0)
    for i in range(1, 13):
        assert (out / f"phi_{i:03d}.csv").exists()
    assert "retained 12 modes" in capsys.readouterr().out


def test_krige_subcommand(tmp_path, fast_config):
    out = tmp_path / "out"
    rc = main(["krige", "--config", fast_config, "--out-dir", str(out)])
    assert rc == 0
    assert (out / "kriged.csv").exists()
    assert (out / "kriged.pgm").read_text().startswith("P2")


def test_condition_subcommand(tmp_path, fast_config, capsys):
    out = tmp_path / "out"
    theta = tmp_path / "theta.csv"
    theta.write_text("".join(f"{v}\n" for v in np.linspace(-1, 1, 12)))
    rc = main(["condition", "--config", fast_config,
               "--out-dir", str(out), "--theta", str(theta)])
    assert rc == 0
    assert (out / "conditioned.csv").exists()
    line = capsys.readouterr().out
    assert "max honoring error" in line
    assert float(line.rsplit(":", 1)[1]) <= 1e-9


def test_condition_wrong_theta_length(tmp_path, fast_config, capsys):
    theta = tmp_path / "theta.csv"
    theta.write_text("1.0\n2.0\n")
    rc = main(["condition", "--config", fast_config,
               "--out-dir", str(tmp_path / "out"), "--theta", str(theta)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:cli:parse:")


@pytest.mark.parametrize("text, message", [
    ("", "input contained no data"),
    ("# theta\n" + "0.5\n" * 12, "could not convert string '# theta'"),
    ("0.5,0.5\n" * 12, "expected one theta value per row, got 2"),
], ids=["empty", "comment_line", "two_per_row"])
def test_condition_theta_file_fails_with_one_parse_line(tmp_path, fast_config,
                                                        capsys, text,
                                                        message):
    # read like every other CSV: no comment character, and numpy's
    # empty-file warning is not printed before the error line
    theta = tmp_path / "theta.csv"
    theta.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["condition", "--config", fast_config, "--out-dir",
                   str(tmp_path / "out"), "--theta", str(theta)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:cli:parse:")
    assert message in err[0]
    assert [str(w.message) for w in caught] == []


def test_solve_subcommand(tmp_path, fast_config):
    out = tmp_path / "out"
    rc = main(["solve", "--config", fast_config, "--out-dir", str(out)])
    assert rc == 0
    from condflow.grid import make_grid, read_field_csv

    pressure = read_field_csv(out / "pressure.csv", make_grid(16, 16))
    assert pressure.values.min() >= -1e-12
    assert pressure.values.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("logperm, code", [(800.0, "argument"),
                                           (709.5, "overflow"),
                                           (-800.0, "singular")],
                         ids=["exp_overflows", "transmissibility_overflows",
                              "exp_underflows"])
def test_solve_extreme_permeability_fails_with_one_line(tmp_path, fast_config,
                                                         capsys, logperm,
                                                         code):
    # numpy must not print an overflow or divide warning before the error
    field = tmp_path / "field.csv"
    np.savetxt(field, np.full((16, 16), logperm), fmt="%.17g", delimiter=",")
    rc = main(["solve", "--config", fast_config, "--out-dir",
               str(tmp_path / "out"), "--field", str(field)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error:darcy:{code}:")


def test_invert_and_diagnose(tmp_path, capsys):
    # diagnose prints an MPSRF only if every parameter moved after the
    # burn-in in some chain. Single-component chains of 80 iterations
    # left a parameter unmoved in both chains for 37 of 200 seed pairs
    # (a leading mode is proposed about 6 times and mostly rejected), and
    # diagnose then rightly prints only its zero-variance notice. Small
    # full-vector steps move every parameter at each of the chain's
    # roughly 14 fine acceptances.
    config = tmp_path / "study.cfg"
    config.write_text(FAST_CFG + "mcmc.single_component = false\n"
                      "mcmc.beta = 0.2\n")
    out = tmp_path / "out"
    rc = main(["invert", "--config", str(config), "--out-dir", str(out)])
    assert rc == 0
    traces = sorted(str(p) for p in out.glob("trace_uncond_chain*.csv"))
    assert len(traces) == 2
    assert (out / "diagnostics_uncond.csv").exists()
    assert (out / "field_uncond_chain1_iter10.pgm").exists()

    diag = tmp_path / "diag.csv"
    rc = main(["diagnose", *traces, "--out", str(diag), "--burn-in", "10"])
    assert rc == 0
    assert diag.exists()
    assert (tmp_path / "diag.dat").exists()
    assert "MPSRF" in capsys.readouterr().out


def test_diagnose_reproduces_the_reference_diagnostics(tmp_path):
    # condflow diagnose, and diagnostics_series with the setup's
    # nullspace basis, re-read a reference run's traces and write its
    # diagnostics byte for byte
    config = tmp_path / "study.cfg"
    config.write_text("seed = 7\nmcmc.chains = 3\nmcmc.iterations = 1200\n"
                      "output.snapshots = 1200\noutput.verbosity = 0\n")
    out = tmp_path / "out"
    assert main(["reference", "--config", str(config),
                 "--out-dir", str(out)]) == 0
    cfg = parse_config(str(config))

    def traces(label):
        return sorted(str(p) for p in out.glob(f"trace_{label}_chain*.csv"))

    diag = tmp_path / "diag.csv"
    assert main(["diagnose", *traces("uncond"), "--out", str(diag),
                 "--burn-in", str(cfg.effective_burn_in)]) == 0
    assert read_report_csv(diag).checkpoints  # some checkpoint evaluated
    assert filecmp.cmp(diag, out / "diagnostics_uncond.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "diag.dat", out / "diagnostics_uncond.dat",
                       shallow=False)

    report = diagnostics_series(
        map(read_trace_csv, traces("cond")), burn_in=cfg.effective_burn_in,
        Q=study.build_setup(cfg).bundle.projector)
    assert report.checkpoints
    write_report_csv(report, tmp_path / "cond.csv")
    assert filecmp.cmp(tmp_path / "cond.csv", out / "diagnostics_cond.csv",
                       shallow=False)


@pytest.mark.parametrize("still", [0, 6], ids=["moving", "still_start"])
def test_diagnose_prints_one_notice_per_skipped_checkpoint(tmp_path, capsys,
                                                           still):
    # checkpoint 1 has too few draws; a chain that holds its first state
    # for ``still`` draws has no within-chain variance until it moves
    paths = _write_traces(tmp_path, [(30, 2), (30, 2)])
    first = read_trace_csv(paths[0])
    first.thetas[:still] = first.thetas[0]
    write_trace_csv(first, paths[0])
    out = tmp_path / "d.csv"
    assert main(["diagnose", *paths, "--out", str(out),
                 "--checkpoint-every", "1"]) == 0
    notices = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("notice: ")]
    written = read_report_csv(out).checkpoints
    skipped = [c for c in range(1, 31) if c not in written]
    assert len(skipped) == max(1, still)
    assert [int(re.match(r"notice: checkpoint (\d+): ", n)[1])
            for n in notices] == skipped


def test_diagnose_single_trace_errors(tmp_path, fast_config, capsys):
    out = tmp_path / "out"
    main(["invert", "--config", fast_config, "--out-dir", str(out)])
    capsys.readouterr()
    trace = str(next(out.glob("trace_uncond_chain1.csv")))
    rc = main(["diagnose", trace, "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:diagnostics:")


def _write_traces(tmp_path, shapes, nan_at=None):
    """Random-walk trace CSVs, one per (draws, parameters) shape."""
    from condflow.mcmc import ChainTrace, write_trace_csv

    rng = np.random.default_rng(12)
    paths = []
    for c, (l, n) in enumerate(shapes):
        thetas = np.cumsum(rng.standard_normal((l, n)), axis=0)
        if c == nan_at:
            thetas[l // 2, 0] = np.nan
        flags = np.ones(l, dtype=bool)
        path = tmp_path / f"trace_chain{c + 1}.csv"
        write_trace_csv(ChainTrace(thetas, flags, flags, np.zeros(l), c),
                        path)
        paths.append(str(path))
    return paths


def _diagnose_error(tmp_path, capsys, paths, *options):
    out = tmp_path / "d.csv"
    rc = main(["diagnose", *paths, "--out", str(out), *options])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize("burn_in", ["-5", "19", "20", "25"])
def test_diagnose_rejects_burn_in_outside_trace(tmp_path, capsys, burn_in):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    err = _diagnose_error(tmp_path, capsys, paths, "--burn-in", burn_in)
    # a negative burn-in is rejected before the trace length is known
    bound = "at least 0" if burn_in == "-5" else "in [0, 18]"
    assert err.startswith(
        f"error:diagnostics:argument: burn-in must be {bound}")


def test_diagnose_rejects_one_draw_traces(tmp_path, capsys):
    # no burn-in keeps 2 draws of a one-draw trace; the error says so
    paths = _write_traces(tmp_path, [(1, 2), (1, 2)])
    assert _diagnose_error(tmp_path, capsys, paths) == (
        "error:diagnostics:argument: at least 2 draws are needed, got "
        "traces of 1")


def _corrupt_trace(path, edits):
    """Set (row, column, value) cells of a trace CSV, rows counted from 0
    after the header."""
    lines = Path(path).read_text().splitlines()
    for row, col, value in edits:
        cells = lines[1 + row].split(",")
        cells[col] = value
        lines[1 + row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_diagnose_rejects_a_flag_other_than_0_or_1(tmp_path, capsys):
    # columns: iteration, theta_1, theta_2, coarse_accept, fine_accept
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    _corrupt_trace(paths[1], [(2, 3, "2"), (7, 4, "-1")])
    assert _diagnose_error(tmp_path, capsys, paths) == (
        f"error:mcmc:parse: {paths[1]}: row 2: iteration 2, "
        "coarse_accept 2, fine_accept 1: coarse_accept must be 0 or 1")


def test_diagnose_rejects_a_fine_acceptance_without_a_coarse_one(tmp_path,
                                                                capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    _corrupt_trace(paths[0], [(4, 3, "0"), (9, 3, "0")])
    assert _diagnose_error(tmp_path, capsys, paths) == (
        f"error:mcmc:parse: {paths[0]}: row 4: iteration 4, "
        "coarse_accept 0, fine_accept 1: fine_accept 1 needs "
        "coarse_accept 1")


@pytest.mark.parametrize("edits, row, iteration", [
    ([(2, 0, "77")], 2, 77),
    ([(0, 0, "1"), (1, 0, "0")], 0, 1),  # two rows swapped
    ([(19, 0, "20")], 19, 20),
], ids=["jump", "swap", "last"])
def test_diagnose_rejects_iterations_that_do_not_count_rows(
        tmp_path, capsys, edits, row, iteration):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    _corrupt_trace(paths[1], edits)
    assert _diagnose_error(tmp_path, capsys, paths) == (
        f"error:mcmc:parse: {paths[1]}: row {row}: iteration {iteration}, "
        "coarse_accept 1, fine_accept 1: iterations must count 0, 1, 2, "
        "...")


def test_diagnose_keeps_two_draws_at_largest_burn_in(tmp_path, capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    out = tmp_path / "d.csv"
    rc = main(["diagnose", *paths, "--out", str(out), "--burn-in", "18"])
    assert rc == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1)[0] == 2


@pytest.mark.parametrize("spacing", ["0", "-3"])
def test_diagnose_rejects_checkpoint_spacing_below_one(tmp_path, capsys,
                                                       spacing):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    err = _diagnose_error(tmp_path, capsys, paths,
                          "--checkpoint-every", spacing)
    assert err.startswith("error:diagnostics:argument: checkpoint spacing")


@pytest.mark.parametrize("options, n_traces, message", [
    (["--checkpoint-every", "0"], 2,
     "error:diagnostics:argument: checkpoint spacing must be at least 1, "
     "got 0"),
    (["--burn-in", "-1"], 2,
     "error:diagnostics:argument: burn-in must be at least 0, got -1"),
    ([], 1, "error:diagnostics:argument: need at least 2 chains, got k=1"),
], ids=["spacing", "burn_in", "one_trace"])
def test_diagnose_rejects_arguments_before_reading_traces(
        tmp_path, capsys, options, n_traces, message):
    # the last path does not exist: reading it would fail with cli:io
    paths = _write_traces(tmp_path, [(20, 2)] * (n_traces - 1))
    paths.append(str(tmp_path / "missing.csv"))
    assert _diagnose_error(tmp_path, capsys, paths, *options) == message


def test_diagnose_holds_one_parsed_trace_at_a_time(tmp_path):
    # each trace is 3000 rows of 24 values: iteration, 20 thetas, the two
    # flags and loglik. Holding every trace, or a (chains, draws, params)
    # copy of the draws, would peak at more than 4 of them
    import tracemalloc

    paths = _write_traces(tmp_path, [(3000, 20)] * 4)
    one_trace = 3000 * 24 * 8
    argv = ["diagnose", *paths, "--out", str(tmp_path / "d.csv"),
            "--burn-in", "300"]
    assert main(argv) == 0  # first-call caches are not the series' memory
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * one_trace


def _run_python(*args):
    """Run a fresh interpreter with this checkout's condflow on the path."""
    src = str(Path(condflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_diagnose_loads_no_scipy(tmp_path):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    code = (
        "import sys\n"
        "import condflow.cli\n"
        "assert condflow.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    run = _run_python("-c", code, "diagnose", *paths,
                      "--out", str(tmp_path / "d.csv"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("first", ["", "import scipy.linalg\n"],
                         ids=["alone", "after_scipy_linalg"])
def test_solve_loads_only_the_lapack_module(tmp_path, first):
    # a solve loads scipy's compiled LAPACK module and no other part of
    # scipy.linalg; the package imported later, or before, works and
    # shares that one module object
    code = (
        "import sys\n"
        + first +
        "before = sys.modules.get('scipy.linalg._flapack')\n"
        "import condflow.cli\n"
        "from condflow import darcy\n"
        "assert condflow.cli.main(sys.argv[1:]) == 0\n"
        "flapack = darcy._lapack()\n"
        "assert sys.modules['scipy.linalg._flapack'] is flapack\n"
        "assert before is None or before is flapack\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy.linalg')))\n"
        "import scipy.linalg.lapack\n"
        "assert scipy.linalg.lapack.dpbsv is flapack.dpbsv\n"
        "print(before is flapack)\n"
    )
    run = _run_python("-c", code, "solve", "--out-dir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    modules, shared = run.stdout.splitlines()[-2:]
    assert (tmp_path / "pressure.csv").exists()
    if first:
        assert shared == "True"
    else:
        assert modules == "['scipy.linalg._flapack']"


def test_python_m_condflow_runs_the_cli(tmp_path):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    out = tmp_path / "d.csv"
    run = _run_python("-m", "condflow", "diagnose", *paths, "--out", str(out))
    assert run.returncode == 0, run.stderr
    assert "final max PSRF" in run.stdout
    assert out.exists()
    run = _run_python("-m", "condflow", "diagnose", paths[0],
                      "--out", str(out))
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "error:diagnostics:argument: need at least 2 chains, got k=1"]


def test_diagnose_rejects_different_parameter_counts(tmp_path, capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 3)])
    err = _diagnose_error(tmp_path, capsys, paths)
    assert err.startswith("error:diagnostics:argument: trace shapes differ")


def test_diagnose_rejects_nan_in_one_trace(tmp_path, capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2), (20, 2)], nan_at=1)
    err = _diagnose_error(tmp_path, capsys, paths)
    # the NaN is in the second file: the error names it by its position
    assert err == ("error:diagnostics:argument: trace 2 contains "
                   "non-finite values")


@pytest.mark.parametrize("header, body, message", [
    (None, "0,1.5,abc,1,1,0\n", "could not convert string 'abc'"),
    (None, "0,1.5,2.5,1,1,0\n1,1.5,2.5,1,1\n", "number of columns changed"),
    (None, "", "input contained no data"),
    (None, "0,1.5,1,1,0\n1,2.5,1,1,0\n", "rows have 5 values, the header 6"),
    ("a,b\n", "0,1\n", "not a trace CSV"),
], ids=["bad_token", "ragged_row", "header_only", "short_rows", "bad_header"])
def test_diagnose_rejects_malformed_trace(tmp_path, capsys, header, body,
                                          message):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2)])
    with open(paths[1]) as fh:
        header = header or fh.readline()
    with open(paths[1], "w") as fh:
        fh.write(header + body)
    err = _diagnose_error(tmp_path, capsys, paths)
    assert err.startswith(f"error:mcmc:parse: {paths[1]}: ")
    assert message in err


def _set(text, lines):
    """``text`` with each ``key = value`` line of ``lines`` set: in place
    of the key's line where it has one (a key may appear only once),
    else appended."""
    for line in lines.splitlines():
        key = line.partition("=")[0].strip()
        text, n = re.subn(rf"^{re.escape(key)} =.*$", line, text,
                          flags=re.M)
        if not n:
            text += line + "\n"
    return text


def _config_error(tmp_path, capsys, argv, edit):
    """Run ``argv`` on the fast config changed by ``edit``; it must fail
    with one error line. Returns that line."""
    path = tmp_path / "bad.cfg"
    path.write_text(edit(FAST_CFG))
    rc = main([*argv, "--config", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


@pytest.mark.parametrize("argv", [["kle"], ["krige"],
                                  ["condition", "--theta", "theta.csv"],
                                  ["solve"], ["invert"]],
                         ids=lambda argv: argv[0])
def test_subcommand_rejects_fewer_modes_before_output(tmp_path, capsys,
                                                      monkeypatch, argv):
    # the 9 packaged measurements need more than 5 modes; the setup is
    # built before the output directory is created
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, [*argv, "--out-dir", str(out)],
                        lambda text: text.replace("kle.n_terms = 12",
                                                  "kle.n_terms = 5"))
    assert err.startswith("error:conditioning:argument: 9 measurements "
                          "with only 5 KL modes")
    assert not out.exists()


@pytest.mark.parametrize("argv, config_line, text, module", [
    (["solve", "--field", "bad.csv"], "", "1,2\n3,4,5\n", "grid"),
    (["krige"], "paths.measurements = bad.csv\n",
     "x,y,value\n0.5,0.5,1.0 # note\n", "kriging"),
    (["invert"], "paths.reference_field = bad.csv\n", "", "grid"),
    (["condition", "--theta", "bad.csv"], "", "", "cli"),
], ids=["field", "measurements", "reference_field", "theta"])
def test_malformed_input_csv_fails_with_parse_line(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   config_line, text, module):
    # every input is read before the output directory is created
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(text)
    err = _config_error(tmp_path, capsys,
                        [*argv, "--out-dir", str(tmp_path / "out")],
                        lambda cfg: cfg + config_line)
    assert err.startswith(f"error:{module}:parse: bad.csv: ")
    assert not (tmp_path / "out").exists()


def test_invert_rejects_burn_in_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    err = _config_error(
        tmp_path, capsys, ["invert", "--out-dir", str(out)],
        lambda text: text.replace("mcmc.iterations = 80\nmcmc.burn_in = 10",
                                  "mcmc.iterations = 12\nmcmc.burn_in = 11"))
    assert err.startswith(
        "error:diagnostics:argument: burn-in must be in [0, 10]")
    assert not list(out.glob("trace_*.csv"))


@pytest.mark.parametrize("argv, lines, message", [
    (["reference"], "seed = -3",
     "error:cli:argument: seed must be at least 0, got -3"),
    (["invert"], "seed = -3",
     "error:cli:argument: seed must be at least 0, got -3"),
    (["invert"], "mcmc.chains = 1\nmcmc.burn_in = -5",
     "error:diagnostics:argument: burn-in must be at least 0, got -5"),
], ids=["seed_reference", "seed_invert", "burn_in_invert"])
def test_negative_seed_or_burn_in_fails_before_output(tmp_path, capsys, argv,
                                                      lines, message):
    # the lines replace the fast config's chains and burn-in
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, [*argv, "--out-dir", str(out)],
                        lambda text: _set(text, lines))
    assert err == message
    assert not out.exists()


@pytest.mark.parametrize("line, module", [
    ("kernel.sigma2 = nan", "covariance"), ("kernel.lx = nan", "covariance"),
    ("kernel.ly = nan", "covariance"), ("kernel.sigma2 = inf", "covariance"),
    ("mcmc.sigma_f2 = nan", "mcmc"), ("mcmc.sigma_c2 = nan", "mcmc"),
    ("kernel.lx = 1e200", "covariance"), ("kernel.ly = 1e-300", "covariance"),
])
@pytest.mark.parametrize("argv", [["invert"], ["reference"]],
                         ids=lambda argv: argv[0])
def test_non_finite_parameter_fails_before_output(tmp_path, capsys, argv,
                                                  line, module):
    # NaN and inf are rejected with the other bad values, before the
    # kernel reaches LAPACK or a precision reaches the sampler; so are
    # lengths whose square, which the kernel divides by, is inf (a bare
    # OverflowError once) or 0 (a NaN kernel that LAPACK's SVD could not
    # converge on)
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, [*argv, "--out-dir", str(out)],
                        lambda text: _set(text, line))
    assert err.startswith(f"error:{module}:argument:")
    assert not out.exists()


@pytest.mark.parametrize("key, logliks", [
    ("mcmc.sigma_c2", "coarse -inf, fine "), ("mcmc.sigma_f2", ", fine -inf;"),
], ids=["coarse", "fine"])
def test_invert_fails_on_an_initial_state_of_likelihood_zero(
        tmp_path, capsys, key, logliks):
    # a precision of 1e-320 is positive and finite, but every residual
    # overflows its log-likelihood to -inf; no proposal is accepted from
    # a state of likelihood 0, so the chains would never move. The
    # overflow is silent: its one error line is all of stderr, and a
    # RuntimeWarning would fail the test (pyproject's filterwarnings)
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, ["invert", "--out-dir", str(out)],
                        lambda text: _set(text, f"{key} = 1e-320"))
    assert err.startswith("error:mcmc:likelihood: the initial state of "
                          "chain 1 (seed 2023) has log-likelihoods ")
    assert logliks in err
    assert not list(out.glob("trace_*.csv"))


@pytest.mark.parametrize("line, module", [("kernel.lx = 0", "covariance"),
                                          ("mcmc.sigma_f2 = -1e-4", "mcmc"),
                                          ("grid.coarse_nx = 5", "darcy")])
def test_reference_dry_run_rejects_bad_parameter(tmp_path, capsys,
                                                 monkeypatch, line, module):
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, ["reference", "--dry-run"],
                        lambda text: text + line + "\n")
    assert err.startswith(f"error:{module}:argument:")
    assert not (out / "manifest.json").exists()


def test_reference_dry_run_rejects_fewer_modes_than_measurements(
        tmp_path, capsys, monkeypatch):
    # the 9 packaged measurements need more than 5 modes; the setup is
    # built before the output directory, so the dry run fails before
    # creating it
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, ["reference", "--dry-run"],
                        lambda text: text.replace("kle.n_terms = 12",
                                                  "kle.n_terms = 5"))
    assert err.startswith("error:conditioning:argument: 9 measurements "
                          "with only 5 KL modes")
    assert not (out / "manifest.json").exists()
    assert not out.exists()


def test_reference_dry_run_rejects_malformed_reference_field(
        tmp_path, capsys, monkeypatch):
    # the dry run builds the setup, which reads the reference field
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("1,2\n3,4,5\n")
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, ["reference", "--dry-run"],
                        lambda text: text + "paths.reference_field = bad.csv\n")
    assert err.startswith("error:grid:parse: bad.csv: ")
    assert not out.exists()


def test_reference_full_run_rejects_fewer_modes_than_measurements(
        tmp_path, capsys, monkeypatch):
    # the full run checks the count before it writes the manifest too
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, ["reference"],
                        lambda text: text.replace("kle.n_terms = 12",
                                                  "kle.n_terms = 5"))
    assert err.startswith("error:conditioning:argument: 9 measurements "
                          "with only 5 KL modes")
    assert not (out / "manifest.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("row", ["5.0,-2.0,0.5", "0.5,1.0001,0.5"])
def test_krige_rejects_measurement_outside_unit_square(tmp_path, capsys,
                                                       monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ms.csv").write_text(f"x,y,value\n0.5,0.5,1.0\n{row}\n")
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, ["krige", "--out-dir", str(out)],
                        lambda text: text + "paths.measurements = ms.csv\n")
    assert err == ("error:kriging:argument: measurement 2 lies outside the "
                   "unit square [0, 1]^2")
    assert not out.exists()


@pytest.mark.parametrize("row", ["nan,0.5,1.0", "0.5,0.5,nan"],
                         ids=["location", "value"])
def test_krige_rejects_non_finite_measurement(tmp_path, capsys, monkeypatch,
                                              row):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ms.csv").write_text(f"x,y,value\n0.25,0.25,1.0\n{row}\n")
    out = tmp_path / "out"
    err = _config_error(tmp_path, capsys, ["krige", "--out-dir", str(out)],
                        lambda text: text + "paths.measurements = ms.csv\n")
    assert err == "error:kriging:argument: non-finite measurement data"
    assert not out.exists()


def test_reference_dry_run(tmp_path, fast_config, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    rc = main(["reference", "--config", fast_config, "--dry-run"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["chains"] == 2
    assert manifest["seeds"] == [2023, 2024]
    assert os.listdir(out) == ["manifest.json"]


def test_reference_dry_run_out_dir(tmp_path, fast_config, monkeypatch):
    # --out-dir wins over CONDFLOW_OUTPUT_DIR, as in the other subcommands
    out, env_out = tmp_path / "out", tmp_path / "env_out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(env_out))
    rc = main(["reference", "--config", fast_config, "--dry-run",
               "--out-dir", str(out)])
    assert rc == 0
    assert os.listdir(out) == ["manifest.json"]
    assert not env_out.exists()


def test_reference_full_run(tmp_path, fast_config, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    rc = main(["reference", "--config", fast_config])
    assert rc == 0
    for label in ("uncond", "cond"):
        for c in (1, 2):
            assert (out / f"trace_{label}_chain{c}.csv").exists()
        assert (out / f"diagnostics_{label}.csv").exists()
    table = (out / "acceptance_rates.csv").read_text().splitlines()
    assert table[0] == "study,chain,coarse_rate,fine_rate,fine_rate_conditional"
    assert len(table) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["timings_seconds"]) == {"sampling"}


def test_determinism_across_runs(tmp_path, fast_config, monkeypatch):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
        assert main(["reference", "--config", fast_config]) == 0
        outs.append(out)
    for fname in ("trace_uncond_chain1.csv", "trace_cond_chain2.csv",
                  "diagnostics_uncond.csv", "diagnostics_cond.csv",
                  "acceptance_rates.csv"):
        assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False), \
            fname


def test_missing_config_file(tmp_path, capsys):
    rc = main(["invert", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:cli:io:")


def test_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mcmc.betta = 0.85\n")
    rc = main(["invert", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:cli:parse:")
    assert "mcmc.betta" in err


def test_console_script_installed():
    import shutil

    exe = shutil.which("condflow")
    assert exe is not None
