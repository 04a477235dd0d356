import filecmp
import json
import os

import numpy as np
import pytest

from condflow.cli import main

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


def test_invert_and_diagnose(tmp_path, fast_config, capsys):
    out = tmp_path / "out"
    rc = main(["invert", "--config", fast_config, "--out-dir", str(out)])
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
    assert err.startswith("error:study:argument: burn-in must be in [0, 18]")


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
    assert err.startswith("error:study:argument: checkpoint spacing")


def test_diagnose_rejects_different_parameter_counts(tmp_path, capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 3)])
    err = _diagnose_error(tmp_path, capsys, paths)
    assert err.startswith("error:diagnostics:argument: trace shapes differ")


def test_diagnose_rejects_nan_in_one_trace(tmp_path, capsys):
    paths = _write_traces(tmp_path, [(20, 2), (20, 2), (20, 2)], nan_at=1)
    err = _diagnose_error(tmp_path, capsys, paths)
    assert err.startswith("error:diagnostics:argument: chain matrix "
                          "contains non-finite values")


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
], ids=["field", "measurements", "reference_field"])
def test_malformed_input_csv_fails_with_parse_line(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   config_line, text, module):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(text)
    err = _config_error(tmp_path, capsys,
                        [*argv, "--out-dir", str(tmp_path / "out")],
                        lambda cfg: cfg + config_line)
    assert err.startswith(f"error:{module}:parse: bad.csv: ")


def test_invert_rejects_burn_in_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    err = _config_error(
        tmp_path, capsys, ["invert", "--out-dir", str(out)],
        lambda text: text.replace("mcmc.iterations = 80\nmcmc.burn_in = 10",
                                  "mcmc.iterations = 12\nmcmc.burn_in = 11"))
    assert err.startswith("error:study:argument: burn-in must be in [0, 10]")
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
    # the 9 packaged measurements need more than 5 modes; n_terms fixes n
    # before any KLE, so the dry run fails before creating the output
    # directory
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, ["reference", "--dry-run"],
                        lambda text: text.replace("kle.n_terms = 12",
                                                  "kle.n_terms = 5"))
    assert err.startswith("error:conditioning:argument: 9 measurements "
                          "with only 5 KL modes")
    assert not (out / "manifest.json").exists()
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


@pytest.mark.parametrize("argv", [["reference", "--dry-run"],
                                  ["reference"]])
def test_reference_energy_threshold_rejects_fewer_modes_than_measurements(
        tmp_path, capsys, monkeypatch, argv):
    # with kle.energy_threshold, n comes from the covariance spectrum; it
    # is still counted before the output directory is created
    out = tmp_path / "out"
    monkeypatch.setenv("CONDFLOW_OUTPUT_DIR", str(out))
    err = _config_error(tmp_path, capsys, argv,
                        lambda text: text + "kle.energy_threshold = 0.5\n")
    assert err.startswith("error:conditioning:argument: 9 measurements "
                          "with only ")
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
