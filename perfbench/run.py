"""condflow benchmark: one workload per invocation.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: condflow is imported from
``src/`` next to this directory, and nothing is installed. With
``--trace 0`` the run measures the end-to-end metrics with nothing
patched. With ``--trace 1`` it alternates untraced and traced executions
of the same replicates, wraps condflow's public functions from outside
(``tracing.py``) and reports the per-layer metrics. The last line of
standard output is the result,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is ``record {...}``: the environment, the SHA-256
of every trace and diagnostics CSV, and the per-replicate values. Output
files go to ``.bench_out/`` in the checkout. Why each workload exists,
and where each layer should not move, is in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from ess import summed_ess
from tracing import Tracer, calls_under, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: per workload: the work of one replicate (iterations per chain, or
#: draws per diagnosed trace) and its nominal seconds on a 2-core host. A
#: run of ``--seconds S`` makes round(S / nominal_s) replicates, at least
#: MIN_REPS, so the statistics of a replicate do not depend on S.
PLAN = {
    "reference": {"size": 80, "nominal_s": 1.4},
    "screening": {"size": 150, "nominal_s": 0.5},
    "diagnose": {"size": 12000, "nominal_s": 1.4},
}
MIN_REPS = 4
TRACE_SETS = 8  # distinct stand-in trace sets per diagnose run
CHAINS = 4  # the default config's chain count; diagnose uses it too
SETUP_REPEATS = 5
#: nominal seconds of one HostProbe.seconds() call; see HostProbe
PROBE_NOMINAL_S = 0.020
HONOR_TOL = 1e-9
FLUX_RTOL = 1e-9
LOGLIK_RTOL = 1e-9

ENTRY = {
    "reference": "study.run_reference_experiment",
    "screening": "study.run_one_study",
    "diagnose": "cli.main",
}


def median(values):
    return float(statistics.median(values))


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def import_condflow():
    """Import condflow from this checkout's ``src``, never from anywhere
    else on the path."""
    sys.path.insert(0, str(SRC))
    import condflow

    if SRC not in Path(condflow.__file__).resolve().parents:
        raise ImportError(f"condflow imported from {condflow.__file__}, "
                          f"not from {SRC}")
    import condflow.cli  # noqa: F401  (loads every module)


def import_seconds():
    """Median seconds for a fresh interpreter to import condflow's CLI,
    which loads every module."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import condflow.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return median(times)


class HostProbe:
    """A fixed kernel, independent of condflow, timed between replicates
    to measure the host's speed.

    The host is shared: the same work runs up to 60% slower for tens of
    seconds at a time, Python and BLAS alike, which no number of
    replicates in one run averages out. Over 10 diagnose runs the median
    replicate time spread by 0.18-0.31 (IQR/median). The probe runs
    before the first replicate and after every one; a replicate's time
    times PROBE_NOMINAL_S over the mean of the two probes around it is
    its time on a host where the probe takes its nominal time. Raw times
    are in the record.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 256))
        self.matrix = a @ a.T + 256.0 * np.eye(256)
        self.rhs = rng.standard_normal(256)
        self.text = [format(v, ".17g") for v in rng.standard_normal(20000)]
        self.draws = rng.standard_normal((4, 10000, 20))
        self.times = []
        self.run()  # the first call also starts BLAS threads; discard it
        self.times.clear()

    def run(self):
        """Time a dense solve (as in the fine pressure solve), float
        parsing (as in trace CSV reading) and a covariance contraction
        (as in the diagnostics)."""
        t0 = time.perf_counter()
        for _ in range(5):
            np.linalg.solve(self.matrix, self.rhs)
        total = 0.0
        for token in self.text:
            total += float(token)
        np.einsum("jci,jcm->im", self.draws, self.draws)
        self.times.append(time.perf_counter() - t0)

    def scaled(self, seconds, i):
        """Seconds measured between probes i and i + 1, scaled to the
        nominal host."""
        return seconds * 2.0 * PROBE_NOMINAL_S / (self.times[i]
                                                  + self.times[i + 1])

    def scale(self):
        return PROBE_NOMINAL_S / median(self.times)


def environment():
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    keys = ("name", "version", "openblas configuration")
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in keys},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in keys},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and status.returncode == 0:
            record["git_commit"] = head.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


@dataclasses.dataclass
class Replicate:
    """One execution of a workload's entry point and what it produced."""

    wall_s: float
    core_s: float  # run_study seconds; the entry point itself for diagnose
    draws: int
    ess: np.ndarray  # per parameter, summed over the replicate's chains
    fine_solves: int
    coarse_accepted: int
    fine_accepted: int
    checkpoints_evaluated: int
    checkpoints_skipped: int
    pinv_fallbacks: int
    trace_bytes: int
    attempted: int
    failed: int
    files: dict  # path under .bench_out -> SHA-256


def report_ok(report, expected):
    """A diagnostics report's rows are distinct expected checkpoints in
    order, with finite PSRF and MPSRF. A checkpoint may be missing: condflow
    skips one where a chain has not moved yet."""
    return (report.checkpoints == sorted(set(report.checkpoints))
            and set(report.checkpoints) <= set(expected)
            and bool(np.all(np.isfinite(report.max_psrf)))
            and bool(np.all(np.isfinite(report.mpsrf))))


def chain_ok(setup, trace, conditioned):
    """The chain's log-likelihoods are finite; its final state honors the
    measurements (conditioned chains), has a fine pressure within the
    boundary values with balanced boundary fluxes, and gives the
    log-likelihood the trace recorded for it."""
    from condflow import conditioning, darcy, kle, kriging, mcmc

    b = setup.bundle
    theta = trace.thetas[-1]
    if conditioned:
        fld = conditioning.synthesize_conditioned(b.basis, b.kriged, theta,
                                                  b.projector)
        cells = kriging.snap_to_cells(setup.measurements, b.fine)
        err = np.max(np.abs(fld.values[cells] - setup.measurements.values))
        if not err <= HONOR_TOL:
            return False
    else:
        fld = kle.synthesize_unconditioned(b.basis, theta)
    p = darcy.solve_pressure(fld, b.bc)
    q_in, q_out = darcy.boundary_fluxes(fld, p, b.bc)
    llf = mcmc.log_likelihood(darcy.observe_pressure(p, b.fine_mask),
                              b.ref_obs_fine, b.likelihood.sigma_f2)
    return (bool(np.all(np.isfinite(trace.loglik_fine)))
            and b.bc.p_right <= p.values.min()
            and p.values.max() <= b.bc.p_left
            and abs(q_in - q_out) <= FLUX_RTOL * abs(q_in)
            and abs(llf - trace.loglik_fine[-1]) <= LOGLIK_RTOL * abs(llf))


class Sampling:
    """``reference``: both studies through run_reference_experiment.
    ``screening``: one unconditioned study with full-vector proposals
    through run_one_study, after its own build_setup."""

    def __init__(self, name, seed, iterations):
        from condflow import study
        from condflow.config import StudyConfig

        self.name = name
        self.seed = seed
        self.study = study
        self.cfg = StudyConfig(
            iterations=iterations,
            single_component=(name == "reference"),
            snapshots=(iterations // 4, iterations // 2, iterations),
            verbosity=0,
        )

    def setup_seconds(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup = self.study.build_setup(self.cfg)
            times.append(time.perf_counter() - t0)
        return import_seconds() + median(times)

    def run(self, rep, out_dir):
        """Run the entry point once: (wall_s, run_study seconds, payload)."""
        # disjoint chain seeds for every (workload seed, replicate)
        cfg = dataclasses.replace(self.cfg,
                                  seed=self.seed * 1000 + CHAINS * rep)
        os.environ["CONDFLOW_OUTPUT_DIR"] = str(out_dir)
        if self.name == "reference":
            t0 = time.perf_counter()
            self.study.run_reference_experiment(cfg)
            wall = time.perf_counter() - t0
            with open(out_dir / "manifest.json") as fh:
                manifest = json.load(fh)
            core = sum(manifest["timings_seconds"].values())
            studies = [(manifest["artifacts"]["uncond"], False),
                       (manifest["artifacts"]["cond"], True)]
        else:
            setup = self.study.build_setup(cfg)
            t0 = time.perf_counter()
            _, _, artifacts, core = self.study.run_one_study(
                setup, False, str(out_dir))
            wall = time.perf_counter() - t0
            studies = [(artifacts, False)]
        return wall, core, (cfg, studies)

    def collect(self, wall, core, payload):
        """Read back and check what one run wrote."""
        from condflow import mcmc
        from condflow.diagnostics import read_report_csv

        cfg, studies = payload
        burn = cfg.effective_burn_in
        expected = self.study.checkpoints_for(cfg.iterations - burn)
        traces, files = [], {}
        failed = evaluated = 0
        for artifacts, conditioned in studies:
            trs = [mcmc.read_trace_csv(p) for p in artifacts["traces"]]
            report = read_report_csv(artifacts["diagnostics"])
            evaluated += len(report.checkpoints)
            if report_ok(report, expected):
                failed += sum(not chain_ok(self.setup, t, conditioned)
                              for t in trs)
            else:
                failed += len(trs)
            traces += trs
            for p in artifacts["traces"] + [artifacts["diagnostics"]]:
                files[os.path.relpath(p, OUT)] = sha256(p)
        return Replicate(
            wall_s=wall,
            core_s=core,
            draws=sum(t.iterations for t in traces),
            ess=summed_ess([t.thetas[burn:] for t in traces]),
            fine_solves=sum(1 + int(np.sum(t.coarse_accepted))
                            for t in traces),
            coarse_accepted=sum(int(np.sum(t.coarse_accepted))
                                for t in traces),
            fine_accepted=sum(int(np.sum(t.fine_accepted)) for t in traces),
            checkpoints_evaluated=evaluated,
            checkpoints_skipped=len(studies) * len(expected) - evaluated,
            pinv_fallbacks=0,
            trace_bytes=sum(os.path.getsize(p) for a, _ in studies
                            for p in a["traces"]),
            attempted=len(traces),
            failed=failed,
            files=files,
        )


def standin_trace(rng, length, n):
    """A cheap chain shaped like the sampler's output: one component moves
    per accepted iteration by the random-walk proposal (beta = 0.85), a
    rejection repeats the state, and each iteration carries coarse (90%)
    and fine-given-coarse (70%) acceptance flags."""
    from condflow.mcmc import ChainTrace

    beta, p_coarse, p_fine = 0.85, 0.9, 0.7
    keep = np.sqrt(1.0 - beta * beta)
    comps = rng.integers(n, size=length)
    eps = rng.standard_normal(length)
    coarse = rng.random(length) < p_coarse
    fine = coarse & (rng.random(length) < p_fine)
    theta = rng.standard_normal(n)
    thetas = np.empty((length, n))
    for it in range(length):
        if fine[it]:
            i = comps[it]
            theta[i] = keep * theta[i] + beta * eps[it]
        thetas[it] = theta
    loglik = -0.5 * np.sum(thetas * thetas, axis=1)
    return ChainTrace(thetas, coarse, fine, loglik, seed=0)


class Diagnose:
    """``diagnose``: ``condflow diagnose`` (cli.main, in process) over
    CHAINS stand-in traces. TRACE_SETS sets are generated from the seed
    and written up front, untimed; replicate r diagnoses set
    r % TRACE_SETS."""

    def __init__(self, seed, length, out_dir):
        from condflow import cli, mcmc, study
        from condflow.config import StudyConfig

        self.cli, self.study = cli, study
        self.length = length
        self.burn = length // 10
        self.sets = []
        for k in range(TRACE_SETS):
            rng = np.random.default_rng([seed, k])
            traces = [standin_trace(rng, length, StudyConfig().n_terms)
                      for _ in range(CHAINS)]
            set_dir = out_dir / f"set{k}"
            set_dir.mkdir(parents=True)
            paths = [str(set_dir / f"trace_chain{c + 1}.csv")
                     for c in range(CHAINS)]
            for t, p in zip(traces, paths):
                mcmc.write_trace_csv(t, p)
            # keep only what collect() reports, not the draws themselves
            self.sets.append({
                "paths": paths,
                "ess": summed_ess([t.thetas[self.burn:] for t in traces]),
                "coarse_accepted": sum(int(np.sum(t.coarse_accepted))
                                       for t in traces),
                "fine_accepted": sum(int(np.sum(t.fine_accepted))
                                     for t in traces),
            })

    def setup_seconds(self):
        return import_seconds()

    def run(self, rep, out_dir):
        """Run the entry point once: (wall_s, wall_s, payload)."""
        paths = self.sets[rep % TRACE_SETS]["paths"]
        out = out_dir / "diagnostics.csv"
        argv = ["diagnose", *paths, "--out", str(out),
                "--burn-in", str(self.burn)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        return wall, wall, (rep, code, out, printed.getvalue())

    def collect(self, wall, core, payload):
        from condflow.diagnostics import read_report_csv

        rep, code, out, printed = payload
        inputs = self.sets[rep % TRACE_SETS]
        paths = inputs["paths"]
        expected = self.study.checkpoints_for(self.length - self.burn)
        report = read_report_csv(out) if code == 0 else None
        evaluated = len(report.checkpoints) if report else 0
        # one row per checkpoint not skipped with a notice, and a final
        # MPSRF: the stand-in chains move, so the last checkpoint counts
        notices = printed.count("notice: checkpoint")
        ok = (report is not None and report_ok(report, expected)
              and evaluated + notices == len(expected)
              and report.checkpoints[-1] == expected[-1])
        files = {os.path.relpath(p, OUT): sha256(p)
                 for p in paths + ([str(out)] if report else [])}
        return Replicate(
            wall_s=wall,
            core_s=core,
            draws=CHAINS * self.length,
            ess=inputs["ess"],
            fine_solves=CHAINS + inputs["coarse_accepted"],
            coarse_accepted=inputs["coarse_accepted"],
            fine_accepted=inputs["fine_accepted"],
            checkpoints_evaluated=evaluated,
            checkpoints_skipped=len(expected) - evaluated,
            pinv_fallbacks=0,
            trace_bytes=sum(os.path.getsize(p) for p in paths),
            attempted=CHAINS,
            failed=0 if ok else CHAINS,
            files=files,
        )


def execute(workload, rep, out_dir, tracer=None):
    """One replicate: the entry point (traced if a tracer is given), then
    the untraced read-back and checks. MPSRF pseudo-inverse fallbacks,
    which condflow reports as warnings, are counted."""
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wall, core, payload = workload.run(rep, out_dir)
    finally:
        if tracer is not None:
            tracer.restore()
    r = workload.collect(wall, core, payload)
    r.pinv_fallbacks = sum("pseudo-inverse" in str(w.message)
                           for w in caught)
    return r


def end_to_end(reps, setup_s, probe):
    """Every replicate does the same work, so rates divide one replicate's
    draws, and the run's ESS per replicate, by median times scaled to the
    nominal host speed (see HostProbe). The run's ESS is the minimum over
    parameters of the ESS summed over every chain of every replicate."""
    ess = float(np.min(np.sum([r.ess for r in reps], axis=0)))
    wall = median(probe.scaled(r.wall_s, i) for i, r in enumerate(reps))
    core = median(probe.scaled(r.core_s, i) for i, r in enumerate(reps))
    draws = reps[0].draws
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "iters_per_s": (draws / core, "1/s"),
        "draws_per_s": (draws / wall, "1/s"),
        "ess_per_s": (ess / len(reps) / wall, "1/s"),
        "ess_per_fine_solve": (ess / sum(r.fine_solves for r in reps),
                               "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


#: spans reported with call count and p50/p99 inclusive microseconds
LATENCY = (
    "darcy.solve_pressure.fine",
    "darcy.solve_pressure.coarse",
    "darcy.upscale",
    "kle.synthesize_unconditioned",
    "conditioning.synthesize_conditioned",
)
#: seconds per replicate spent in these spans (inclusive)
SECONDS = (
    "study.build_setup",
    "covariance.assemble_covariance",
    "kle.solve_kle",
    "kriging.krige",
    "conditioning.nullspace_basis",
    "mcmc.write_trace_csv",
    "mcmc.read_trace_csv",
    "diagnostics.diagnostics_series",
)
#: self-time share of the entry point
SHARES = LATENCY + (
    "mcmc.run_chain",
    "mcmc.write_trace_csv",
    "mcmc.read_trace_csv",
    "diagnostics.diagnostics_series",
    "diagnostics.mpsrf",
    "grid.write_field_pgm",
)


def per_layer(spans, reps, walls_untraced, root, scale):
    """Per-layer metrics from the traced replicates' spans; a layer that
    the workload never calls reads 0."""
    stats = summarize(spans)
    empty = {"calls": 0, "us": np.zeros(1), "total_s": 0.0, "self_s": 0.0}
    get = lambda name: stats.get(name, empty)  # noqa: E731
    n_reps = len(reps)
    iters = sum(r.draws for r in reps)
    sampled = iters if "mcmc.run_chain" in stats else 0
    root_s = get(root)["total_s"]

    m = {}
    for name in LATENCY:
        s = get(name)
        m[f"{name}.us_p50"] = (float(np.percentile(s["us"], 50)), "us")
        m[f"{name}.us_p99"] = (float(np.percentile(s["us"], 99)), "us")
        m[f"{name}.calls"] = (s["calls"], "count")
    for kind in ("coarse", "fine"):
        solves = calls_under(spans, "mcmc.run_chain",
                             f"darcy.solve_pressure.{kind}")
        m[f"darcy.{kind}_solves_per_iter"] = (
            solves / sampled if sampled else 0.0, "count")
    m["mcmc.run_chain.self_us_per_iter"] = (
        get("mcmc.run_chain")["self_s"] * 1e6 / sampled if sampled else 0.0,
        "us")
    coarse = sum(r.coarse_accepted for r in reps)
    m["mcmc.coarse_accept_rate"] = (coarse / iters, "ratio")
    m["mcmc.fine_accept_given_coarse"] = (
        sum(r.fine_accepted for r in reps) / coarse if coarse else 0.0,
        "ratio")
    for name in SECONDS:
        m[f"{name}.s"] = (get(name)["total_s"] / n_reps, "s")
    m["grid.write_field_pgm.us_p50"] = (
        float(np.percentile(get("grid.write_field_pgm")["us"], 50)), "us")
    m["mcmc.trace_mb"] = (sum(r.trace_bytes for r in reps) / n_reps / 1e6,
                          "MB")
    m["diagnostics.mpsrf.us_p50"] = (
        float(np.percentile(get("diagnostics.mpsrf")["us"], 50)), "us")
    for key in ("checkpoints_evaluated", "checkpoints_skipped",
                "pinv_fallbacks"):
        m[f"diagnostics.{key}"] = (sum(getattr(r, key) for r in reps),
                                   "count")
    for name in SHARES:
        m[f"share.{name}"] = (get(name)["self_s"] / root_s, "ratio")
    m["trace.overhead"] = (
        median(r.wall_s for r in reps) / median(walls_untraced)
        - 1.0,
        "ratio")
    m["trace.uncovered_share"] = (get(root)["self_s"] / root_s, "ratio")
    m["host.scale"] = (scale, "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_condflow()
    plan = PLAN[args.workload]
    size = plan["size"]
    n_reps = max(MIN_REPS, round(args.seconds / plan["nominal_s"]))
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.workload == "diagnose":
        workload = Diagnose(args.seed, size, out)
    else:
        workload = Sampling(args.workload, args.seed, size)
    setup_s = workload.setup_seconds()
    probe = HostProbe()
    probe.run()

    tracer = None
    if args.trace:
        from condflow.config import StudyConfig
        from condflow.grid import make_grid

        cfg = StudyConfig()
        tracer = Tracer(make_grid(cfg.fine_nx, cfg.fine_ny))
    reps, walls_untraced = [], []
    for rep in range(n_reps):
        rep_dir = out / f"rep{rep}"
        rep_dir.mkdir()
        if tracer is not None:
            walls_untraced.append(execute(workload, rep, rep_dir).wall_s)
        reps.append(execute(workload, rep, rep_dir, tracer))
        probe.run()

    if tracer is None:
        metrics = end_to_end(reps, setup_s, probe)
    else:
        tracer.write(out / "spans.jsonl")
        metrics = per_layer(tracer.spans, reps, walls_untraced,
                            ENTRY[args.workload], probe.scale())
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {d["name"]: d["unit"] for d in declared} != {
            name: unit for name, (_, unit) in metrics.items()}:
        sys.exit("error: metrics differ from those BENCHMARK.json declares")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "host_probe_s": probe.times,
        "host_scale": probe.scale(),
        "raw_median_wall_s": median(r.wall_s for r in reps),
        "environment": environment(),
        "error_rate": failed / attempted,
        "replicates": [
            dict({k: v for k, v in dataclasses.asdict(r).items()
                  if k != "files"}, ess=r.ess.tolist())
            for r in reps
        ],
        "sha256": {k: v for r in reps for k, v in r.files.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
