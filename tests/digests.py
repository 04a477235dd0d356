"""SHA-256 digests of the artifacts of a fixed set of small CLI runs, and
the environment they were made in.

``tests/test_golden.py`` reruns the runs and compares their digests with
the ones committed in ``tests/golden/artifacts.json``. The bytes depend
on the Python, numpy and scipy builds, on numpy's BLAS and LAPACK and on
the SIMD extensions numpy dispatches to, so the comparison is made only
in the environment the file records.

Regenerate the file, from the repository root, with::

    PYTHONPATH=src python tests/digests.py

A change that moves artifact bytes on purpose regenerates it and says
which digests moved and why.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden" / "artifacts.json"

#: config files, written to the working directory before the runs
CONFIGS = {
    # test_acceptance.py's criterion 8
    "criterion8.cfg": ("mcmc.chains = 2", "mcmc.iterations = 300",
                       "mcmc.burn_in = 50", "output.snapshots = 100, 300",
                       "output.verbosity = 0"),
    # the short run of .github/workflows/tests.yml: 4x4 coarse blocks
    # take the generic upscaling path
    "short.cfg": ("grid.coarse_nx = 4", "grid.coarse_ny = 4",
                  "mcmc.iterations = 100", "mcmc.chains = 2",
                  "output.snapshots = 50"),
}
#: the theta of ``condition``, one value per default KL mode
THETA = [(-1) ** i * (i + 1) / 8 for i in range(20)]

#: each run's output directory and its argv; each run writes only there
RUNS = {
    "reference": ["reference", "--config", "criterion8.cfg",
                  "--out-dir", "reference"],
    "short": ["reference", "--config", "short.cfg", "--out-dir", "short"],
    "kle": ["kle", "--out-dir", "kle"],
    "krige": ["krige", "--out-dir", "krige"],
    "solve": ["solve", "--out-dir", "solve"],
    "condition": ["condition", "--theta", "theta.csv",
                  "--out-dir", "condition"],
    # at the run's own burn-in of 50 some parameter never moves, and the
    # report is its header alone; after 30 it has 9 checkpoints
    "diagnose": ["diagnose", "reference/trace_uncond_chain1.csv",
                 "reference/trace_uncond_chain2.csv", "--burn-in", "30",
                 "--checkpoint-every", "25", "--out",
                 "diagnose/diagnostics.csv"],
}


def environment():
    """What the artifact bytes depend on, or None where numpy cannot
    report its build as a dict (numpy before 1.26)."""
    import scipy

    try:
        build = np.show_config(mode="dicts")
    except TypeError:
        return None
    deps = build["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{lib: {key: deps[lib].get(key) for key in ("name", "version")}
           for lib in ("blas", "lapack")},
        "simd_found": build["SIMD Extensions"]["found"],
    }


def _digest(path):
    """The SHA-256 of a file; a manifest is hashed without its
    ``timings_seconds``, the one value that differs between runs."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["timings_seconds"]
        data = (json.dumps(manifest, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def run_all():
    """Run every run in the working directory, with relative paths, since
    a manifest records its artifact paths as they were given; returns
    {run: {artifact path: digest}}."""
    from condflow.cli import main

    for name, lines in CONFIGS.items():
        Path(name).write_text("\n".join(lines) + "\n")
    Path("theta.csv").write_text("".join(f"{t!r}\n" for t in THETA))
    os.makedirs("diagnose")
    digests = {}
    for name, argv in RUNS.items():
        if main(argv) != 0:
            raise RuntimeError(f"run {name} failed: {argv}")
        digests[name] = {path.as_posix(): _digest(path)
                         for path in sorted(Path(name).iterdir())}
    return digests


def main():
    env = environment()
    if env is None:
        sys.exit("numpy before 1.26 cannot report its build as a dict")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            runs = run_all()
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": env, "runs": runs},
                                 indent=2) + "\n")
    print(f"{sum(map(len, runs.values()))} digests written to {GOLDEN}")


if __name__ == "__main__":
    main()
