"""Every artifact of the runs in ``tests/digests.py``, byte for byte as
committed in ``tests/golden/artifacts.json``, in the environment the file
records; elsewhere the test skips and names both environments."""

import json

import pytest

from digests import GOLDEN, environment, run_all


def test_artifacts_match_the_committed_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    if env != golden["environment"]:
        pytest.skip(f"digests recorded in {golden['environment']}; "
                    f"this is {env}")
    monkeypatch.chdir(tmp_path)
    runs = run_all()
    assert runs.keys() == golden["runs"].keys()
    moved = [f"{run}: {path}"
             for run, want in golden["runs"].items()
             for path in sorted(want.keys() | runs[run].keys())
             if runs[run].get(path) != want.get(path)]
    assert not moved, "artifacts differ from the committed digests:\n" \
        + "\n".join(moved)
