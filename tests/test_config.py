import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from condflow.config import _KEYS, StudyConfig, parse_config
from condflow.errors import ArgumentError, ParseError


def _write(tmp_path, text):
    path = tmp_path / "study.cfg"
    path.write_text(text)
    return path


def test_empty_file_gives_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, ""))
    assert cfg == StudyConfig()


def test_defaults_match_reference_setup():
    cfg = StudyConfig()
    assert (cfg.fine_nx, cfg.fine_ny) == (16, 16)
    assert (cfg.coarse_nx, cfg.coarse_ny) == (8, 8)
    assert (cfg.sigma2, cfg.lx, cfg.ly) == (1.0, 0.4, 0.8)
    assert cfg.n_terms == 20
    assert cfg.beta == 0.85
    assert cfg.sigma_f2 == 1e-4
    assert cfg.sigma_c2 == 5e-3
    assert cfg.chains == 4


def test_comments_and_blank_lines(tmp_path):
    cfg = parse_config(_write(tmp_path, "\n# a comment\n\nmcmc.beta = 0.5\n"))
    assert cfg.beta == 0.5


def test_whitespace_stripping(tmp_path):
    cfg = parse_config(_write(tmp_path, "   kle.n_terms   =    7   \n"))
    assert cfg.n_terms == 7


def test_every_key_round_trips(tmp_path):
    text = """\
grid.fine_nx = 8
grid.fine_ny = 8
grid.coarse_nx = 4
grid.coarse_ny = 4
kernel.sigma2 = 2.0
kernel.lx = 0.3
kernel.ly = 0.6
kle.n_terms = 10
mcmc.beta = 0.7
mcmc.sigma_f2 = 1e-3
mcmc.sigma_c2 = 1e-2
mcmc.chains = 2
mcmc.iterations = 500
mcmc.burn_in = 100
mcmc.conditioned = true
mcmc.single_component = false
seed = 99
paths.measurements = ms.csv
paths.reference_field = ref.csv
paths.output_dir = results
output.snapshots = 10, 20, 30
output.verbosity = 0
"""
    cfg = parse_config(_write(tmp_path, text))
    assert (cfg.fine_nx, cfg.fine_ny, cfg.coarse_nx, cfg.coarse_ny) \
        == (8, 8, 4, 4)
    assert (cfg.sigma2, cfg.lx, cfg.ly) == (2.0, 0.3, 0.6)
    assert cfg.n_terms == 10
    assert cfg.beta == 0.7
    assert (cfg.sigma_f2, cfg.sigma_c2) == (1e-3, 1e-2)
    assert (cfg.chains, cfg.iterations, cfg.burn_in) == (2, 500, 100)
    assert cfg.conditioned
    assert not cfg.single_component
    assert cfg.seed == 99
    assert cfg.measurements == "ms.csv"
    assert cfg.reference_field == "ref.csv"
    assert cfg.output_dir == "results"
    assert cfg.snapshots == (10, 20, 30)
    assert cfg.verbosity == 0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ParseError, match="mcmc.betta"):
        parse_config(_write(tmp_path, "mcmc.betta = 0.85\n"))


@pytest.mark.parametrize("key, value", [("mcmc.store_projected", "false"),
                                        ("kle.energy_threshold", "0.9999")],
                         ids=["mcmc.store_projected", "kle.energy_threshold"])
def test_store_projected_key_rejected(tmp_path, key, value):
    # the keys of removed options (the stored projection, the KL mode
    # count by energy) are now unknown
    with pytest.raises(ParseError, match=f"unknown key '{key}'") as info:
        parse_config(_write(tmp_path, f"{key} = {value}\n"))
    assert (info.value.module, info.value.code) == ("cli", "parse")


def test_repeated_key_rejected_with_both_lines(tmp_path):
    with pytest.raises(ParseError, match=r":3: key 'mcmc.beta' repeats "
                       r"line 1$") as info:
        parse_config(_write(tmp_path, "mcmc.beta = 0.5\n# again\n"
                            "mcmc.beta = 0.9\n"))
    assert (info.value.module, info.value.code) == ("cli", "parse")


def test_missing_equals_reports_line(tmp_path):
    with pytest.raises(ParseError, match=":2:"):
        parse_config(_write(tmp_path, "# ok\nmcmc.beta 0.85\n"))


def test_bad_numeric_value(tmp_path):
    with pytest.raises(ParseError, match="mcmc.beta"):
        parse_config(_write(tmp_path, "mcmc.beta = fast\n"))


def test_bad_boolean_value(tmp_path):
    with pytest.raises(ParseError):
        parse_config(_write(tmp_path, "mcmc.conditioned = maybe\n"))


def test_beta_out_of_range(tmp_path):
    with pytest.raises(ArgumentError, match="beta"):
        parse_config(_write(tmp_path, "mcmc.beta = 1.5\n"))


def test_nonpositive_sizes_rejected():
    for bad in [dict(chains=0), dict(iterations=-1), dict(sigma2=0.0),
                dict(sigma_f2=0.0), dict(sigma_c2=0.0), dict(lx=0.0)]:
        with pytest.raises(ArgumentError):
            StudyConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    (dict(seed=-3), "seed must be at least 0, got -3"),
    (dict(chains=1, burn_in=-5), "burn-in must be at least 0, got -5"),
    (dict(chains=4, burn_in=-5), r"burn-in must be in \[0, 19998\]"),
    (dict(chains=4, iterations=1),
     "at least 2 draws are needed, got traces of 1"),
], ids=["seed", "burn_in_one_chain", "burn_in_four_chains", "one_iteration"])
def test_negative_seed_and_burn_in_rejected(bad, message):
    with pytest.raises(ArgumentError, match=message):
        StudyConfig(**bad)


def test_one_chain_burn_in_has_no_length_bound():
    # only the diagnostics of several chains need draws after burn-in
    assert StudyConfig(chains=1, iterations=12, burn_in=20).burn_in == 20


def test_effective_burn_in():
    assert StudyConfig().effective_burn_in == 2000
    assert StudyConfig(iterations=500).effective_burn_in == 50
    assert StudyConfig(burn_in=7).effective_burn_in == 7


def test_keys_map_onto_fields_one_to_one():
    attrs = sorted(attr for attr, _ in _KEYS.values())
    assert attrs == sorted(f.name for f in fields(StudyConfig))


def test_readme_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = re.findall(r"([a-z_][a-z_0-9.]*) = ", block)
    assert sorted(keys) == sorted(_KEYS)


def test_as_dict_round_trip():
    cfg = StudyConfig(beta=0.6, chains=2)
    assert StudyConfig(**asdict(cfg)) == cfg
