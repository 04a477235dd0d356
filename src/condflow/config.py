"""Line-oriented ``key = value`` study configuration.

Grammar (bit-exact): one ``key = value`` pair per line; whitespace
around key and value is stripped; blank lines and lines starting with
``#`` are ignored; ``#`` does not start a comment elsewhere on a line.
Booleans are ``true``/``1``/``yes`` or ``false``/``0``/``no``
(case-insensitive); the snapshot list is comma-separated integers.
Unknown keys, and a key given twice, are rejected.

Each key is one :class:`StudyConfig` field, ``<section>.<field>`` with
the section the field declares (``seed`` has none); ``_KEYS`` derives
from the fields, each value parsed by its field's annotation.

An empty file yields the defaults, which reproduce the reference
experimental setup: 16x16 fine / 8x8 coarse grids, sigma2 = 1,
lx = 0.4, ly = 0.8, 20 KL modes, beta = 0.85, sigma_f2 = 1e-4,
sigma_c2 = 5e-3, 4 chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .covariance import KernelParams
from .darcy import check_refinement
from .diagnostics import check_burn_in
from .errors import ArgumentError, ParseError
from .grid import make_grid
from .mcmc import LikelihoodParams

_MOD = "cli"


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s):
    return tuple(int(t) for t in s.split(",") if t.strip())


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
            "tuple": _parse_int_list}


def _key(section, default):
    """A field read from the file key ``<section>.<field name>``."""
    return field(default=default, metadata={"section": section})


@dataclass
class StudyConfig:
    fine_nx: int = _key("grid", 16)
    fine_ny: int = _key("grid", 16)
    coarse_nx: int = _key("grid", 8)
    coarse_ny: int = _key("grid", 8)
    sigma2: float = _key("kernel", 1.0)
    lx: float = _key("kernel", 0.4)
    ly: float = _key("kernel", 0.8)
    n_terms: int = _key("kle", 20)
    beta: float = _key("mcmc", 0.85)
    sigma_f2: float = _key("mcmc", 1e-4)
    sigma_c2: float = _key("mcmc", 5e-3)
    chains: int = _key("mcmc", 4)
    iterations: int = _key("mcmc", 20000)
    burn_in: int = _key("mcmc", None)  # default: 10% of iterations
    conditioned: bool = _key("mcmc", False)
    single_component: bool = _key("mcmc", True)
    seed: int = 2023
    measurements: str = _key("paths", None)  # packaged defaults when unset
    reference_field: str = _key("paths", None)
    output_dir: str = _key("paths", "out")
    snapshots: tuple = _key("output", (40, 5000, 20000))
    verbosity: int = _key("output", 1)

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ArgumentError(
                f"mcmc.beta must be in [0, 1], got {self.beta}", module=_MOD
            )
        for key in ("fine_nx", "fine_ny", "coarse_nx", "coarse_ny",
                    "n_terms", "chains", "iterations"):
            if getattr(self, key) < 1:
                raise ArgumentError(f"{key} must be positive", module=_MOD)
        if self.seed < 0:  # numpy seeds its generators from n >= 0 only
            raise ArgumentError(f"seed must be at least 0, got {self.seed}",
                                module=_MOD)
        check_refinement(make_grid(self.fine_nx, self.fine_ny),
                         make_grid(self.coarse_nx, self.coarse_ny))
        # each parameter type checks its own values
        self.kernel, self.likelihood
        # the diagnostics of several chains need 2 draws after burn-in
        check_burn_in(self.effective_burn_in,
                      self.iterations if self.chains > 1 else None)

    @property
    def kernel(self):
        """Covariance kernel parameters, checked by KernelParams."""
        return KernelParams(self.sigma2, self.lx, self.ly)

    @property
    def likelihood(self):
        """Likelihood precisions, checked by LikelihoodParams."""
        return LikelihoodParams(self.sigma_c2, self.sigma_f2)

    @property
    def effective_burn_in(self):
        return self.iterations // 10 if self.burn_in is None else self.burn_in

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# config-file key -> (attribute, parser), one per StudyConfig field
_KEYS = {".".join(filter(None, (f.metadata.get("section"), f.name))):
         (f.name, _PARSERS[f.type]) for f in fields(StudyConfig)}


def parse_config(path):
    """Read and validate a config file, applying defaults; no file (a
    path of None) gives the defaults."""
    if path is None:
        return StudyConfig()
    overrides, seen = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(
                    f"{path}:{lineno}: expected 'key = value'", module=_MOD
                )
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ParseError(
                    f"{path}:{lineno}: unknown key '{key}'", module=_MOD
                )
            if key in seen:
                raise ParseError(f"{path}:{lineno}: key '{key}' repeats "
                                 f"line {seen[key]}", module=_MOD)
            seen[key] = lineno
            attr, parser = _KEYS[key]
            try:
                overrides[attr] = parser(value)
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lineno}: bad value for '{key}': {exc}",
                    module=_MOD,
                ) from exc
    return StudyConfig(**overrides)
