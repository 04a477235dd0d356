"""Two-stage (coarse filter, then fine) Metropolis-Hastings sampling of
KL coefficients, with and without conditioning on measurements.

Proposals come from the random walk sampler

    theta_p = sqrt(1 - beta^2) * theta + beta * eps,   eps ~ N(0, I),

applied by default to a single uniformly chosen component per iteration.
This sampler is reversible with respect to the standard-normal prior:
the transition density satisfies

    pi(theta) q(theta_p | theta) = pi(theta_p) q(theta | theta_p),

because (theta, theta_p) is a jointly Gaussian exchangeable pair under
the prior. Hence the instrumental ratio times the prior ratio cancels in
the Metropolis ratio and the acceptance probabilities reduce to pure
likelihood ratios:

    alpha_c = min(1, exp(llc_p - llc))
    alpha_f = min(1, exp((llf_p - llf) - (llc_p - llc)))

A chain reads beta, the iteration count and the single-component flag
from the study's :class:`condflow.config.StudyConfig`, which has
validated them, and its seed from :func:`chain_seeds`. Its state is the
unprojected theta; :func:`synthesize` projects it onto its study's
prior only to make its field.

The trace records the fine-scale accepted theta per iteration, repeating
the previous state on rejection, which is exactly what the convergence
diagnostics consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import conditioning, darcy, grid, kle
from .errors import (ArgumentError, CondflowError, NumericalError,
                     ParseError)
from .grid import (Grid2D, ObservationMask, ScalarField, _read_csv,
                   chessboard_mask)

_MOD = "mcmc"


@dataclass(frozen=True)
class LikelihoodParams:
    """Precision parameters of the coarse and fine Gaussian likelihoods."""

    sigma_c2: float
    sigma_f2: float

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.sigma_c2, self.sigma_f2)):
            raise ArgumentError("precision parameters must be positive and "
                                f"finite (sigma_c2={self.sigma_c2}, "
                                f"sigma_f2={self.sigma_f2})", module=_MOD)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything a chain needs, all immutable and shareable.

    The other seven fields are derived: the basis's grid, the default
    boundary conditions, each grid's chessboard mask, the reference
    field's data through the forward model that scores the proposals,
    and ``priors``, the (mean surface, Q) pair of each study, indexed by
    its conditioned flag. The conditioned prior is ``(kriged,
    projector)``; the unconditioned one is the prior conditioned on no
    data, a zero surface and the identity, which is what
    :func:`condflow.conditioning.nullspace_basis` returns for a data
    matrix with no rows.
    """

    basis: kle.KLEBasis  # on the fine grid
    coarse: Grid2D
    reference_field: ScalarField  # on the fine grid
    likelihood: LikelihoodParams
    projector: np.ndarray  # nullspace basis Q of the data matrix
    kriged: ScalarField
    fine: Grid2D = field(init=False)
    bc: darcy.BoundaryConditions = field(init=False)
    fine_mask: ObservationMask = field(init=False)
    coarse_mask: ObservationMask = field(init=False)
    ref_obs_fine: np.ndarray = field(init=False)
    ref_obs_coarse: np.ndarray = field(init=False)
    priors: dict = field(init=False)  # conditioned flag: (mean, Q)

    def __post_init__(self):
        fine = self.basis.grid
        zero = ScalarField(fine, np.zeros(fine.n_cells))
        for name, value in (("fine", fine), ("bc", darcy.BoundaryConditions()),
                            ("fine_mask", chessboard_mask(fine)),
                            ("coarse_mask", chessboard_mask(self.coarse)),
                            ("priors", {False: (zero, np.eye(self.basis.n)),
                                        True: (self.kriged, self.projector)})):
            object.__setattr__(self, name, value)
        # the observations read the grids, the conditions and the masks
        for name, obs in (("ref_obs_fine", _fine_obs),
                          ("ref_obs_coarse", _coarse_obs)):
            object.__setattr__(self, name, obs(self.reference_field, self))


@dataclass
class ChainTrace:
    """Per-iteration record of one chain."""

    thetas: np.ndarray  # (iterations, n) fine-accepted state, repeated
    coarse_accepted: np.ndarray  # (iterations,) bool
    fine_accepted: np.ndarray  # (iterations,) bool
    loglik_fine: np.ndarray  # (iterations,) of the recorded state
    seed: int | None  # None when read back from a trace CSV

    @property
    def iterations(self):
        return self.thetas.shape[0]

    @property
    def coarse_rate(self):
        return float(np.mean(self.coarse_accepted))

    @property
    def fine_rate(self):
        """Fine acceptances over all proposals."""
        return float(np.mean(self.fine_accepted))

    @property
    def fine_rate_conditional(self):
        """Fine acceptances over proposals that passed the coarse stage."""
        n_coarse = int(np.sum(self.coarse_accepted))
        if n_coarse == 0:
            return 0.0
        return float(np.sum(self.fine_accepted)) / n_coarse


def log_likelihood(sim, ref, sigma2):
    """Gaussian log-likelihood -||ref - sim||^2 / (2 sigma2) of one
    observation vector, or of each row of a stack, bitwise as one at a
    time: each row's squares are summed by numpy's own reduction, which
    no BLAS thread splits (OpenBLAS splits a dot product of more than
    10000 values over its threads). The residual is made C-contiguous
    first, because a strided row is summed in another order."""
    sim = np.asarray(sim, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if sim.shape[-1:] != ref.shape:
        raise ArgumentError(
            f"observation length mismatch: {sim.shape} vs {ref.shape}",
            module=_MOD,
        )
    r = np.ascontiguousarray(ref - sim)
    with np.errstate(over="ignore"):  # over a tiny precision: -inf
        return -np.add.reduce(r * r, axis=-1) / (2.0 * sigma2)


def rws_propose(theta, beta, rng, single_component=True):
    """Random walk sampler step; one component or the full vector.
    ``beta`` must lie in [0, 1]."""
    theta = np.asarray(theta, dtype=float)
    keep = np.sqrt(1.0 - beta * beta)
    if single_component:
        out = theta.copy()
        i = int(rng.integers(theta.size))
        out[i] = keep * theta[i] + beta * rng.standard_normal()
        return out
    return keep * theta + beta * rng.standard_normal(theta.size)


def _metropolis(log_ratio):
    # cap before exponentiating so large ratios cannot overflow
    return 1.0 if log_ratio >= 0.0 else float(np.exp(log_ratio))


def synthesize(bundle, thetas, conditioned):
    """Fine log-permeability field of a theta, or fields of a stack of
    thetas, under the prior of the study ``conditioned`` names: its mean
    surface plus the KL synthesis of the projections Q Q^T theta."""
    mean, Q = bundle.priors[conditioned]
    return conditioning.synthesize_conditioned(bundle.basis, mean, thetas, Q)


def _fine_obs(fields, bundle):
    """Fine pressure observations of a field or a stack of fields."""
    return darcy.observe_pressure(
        darcy.solve_pressure(fields, bundle.bc), bundle.fine_mask)


def _coarse_obs(fields, bundle):
    """Coarse pressure observations of an upscaled field or stack."""
    return darcy.observe_pressure(darcy.solve_pressure(
        darcy.upscale(fields, bundle.coarse), bundle.bc), bundle.coarse_mask)


def _coarse_step(thetas, studies, bundle):
    """Stack of the states' fine log-permeability fields and their coarse
    log-likelihoods; ``studies`` holds (conditioned flag, rows) pairs,
    and each study's synthesis fills its rows of the stack."""
    values = np.empty((len(thetas), bundle.fine.n_cells))
    for conditioned, rows in studies:
        values[rows] = synthesize(bundle, thetas[rows], conditioned).values
    fine_fields = ScalarField(bundle.fine, values)
    return fine_fields, log_likelihood(_coarse_obs(fine_fields, bundle),
                                       bundle.ref_obs_coarse,
                                       bundle.likelihood.sigma_c2)


def _fine_step(fine_fields, bundle):
    """Fine log-likelihoods of a stack of fine log-permeability fields."""
    return log_likelihood(_fine_obs(fine_fields, bundle), bundle.ref_obs_fine,
                          bundle.likelihood.sigma_f2)


def chain_seeds(cfg):
    """The seed of each of a study's ``cfg.chains`` chains, the same in
    every study: chain c is seeded with ``cfg.seed + c``."""
    return [cfg.seed + c for c in range(cfg.chains)]


def run_chain(cfg, bundle):
    """Run one two-stage chain, seeded with ``cfg.seed``, and return its
    trace: the one-chain case of :func:`run_study`. ``cfg`` is a
    :class:`condflow.config.StudyConfig`.
    """
    return run_study(replace(cfg, chains=1), bundle)[0][0]


def _forward_failed(exc, where):
    return CondflowError(f"forward solve failed {where}: {exc}",
                         module=_MOD, code="forward")


def run_study(cfg, bundle, studies=None):
    """Run ``cfg.chains`` chains for each study, one conditioned flag
    each (``(cfg.conditioned,)`` by default), and return each study's
    traces in chain order. The chains read ``cfg``'s beta, iterations
    and single_component, and chain c of every study is seeded with
    ``chain_seeds(cfg)[c]``.

    All chains advance in lockstep in one stack, study after study, and
    each forward layer runs once per iteration on the stack of their
    fields; each proposal's forward model is evaluated once, the fine
    step solving the coarse step's fields of the chains whose proposal
    passed it. Every chain draws from its own generator in the order of
    a chain run alone, its initial state first, so its trace is that of
    its study run alone. An initial state whose log-likelihood is not
    finite can never be left, so it fails.
    """
    studies = (cfg.conditioned,) if studies is None else tuple(studies)
    if not studies:
        raise ArgumentError("need at least one study", module=_MOD)
    seeds = chain_seeds(cfg)
    k, n, iters = len(seeds), bundle.basis.n, cfg.iterations
    m = k * len(studies)
    blocks = [(flag, slice(s * k, (s + 1) * k))
              for s, flag in enumerate(studies)]
    rngs = [np.random.default_rng(seed) for _ in studies for seed in seeds]
    state = np.array([rng.standard_normal(n) for rng in rngs])

    thetas = np.empty((m, iters, n))
    coarse_acc = np.zeros((m, iters), dtype=bool)
    fine_acc = np.zeros((m, iters), dtype=bool)
    logliks = np.empty((m, iters))

    try:
        fields, llc = _coarse_step(state, blocks, bundle)
        llf = _fine_step(fields, bundle)
    except CondflowError as exc:
        raise _forward_failed(exc, "for the initial state") from exc
    stuck = np.flatnonzero(~(np.isfinite(llc) & np.isfinite(llf)))
    if stuck.size:
        c = stuck[0]
        raise NumericalError(
            f"the initial state of chain {c % k + 1} (seed {seeds[c % k]}) "
            f"has log-likelihoods coarse {llc[c]:g}, fine {llf[c]:g}; a "
            "chain cannot leave a state whose likelihood is not finite",
            module=_MOD, code="likelihood")
    try:
        for it in range(iters):
            props = np.array([rws_propose(theta, cfg.beta, rng,
                                          cfg.single_component)
                              for theta, rng in zip(state, rngs)])
            fields_p, llc_p = _coarse_step(props, blocks, bundle)
            passed = [c for c in range(m)
                      if rngs[c].random() < _metropolis(llc_p[c] - llc[c])]
            coarse_acc[passed, it] = True
            if passed:
                llf_p = _fine_step(ScalarField(
                    bundle.fine, fields_p.values[passed]), bundle)
                for c, llf_c in zip(passed, llf_p):
                    if rngs[c].random() < _metropolis(
                            (llf_c - llf[c]) - (llc_p[c] - llc[c])):
                        fine_acc[c, it] = True
                        state[c] = props[c]
                        llc[c], llf[c] = llc_p[c], llf_c
            thetas[:, it] = state
            logliks[:, it] = llf
    except CondflowError as exc:
        raise _forward_failed(exc, f"at iteration {it}") from exc

    return [[ChainTrace(thetas[r], coarse_acc[r], fine_acc[r], logliks[r],
                        seed) for r, seed in zip(range(m)[rows], seeds)]
            for _, rows in blocks]


def write_trace_csv(trace, path):
    """Persist a trace: iteration, theta_1..theta_n, flags, loglik, each
    ``%.17g`` (as ``%d`` for the integers), ``grid._BLOCK`` rows at a
    time. A value with the bits of the value above it reuses its token,
    so only the values that change (see :func:`grid._read_csv`) are
    formatted, by one ``%`` per block."""
    n = trace.thetas.shape[1]
    cols = (["iteration"] + [f"theta_{i + 1}" for i in range(n)]
            + ["coarse_accept", "fine_accept", "loglik"])
    above = tok = None  # the bits and tokens of the row above a block
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in range(0, trace.iterations, grid._BLOCK):
            s = slice(r, min(r + grid._BLOCK, trace.iterations))
            vals = np.column_stack((np.arange(s.start, s.stop),
                                    trace.thetas[s], trace.coarse_accepted[s],
                                    trace.fine_accepted[s],
                                    trace.loglik_fine[s]))
            bits = vals.view(np.int64)
            new = np.empty(bits.shape, dtype=bool)
            new[0] = True if above is None else bits[0] != above
            np.not_equal(bits[1:], bits[:-1], out=new[1:])
            fresh = tuple(vals[new].tolist())
            rows = np.empty((len(bits) + 1, n + 4), dtype=object)
            rows[0] = tok
            rows[1:][new] = ("%.17g," * len(fresh) % fresh).split(",")[:-1]
            rows = grid._fill_down(rows, new).tolist()
            fh.write("\n".join(map(",".join, rows)) + "\n")
            above, tok = bits[-1], rows[-1]


def read_trace_csv(path):
    """Load a trace written by :func:`write_trace_csv`. Its iterations
    must count 0, 1, 2, ..., its flags be 0 or 1, and no fine acceptance
    come without a coarse one; the first row that breaks a rule is a
    ParseError that names it."""
    header, data = _read_csv(path, _MOD, header=True)
    cols = header.split(",")
    n = len(cols) - 4
    if n < 1 or cols[0] != "iteration" or cols[-1] != "loglik":
        raise ParseError(f"{path}: not a trace CSV", module=_MOD)
    iteration, coarse, fine = data[:, 0], data[:, 1 + n], data[:, 2 + n]
    rules = (
        (iteration != np.arange(len(data)), "iterations must count 0, 1, "
         "2, ..."),
        ((coarse != 0) & (coarse != 1), "coarse_accept must be 0 or 1"),
        ((fine != 0) & (fine != 1), "fine_accept must be 0 or 1"),
        (fine > coarse, "fine_accept 1 needs coarse_accept 1"),
    )
    bad = np.logical_or.reduce([broken for broken, _ in rules])
    if bad.any():
        # rows counted from 0 after the header, as the loader counts them
        row = int(np.argmax(bad))
        what = next(what for broken, what in rules if broken[row])
        raise ParseError(
            f"{path}: row {row}: iteration {iteration[row]:g}, "
            f"coarse_accept {coarse[row]:g}, fine_accept {fine[row]:g}: "
            f"{what}", module=_MOD)
    return ChainTrace(
        thetas=data[:, 1:1 + n],
        coarse_accepted=coarse.astype(bool),
        fine_accepted=fine.astype(bool),
        loglik_fine=data[:, 3 + n],
        seed=None,
    )
