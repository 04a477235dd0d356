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

A chain reads beta, the iteration count, the conditioned flag, the
single-component flag and the store-projected flag from the study's
:class:`condflow.config.StudyConfig`, which has validated them.

The trace records the fine-scale accepted theta per iteration, repeating
the previous state on rejection, which is exactly what the convergence
diagnostics consume.

A study's chains advance in lockstep, one iteration at a time: each
forward layer (KL synthesis, upscaling, coarse solve, and the fine solve
of the chains whose proposal passed the coarse stage) runs once per
iteration on the stack of all chains' states or fields, of both studies
when run together (each study synthesizes its own rows). The
likelihoods stay per chain, and each chain draws from its own generator
in its own order (proposal, coarse uniform, fine uniform), so a chain's
random stream and trace are exactly those of the chain run alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import conditioning, darcy, kle
from .errors import ArgumentError, CondflowError, ParseError
from .grid import Grid2D, ObservationMask, ScalarField, _read_csv

_MOD = "mcmc"


@dataclass(frozen=True)
class LikelihoodParams:
    """Precision parameters of the coarse and fine Gaussian likelihoods."""

    sigma_c2: float = 5e-3
    sigma_f2: float = 1e-4

    def __post_init__(self):
        if self.sigma_c2 <= 0 or self.sigma_f2 <= 0:
            raise ArgumentError("precision parameters must be positive",
                                module=_MOD)


@dataclass(frozen=True)
class ModelBundle:
    """Everything a chain needs, all immutable and shareable.

    ref_obs_fine / ref_obs_coarse are the reference pressure data,
    observed through the chessboard masks of the respective grids.
    """

    basis: kle.KLEBasis  # on the fine grid
    fine: Grid2D
    coarse: Grid2D
    bc: darcy.BoundaryConditions
    fine_mask: ObservationMask
    coarse_mask: ObservationMask
    ref_obs_fine: np.ndarray
    ref_obs_coarse: np.ndarray
    likelihood: LikelihoodParams
    projector: conditioning.Projector = None  # required when conditioned
    kriged: ScalarField = None


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

    def after_burn_in(self, burn_in):
        """The trace without its first ``burn_in`` draws."""
        d = slice(burn_in, None)
        return ChainTrace(self.thetas[d], self.coarse_accepted[d],
                          self.fine_accepted[d], self.loglik_fine[d],
                          self.seed)


def log_likelihood(sim, ref, sigma2):
    """Gaussian log-likelihood -||ref - sim||^2 / (2 sigma2)."""
    sim = np.asarray(sim, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if sim.shape != ref.shape:
        raise ArgumentError(
            f"observation length mismatch: {sim.shape} vs {ref.shape}",
            module=_MOD,
        )
    r = ref - sim
    return float(-(r @ r) / (2.0 * sigma2))


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


def coarse_accept_prob(loglik_c_prop, loglik_c_curr):
    return _metropolis(loglik_c_prop - loglik_c_curr)


def fine_accept_prob(loglik_f_prop, loglik_f_curr, loglik_c_prop, loglik_c_curr):
    return _metropolis((loglik_f_prop - loglik_f_curr)
                       - (loglik_c_prop - loglik_c_curr))


def _logliks(pressure, mask, ref, sigma2):
    """Log-likelihood of each field of a pressure stack, one at a time."""
    return [log_likelihood(obs, ref, sigma2)
            for obs in darcy.observe_pressure(pressure, mask)]


def _coarse_step(thetas, studies, bundle):
    """Stack of the states' fine log-permeability fields and their coarse
    log-likelihoods; ``studies`` holds (conditioned flag, rows) pairs."""
    values = np.empty((len(thetas), bundle.fine.n_cells))
    for conditioned, rows in studies:
        if conditioned:
            fine_fields = conditioning.synthesize_conditioned(
                bundle.basis, bundle.kriged, thetas[rows], bundle.projector)
        else:
            fine_fields = kle.synthesize_unconditioned(bundle.basis,
                                                       thetas[rows])
        values[rows] = fine_fields.values
    if len(studies) > 1:  # one study's fields are the whole stack already
        fine_fields = ScalarField(bundle.fine, values)
    coarse_fields = darcy.upscale(fine_fields, bundle.fine, bundle.coarse)
    pc = darcy.solve_pressure(coarse_fields, bundle.bc)
    return fine_fields, _logliks(pc, bundle.coarse_mask,
                                 bundle.ref_obs_coarse,
                                 bundle.likelihood.sigma_c2)


def _fine_step(fine_fields, bundle):
    """Fine log-likelihoods of a stack of fine log-permeability fields."""
    pf = darcy.solve_pressure(fine_fields, bundle.bc)
    return _logliks(pf, bundle.fine_mask, bundle.ref_obs_fine,
                    bundle.likelihood.sigma_f2)


def run_chain(cfg, bundle, initial_theta=None):
    """Run one two-stage chain, seeded with ``cfg.seed``, and return its
    trace: the one-seed case of :func:`run_study`. ``cfg`` is a
    :class:`condflow.config.StudyConfig`.

    The chain state is the unprojected theta unless
    ``cfg.store_projected`` is set, in which case the projected vector
    is stored after each fine acceptance.
    """
    inits = None if initial_theta is None else [initial_theta]
    return run_study(cfg, bundle, [cfg.seed], initial_thetas=inits)[0]


def run_study(base_cfg, bundle, seeds, initial_thetas=None,
              conditioned=None):
    """Run one independent chain per seed and return the traces in seed
    order.

    ``base_cfg`` is a :class:`condflow.config.StudyConfig`; the chains
    read its beta, iterations, conditioned, single_component and
    store_projected fields, and the seeds replace its seed and chain
    count. ``conditioned``, one flag per seed, replaces the config's flag
    chain by chain, so both studies' chains share one stack;
    store_projected applies to the conditioned chains only.

    The chains advance in lockstep, and each forward layer runs once per
    iteration on the stack of their fields; each proposal's forward model
    is evaluated once, the fine step reusing the field of the coarse step.
    Every chain has its own generator, seeded with its seed, and draws
    from it in the order of a chain run alone, so its trace is that of
    ``run_study`` over its seed and flag only.
    """
    seeds = list(seeds)
    m, n, iters = len(seeds), bundle.basis.n, base_cfg.iterations
    if m < 1:
        raise ArgumentError("need at least one seed", module=_MOD)
    flags = ([base_cfg.conditioned] * m if conditioned is None
             else [bool(f) for f in conditioned])
    if len(flags) != m:
        raise ArgumentError("need one conditioned flag per seed",
                            module=_MOD)
    if len(set(zip(seeds, flags))) != m:
        warnings.warn("duplicate chain seeds: chains will be identical",
                      stacklevel=2)
    if any(flags) and (bundle.projector is None or bundle.kriged is None):
        raise ArgumentError(
            "conditioned sampling needs a projector and a kriged surface",
            module=_MOD,
        )
    studies = [(f, np.flatnonzero(np.equal(flags, f))) for f in set(flags)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    state = np.empty((m, n))
    for c, rng in enumerate(rngs):
        theta = (np.asarray(initial_thetas[c], dtype=float)
                 if initial_thetas is not None else rng.standard_normal(n))
        if theta.size != n:
            raise ArgumentError(f"initial theta must have {n} entries",
                                module=_MOD)
        state[c] = theta

    thetas = np.empty((m, iters, n))
    coarse_acc = np.zeros((m, iters), dtype=bool)
    fine_acc = np.zeros((m, iters), dtype=bool)
    logliks = np.empty((m, iters))
    keep_projected = [flag and base_cfg.store_projected for flag in flags]

    it = None
    try:
        fields, llc = _coarse_step(state, studies, bundle)
        llf = _fine_step(fields, bundle)
        for it in range(iters):
            props = np.array([rws_propose(theta, base_cfg.beta, rng,
                                          base_cfg.single_component)
                              for theta, rng in zip(state, rngs)])
            fields_p, llc_p = _coarse_step(props, studies, bundle)
            passed = [c for c in range(m)
                      if rngs[c].random() < coarse_accept_prob(llc_p[c],
                                                               llc[c])]
            coarse_acc[passed, it] = True
            if passed:
                if len(passed) < m:
                    fields_p = ScalarField(bundle.fine,
                                           fields_p.values[passed])
                llf_p = _fine_step(fields_p, bundle)
                for c, llf_c in zip(passed, llf_p):
                    if rngs[c].random() < fine_accept_prob(llf_c, llf[c],
                                                           llc_p[c], llc[c]):
                        fine_acc[c, it] = True
                        state[c] = (conditioning.project(props[c],
                                                         bundle.projector)
                                    if keep_projected[c] else props[c])
                        llc[c], llf[c] = llc_p[c], llf_c
            thetas[:, it] = state
            logliks[:, it] = llf
    except CondflowError as exc:
        where = "for the initial state" if it is None else f"at iteration {it}"
        raise CondflowError(f"forward solve failed {where}: {exc}",
                            module=_MOD, code="forward") from exc

    return [ChainTrace(thetas[c], coarse_acc[c], fine_acc[c], logliks[c],
                       seed)
            for c, seed in enumerate(seeds)]


def write_trace_csv(trace, path):
    """Persist a trace: iteration, theta_1..theta_n, flags, loglik."""
    n = trace.thetas.shape[1]
    cols = (["iteration"] + [f"theta_{i + 1}" for i in range(n)]
            + ["coarse_accept", "fine_accept", "loglik"])
    data = np.column_stack([np.arange(trace.iterations), trace.thetas,
                            trace.coarse_accepted, trace.fine_accepted,
                            trace.loglik_fine])
    np.savetxt(path, data, fmt=["%d"] + ["%.17g"] * n + ["%d", "%d", "%.17g"],
               delimiter=",", header=",".join(cols), comments="")


def read_trace_csv(path):
    """Load a trace written by :func:`write_trace_csv`."""
    header, data = _read_csv(path, _MOD, header=True)
    cols = header.split(",")
    n = len(cols) - 4
    if n < 1 or cols[0] != "iteration" or cols[-1] != "loglik":
        raise ParseError(f"{path}: not a trace CSV", module=_MOD)
    if data.shape[1] != len(cols):
        raise ParseError(f"{path}: rows have {data.shape[1]} values, the "
                         f"header {len(cols)}", module=_MOD)
    return ChainTrace(
        thetas=data[:, 1:1 + n],
        coarse_accepted=data[:, 1 + n].astype(bool),
        fine_accepted=data[:, 2 + n].astype(bool),
        loglik_fine=data[:, 3 + n],
        seed=None,
    )
