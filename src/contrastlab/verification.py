"""Monte Carlo + enumeration certification of the theoretical bounds.

A certificate compares an empirical quantity against a theoretical bound
and passes iff lhs <= rhs + slack, where the slack is 3 Monte Carlo
standard errors (exact-side quantities contribute none) plus an optional
floating-point allowance for exact-vs-exact comparisons.  The inequalities
are theorems, so only MC noise can produce violations and 3 sigma bounds
the false-alarm rate.  Common random numbers are used across compared
estimators wherever they share sample structure: both sides of a
comparison see the same (anchor, positive) draws, which shrinks the
variance of the gap.

All certificates fix the temperature to 1, the convention under which the
bound constants are stated.  Reductions are plain numpy pairwise sums, so
identical (seed, config) reproduce every field to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass, InsufficientGrid
from .losses import (
    _SIDES,
    _check_params,
    _contrastive_losses,
    _debiased_inner,
    asymptotic_debiased_exact,
    binomial_oracle,
    clamped_estimate,
    estimator_floor,
    unbiased_loss_exact,
)
from .rng import substream
from .worldmodel import DiscreteClassMixture, marginal, positive_dist

MIN_TRIALS = 1000


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checked record of one inequality instance.

    passed <=> lhs <= rhs + slack, slack = 3 * mc_stderr + the floating-point
    allowance ``fp_tol`` given to :func:`make_certificate`.
    """

    check: str
    lhs: float
    rhs: float
    mc_stderr: float
    trials: int
    passed: bool
    meta: dict

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "stderr": self.mc_stderr,
            "trials": self.trials,
            "passed": self.passed,
            "meta": self.meta,
        }


def make_certificate(check: str, lhs: float, rhs: float, mc_stderr: float, trials: int,
                 meta: dict, fp_tol: float = 0.0) -> BoundCertificate:
    passed = lhs <= rhs + 3.0 * mc_stderr + fp_tol
    return BoundCertificate(check=check, lhs=float(lhs), rhs=float(rhs),
                            mc_stderr=float(mc_stderr), trials=trials,
                            passed=bool(passed), meta=meta)


@dataclass(frozen=True)
class GridPoint:
    size: int
    mean_gap: float
    stderr: float


@dataclass(frozen=True)
class RateFit:
    """Log-log regression of the mean estimation gap against a sample size.

    ``status`` is "ok" for a genuine fit, "degenerate" when the gaps are
    numerically zero (constant embeddings), and "not-identifiable" when the
    swept size does not move the gap beyond its noise (e.g. sweeping M with
    tau+ = 0).
    """

    points: tuple[GridPoint, ...]
    slope: float
    intercept: float
    r2: float
    status: str
    meta: dict

    def to_record(self) -> dict:
        return {
            "check": "rate",
            "grid": [{"size": p.size, "mean_gap": p.mean_gap, "stderr": p.stderr}
                     for p in self.points],
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "status": self.status,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class SweepSpec:
    """Which sample size to sweep and where to hold the other one."""

    variable: str = "N"
    grid: tuple[int, ...] = (4, 16, 64, 256, 1024)
    other: int = 10240
    tau_plus: float | None = None


def mixture_tag(mix: DiscreteClassMixture) -> dict:
    return {
        "s_points": mix.n_points,
        "k_classes": mix.n_classes,
        "tau_plus_true": mix.tau_plus,
        "prior_uniform": mix.uniform_prior,
    }


def _sims_and_exp(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(embeddings, dtype=np.float64)
    sims = f @ f.T  # t = 1 convention for all certificates
    return sims, np.exp(sims)


def _by_anchor(groups: list[tuple[int, np.ndarray]], draw, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` one anchor at a time, in the order of ``groups``, with
    ``draw(a, k)`` at the k trial indices ``idx`` of each ``(a, idx)``.

    :func:`_draw_monte_carlo` groups the trials once per draw set, in
    increasing anchor order, and every draw of the set reads that grouping.
    """
    for a, idx in groups:
        out[idx] = draw(a, idx.size)
    return out


@dataclass(frozen=True, eq=False)
class MonteCarloDraws:
    """Monte Carlo inputs of the lemma1, thm3 and rate certificates.

    One substream yields the trial-wise (anchor, positive) pairs, then for
    each requested ``(side, n)`` in order, keyed as the exact engine keys
    its entries, the per-trial mean of exp(similarity) over n i.i.d. draws
    of the ``marginal``, ``negative`` (the anchor's complement classes) or
    ``positive`` side (the anchor's class).  No mean depends on tau+, so
    every certificate that reads a set shares its draws: common random
    numbers.  lemma1 draws from stream (seed, 1), thm3 from (seed, 2) and a
    rate sweep from (seed, 3).  A set belongs to the (embeddings, mixture)
    objects it was made from.
    """

    embeddings: np.ndarray
    mix: DiscreteClassMixture
    stream: tuple[int, ...]
    trials: int
    anchors: np.ndarray
    s_pos: np.ndarray
    h_pos: np.ndarray
    means: dict[tuple[str, int], np.ndarray]


def _draw_monte_carlo(embeddings: np.ndarray, mix: DiscreteClassMixture, trials: int,
                      stream: tuple[int, ...], sizes) -> MonteCarloDraws:
    """Draw a set from ``substream(*stream)`` holding a mean for each
    ``(side, n)`` of the list ``sizes``, in its order.  Each mean draws
    multinomial counts, O(S) per trial whatever its n.

    Fewer than ``MIN_TRIALS`` trials is an invalid configuration: the 3-sigma
    slack of every certificate assumes the mean is near normal.  So is a size
    below 1, a mean over no draws; both are refused before anything is drawn.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials")
    small = sorted({int(n) for _, n in sizes if n < 1})
    if small:
        raise ValueError(f"Monte Carlo sample sizes must be >= 1, got {small}")
    sims, expm = _sims_and_exp(embeddings)
    rng = substream(*stream)
    anchors = rng.choice(mix.n_points, size=trials, p=marginal(mix))
    groups = [(int(a), np.flatnonzero(anchors == a)) for a in np.unique(anchors)]
    positives = _by_anchor(groups, lambda a, k: rng.choice(
        mix.n_points, size=k, p=positive_dist(mix, a)), np.empty(trials, dtype=np.intp))
    means = {(side, n): _by_anchor(groups, lambda a, k: rng.multinomial(
        n, _SIDES[side](mix, a), size=k) @ expm[a] / n, np.empty(trials)) for side, n in sizes}
    return MonteCarloDraws(embeddings=embeddings, mix=mix, stream=stream, trials=trials,
                           anchors=anchors, s_pos=sims[anchors, positives],
                           h_pos=expm[anchors, positives], means=means)


def lemma1_certificate(embeddings: np.ndarray, mix: DiscreteClassMixture, n_neg: int,
                       trials: int, seed: int) -> BoundCertificate:
    """Certify that the marginal-negative loss dominates the true-negative one.

    lhs = MC true-negative loss + exact gap term - e^{3/2} sqrt(pi / 2N),
    rhs = MC marginal-negative loss, both estimated on the same trial-wise
    (anchor, positive) pairs and compared with the paired-difference
    standard error.  Only the pairs are shared: the marginal and negative
    means are independent draws.  The exact gap term is
    E_x[ min(0, log(E_pos exp s / E_neg exp s)) ], enumerated, where
    E_neg exp s is the asymptotic debiased inner at each anchor's class
    prior.  The asymptotic debiased loss at those tau+, the asymptotic
    true-negative loss E[ log(exp s+ + N E_neg exp s) - s+ ], is recorded
    in the metadata alongside the finite-N form actually certified.
    """
    if mix.n_classes < 2:
        raise DegenerateClass("certificate needs K >= 2")
    draws = _draw_monte_carlo(embeddings, mix, trials, (seed, 1),
                              [("marginal", n_neg), ("negative", n_neg)])
    loss_biased, loss_unbiased = (_contrastive_losses(draws.s_pos, draws.h_pos, mean * n_neg)
                                  for mean in draws.means.values())

    _, expm = _sims_and_exp(embeddings)
    marg = marginal(mix)
    live = marg > 0.0
    own_prior = mix.prior[mix.labels]
    num = (mix.class_conditionals[mix.labels] * expm).sum(axis=1)
    den = _debiased_inner(mix, expm, own_prior)
    gap_term = float(marg[live] @ np.minimum(0.0, np.log(num[live] / den[live])))
    asymptotic = asymptotic_debiased_exact(embeddings, mix, q=float(n_neg),
                                           tau_plus=own_prior).value
    margin = math.exp(1.5) * math.sqrt(math.pi / (2.0 * n_neg))

    diff = loss_biased - loss_unbiased
    stderr = float(diff.std(ddof=1) / math.sqrt(trials))
    lhs = float(loss_unbiased.mean()) + gap_term - margin
    rhs = float(loss_biased.mean())
    meta = mixture_tag(mix) | {
        "n_neg": n_neg,
        "seed": seed,
        "gap_term": gap_term,
        "margin": margin,
        "stderr_kind": "paired",
        "asymptotic_unbiased": asymptotic,
    }
    return make_certificate("lemma1", lhs, rhs, stderr, trials, meta)


def theorem3_draws(embeddings: np.ndarray, mix: DiscreteClassMixture, n_grid, m_grid,
                   trials: int, seed: int) -> MonteCarloDraws:
    """Shared draws for every thm3 certificate of one instance at ``seed``.

    Pass the result as ``draws=`` to :func:`theorem3_certificate` with the
    same embeddings, mixture, trials and seed, and any N of ``n_grid`` and M
    of ``m_grid``.
    """
    return _draw_monte_carlo(embeddings, mix, trials, (seed, 2),
                             [("marginal", n) for n in n_grid]
                             + [("positive", m) for m in m_grid])


def theorem3_certificate(embeddings: np.ndarray, mix: DiscreteClassMixture, n_neg: int,
                         m_pos: int, tau_plus: float, trials: int,
                         seed: int, *, draws: MonteCarloDraws) -> BoundCertificate:
    """Certify the finite-sample estimation error of the debiased loss.

    lhs = | exact asymptotic value - MC mean of the clamped finite-(N, M)
    loss |; rhs = (e^{3/2}/tau-) sqrt(pi/2N) + (e^{3/2} tau+/tau-)
    sqrt(pi/2M).  Q is fixed to N and t to 1.  The certificate reads
    ``draws`` from :func:`theorem3_draws`; draws made for other arguments
    raise ``ValueError``.
    """
    if draws.embeddings is not embeddings or draws.mix is not mix:
        raise ValueError("draws were made for other embeddings or another mixture")
    if draws.stream != (seed, 2) or draws.trials != trials:
        raise ValueError(f"draws were made for stream {draws.stream} at "
                         f"{draws.trials} trials, not seed {seed} at {trials}")
    if ("marginal", n_neg) not in draws.means or ("positive", m_pos) not in draws.means:
        raise ValueError(f"draws hold {sorted(draws.means)}, not (N, M) = ({n_neg}, {m_pos})")
    exact = asymptotic_debiased_exact(embeddings, mix, q=float(n_neg), tau_plus=tau_plus).value
    mc_losses = _debiased_mc_losses(draws, n_neg, m_pos, tau_plus)
    tau_minus = 1.0 - tau_plus
    rhs = (math.exp(1.5) / tau_minus) * math.sqrt(math.pi / (2.0 * n_neg)) \
        + (math.exp(1.5) * tau_plus / tau_minus) * math.sqrt(math.pi / (2.0 * m_pos))
    lhs = abs(exact - float(mc_losses.mean()))
    stderr = float(mc_losses.std(ddof=1) / math.sqrt(trials))
    meta = mixture_tag(mix) | {
        "n_neg": n_neg,
        "m_pos": m_pos,
        "tau_plus": tau_plus,
        "seed": seed,
        "exact": exact,
        "mc_mean": float(mc_losses.mean()),
    }
    return make_certificate("thm3", lhs, rhs, stderr, trials, meta)


def _debiased_mc_losses(draws: MonteCarloDraws, n_neg: int, m_pos: int,
                        tau_plus: float) -> np.ndarray:
    """Per-trial clamped debiased losses at (N, M, tau+): the one Monte Carlo
    kernel behind both thm3 certificates and rate fits.  The estimator's
    unlabeled mean is the marginal side at N and its positive mean the
    positive side at M."""
    g = clamped_estimate(draws.means["marginal", n_neg], draws.means["positive", m_pos],
                         tau_plus, estimator_floor(1.0))
    return _contrastive_losses(draws.s_pos, draws.h_pos, n_neg * g)


def rate_fit(embeddings: np.ndarray, mix: DiscreteClassMixture, sweep: SweepSpec,
             trials: int, seed: int) -> RateFit:
    """Fit the decay rate of the mean estimation gap against N or M.

    The gap at each grid point is E | finite-sample loss - asymptotic
    integrand | with common (anchor, positive) draws -- the quantity whose
    square-root decay the error bound establishes.  One draw set serves
    the whole sweep: the pairs and the fixed size are drawn once, and each
    grid point adds one mean on its side.  The non-swept sample size must
    be at least 10x the largest swept value so its own error term is
    negligible.
    """
    if sweep.variable not in ("N", "M"):
        raise ValueError("sweep variable must be 'N' or 'M'")
    grid = tuple(int(g) for g in sweep.grid)
    if len(grid) < 4:
        raise InsufficientGrid("need at least 4 grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InsufficientGrid("grid must be strictly increasing")
    if grid[-1] < 100 * grid[0]:
        raise InsufficientGrid("grid must span at least two decades")
    if sweep.other < 10 * grid[-1]:
        raise InsufficientGrid("non-swept size must be >= 10x the largest swept value")
    tau_plus = mix.tau_plus if sweep.tau_plus is None else sweep.tau_plus

    # The unclamped asymptotic inner per anchor, the integrand each trial's
    # loss is compared against; it checks tau+ and its sign before any draw.
    _, expm = _sims_and_exp(embeddings)
    inner_per_anchor = _debiased_inner(mix, expm, tau_plus)
    other = (sweep.other,)
    n_sizes, m_sizes = (grid, other) if sweep.variable == "N" else (other, grid)
    draws = _draw_monte_carlo(embeddings, mix, trials, (seed, 3),
                              [("marginal", n) for n in n_sizes]
                              + [("positive", m) for m in m_sizes])
    integrand_inner = inner_per_anchor[draws.anchors]
    points = []
    for size in grid:
        n_neg, m_pos = (size, sweep.other) if sweep.variable == "N" else (sweep.other, size)
        losses = _debiased_mc_losses(draws, n_neg, m_pos, tau_plus)
        integrand = _contrastive_losses(draws.s_pos, draws.h_pos, n_neg * integrand_inner)
        gaps = np.abs(losses - integrand)
        points.append(GridPoint(size=size, mean_gap=float(gaps.mean()),
                                stderr=float(gaps.std(ddof=1) / math.sqrt(trials))))

    meta = mixture_tag(mix) | {"variable": sweep.variable, "other": sweep.other,
                                "tau_plus": tau_plus, "seed": seed, "trials": trials}
    gaps = np.array([p.mean_gap for p in points])
    errs = np.array([p.stderr for p in points])
    if gaps.max() < 1e-10:
        return RateFit(tuple(points), math.nan, math.nan, math.nan, "degenerate", meta)
    if gaps.max() - gaps.min() <= 3.0 * errs.max():
        return RateFit(tuple(points), math.nan, math.nan, math.nan, "not-identifiable", meta)
    x = np.log(np.array(grid, dtype=np.float64))
    y = np.log(gaps)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    return RateFit(tuple(points), float(slope), float(intercept), r2, "ok", meta)


def theorem5_constants(n_neg: int, m_pos: int, tau_plus: float) -> tuple[float, float]:
    """Constants of the generalization bound.

    lambda = sqrt( (1/tau-^2)(M/N + 1) + tau+^2 (N/M + 1) ),
    B = log N * (1/tau- + tau+).
    (The Rademacher-complexity factor of the full bound is out of scope;
    only these constants are computed.)
    """
    if n_neg < 1 or m_pos < 1:
        raise ValueError("N and M must be >= 1")
    _check_params(tau_plus)
    tau_minus = 1.0 - tau_plus
    lam = math.sqrt((m_pos / n_neg + 1.0) / tau_minus ** 2
                    + tau_plus ** 2 * (n_neg / m_pos + 1.0))
    bound = math.log(n_neg) * (1.0 / tau_minus + tau_plus)
    return lam, bound


def oracle_certificate(embeddings: np.ndarray, mix: DiscreteClassMixture, n_neg: int,
                       tolerance: float = 1e-9, *, budget: float) -> BoundCertificate:
    """Certify the inclusion-exclusion oracle against direct enumeration.

    lhs = relative error between the alternating-series value and the
    directly enumerated true-negative loss; rhs = the tolerance.  Both
    sides are exact computations, so the stderr is zero; the condition
    number of the alternating series is recorded.
    """
    oracle = binomial_oracle(embeddings, mix, n_neg, budget=budget)
    exact = unbiased_loss_exact(embeddings, mix, n_neg, budget=budget)
    rel_err = abs(oracle.loss.value - exact.value) / abs(exact.value)
    meta = mixture_tag(mix) | {
        "n_neg": n_neg,
        "oracle_value": oracle.loss.value,
        "enumerated_value": exact.value,
        "condition_number": oracle.condition_number,
    }
    return make_certificate("oracle", rel_err, tolerance, 0.0, 0, meta)
