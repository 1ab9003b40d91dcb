"""Contrastive objectives, per-sample and as exact expectations.

Five members of the family, all of the form -log(h+ / (h+ + D)) with
h+ = exp(s+) and a denominator D built from negative-sample exponentials:

* biased:      D = (Q/N) sum_i exp(s_i), negatives drawn from the marginal.
* unbiased:    same form, negatives drawn from the anchor's complement
               classes; computed here as an exact expectation by enumeration.
* debiased:    D = N * g where g is the clamped correction estimator that
               reweights unlabeled and positive exponentials.
* asymptotic debiased: the large-N limit of the debiased loss, exactly
               enumerable on discrete mixtures (no clamp; a nonpositive
               inner difference is reported, never silently floored).
* inclusion-exclusion oracle: the alternating binomial rewriting of the
               unbiased loss in terms of marginal and positive samples only;
               numerically delicate, so the terms are summed exactly
               rounded with ``math.fsum`` and the condition number is
               reported.

On a two-view training batch the first three are ``LOSS_KINDS``, computed
by one forward pass, :func:`batch_terms`: the biased loss is the debiased
one at tau+ = 0 without the clamp, and the true-negative loss is the same
expression over a different-class mask; :class:`LossSpec` holds the tau+
each kind computes with, 0 for all but the debiased kind.
Only the debiased kind has an estimator to clamp, and it clamps g at
e^(-1/t), the least value e^s takes for unit embeddings.
The pass also returns the gradient of the mean loss in the similarity
scores, so a backward pass needs none of the batch layout.  Every other
loss, Monte Carlo or exact, is computed by one kernel,
:func:`_contrastive_losses`.

Everything is evaluated with a max-subtraction shift so small temperatures
cannot overflow, and all expectations over discrete mixtures are exact
finite sums (multisets of i.i.d. draws are enumerated with multinomial
weights, which regroups the tuple sum without changing its value).  One
engine, :func:`_enumerated_losses`, enumerates every finite-N loss: each
entry lists n i.i.d. draws per side, named as the Monte Carlo draws name
them (``marginal``, ``negative``, ``positive``).  The true-negative loss is
the entry ``[("negative", N)]`` and the oracle's k-th term
``[("positive", k), ("marginal", N - k)]``.  The true-negative expectation
E- e^s is the asymptotic debiased inner at each anchor's class prior.  The
exact expectations are at temperature 1 with Q = N, the convention under
which the bounds they certify are stated; only the large-N limit, which
has no N of its own, takes a Q.  Q is only a factor on its inner
expectation, so it takes a sequence of Q and evaluates them all from one
pass over the similarities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .encoder import ViewBatch
from .errors import (
    BudgetExceeded,
    DegenerateClass,
    EmptyNegatives,
    NegativeDenominator,
    OracleRangeExceeded,
    PriorMismatch,
)
from .worldmodel import DiscreteClassMixture, marginal, negative_dist, positive_dist

# The two-view batch losses a training step can differentiate.
LOSS_KINDS = ("biased", "debiased", "unbiased")

ORACLE_MAX_N = 8

# Internal cap on materialized multiset rows and loss-grid cells, independent
# of the user budget.
_MAX_MULTISETS = 2_000_000

# Rows per block when a table's point counts, or an anchor's sums over a
# table's rows, are formed; the per-row results do not depend on it.
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class LossValue:
    """A nonnegative, finite loss value."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"loss value must be finite, got {self.value!r}")
        # All kinds are -log of a ratio in (0, 1]; absorb negative roundoff.
        if self.value < 0.0:
            if self.value < -1e-12:
                raise ValueError(f"loss value must be >= 0, got {self.value!r}")
            object.__setattr__(self, "value", 0.0)


@dataclass(frozen=True)
class OracleResult:
    """Inclusion-exclusion oracle value with its cancellation diagnostics."""

    loss: LossValue
    condition_number: float
    terms: tuple[float, ...]


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d sequence")
    return arr


def _check_params(tau_plus: float, t: float | None = None) -> None:
    """Validate the family's shared hyperparameters; ``t = None`` skips its check."""
    if not (0.0 <= tau_plus < 1.0):
        raise ValueError("tau_plus must lie in [0, 1)")
    if t is not None and not t > 0.0:  # NaN fails too
        raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class LossSpec:
    """Which batch objective to compute, and its hyperparameters, all checked here.

    ``tau_plus`` holds the tau+ the kind computes with.  Only the debiased
    loss reads it: the biased loss is its tau+ = 0 case without the clamp,
    and the true-negative loss has no estimator.  So the given tau+ is
    checked for every kind, and then stored as 0.0 for all but debiased.
    """

    kind: str = "debiased"
    tau_plus: float = 0.0
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        _check_params(self.tau_plus, self.temperature)
        if self.kind != "debiased":
            object.__setattr__(self, "tau_plus", 0.0)


def _contrastive_losses(s_pos, h_pos, tail, shift=0.0) -> np.ndarray:
    """The loss kernel: -log(h+ / (h+ + D)) = log(h+ + D) + shift - s+, per row.

    ``h_pos`` is e^(s+ - shift) and ``tail`` is D in the same shifted units;
    the arguments broadcast into one output array, filled in place.  Every
    Monte Carlo and exact loss calls it.  Two forms stay outside:
    :func:`biased_loss_point` is the independent reference the batch losses
    are tested against, and :func:`batch_terms` builds its denominator as
    one weighted sum, because its gradient reads the weights.
    """
    out = np.asarray(h_pos + tail)
    np.log(out, out=out)
    out += shift
    out -= s_pos
    return out


def biased_loss_point(sim_pos: float, sims_neg, q: float | None = None) -> LossValue:
    """Per-sample loss with marginal-drawn negatives.

    value = -log[ exp(s+) / (exp(s+) + (Q/N) sum_i exp(s_i)) ], Q default N.
    Strictly decreasing in s+ and strictly increasing in every s_i.
    """
    sims_neg = _as_float_array(sims_neg, "sims_neg")
    n = sims_neg.shape[0]
    if n == 0:
        raise EmptyNegatives("biased loss needs at least one negative similarity")
    if q is None:
        q = float(n)
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    c = max(float(sim_pos), float(sims_neg.max()))
    denom_tail = (q / n) * float(np.exp(sims_neg - c).sum())
    if denom_tail == 0.0:
        return LossValue(0.0)
    value = math.log(math.exp(sim_pos - c) + denom_tail) + c - sim_pos
    return LossValue(value)


def estimator_floor(t: float, shift=0.0):
    """Floor of the clamped estimator, exp(-1/t - shift): the least value of
    e^s for unit embeddings, in units shifted by exp(-shift).  ``shift`` may
    be an array."""
    return np.exp(-1.0 / t - shift)


def clamped_estimate(mean_u, mean_v, tau_plus: float, floor):
    """The clamped estimator g = max{ (mean_u - tau+ mean_v) / tau-, floor },
    vectorized over anchors."""
    return np.maximum((mean_u - tau_plus * mean_v) / (1.0 - tau_plus), floor)


def debiased_loss_point(sim_pos: float, sims_u, sims_v, tau_plus: float,
                        t: float = 1.0) -> LossValue:
    """Per-sample debiased loss: -log[ exp(s+) / (exp(s+) + N g) ].

    With tau_plus = 0 and the floor not binding this reduces exactly to
    :func:`biased_loss_point` with Q = N.
    """
    _check_params(tau_plus, t)
    sims_u = _as_float_array(sims_u, "sims_u")
    sims_v = _as_float_array(sims_v, "sims_v")
    if sims_u.shape[0] < 1:
        raise EmptyNegatives("debiased loss needs at least one unlabeled similarity")
    if sims_v.shape[0] < 1:
        raise EmptyNegatives("debiased loss needs at least one positive similarity")
    n = sims_u.shape[0]
    c = max(float(sim_pos), float(sims_u.max()), float(sims_v.max()))
    g_scaled = clamped_estimate(float(np.exp(sims_u - c).mean()),
                                float(np.exp(sims_v - c).mean()),
                                tau_plus, estimator_floor(t, c))
    if g_scaled <= 0.0:  # the floor underflowed
        return LossValue(0.0)
    return LossValue(float(_contrastive_losses(sim_pos, math.exp(sim_pos - c),
                                               n * g_scaled, c)))


@dataclass(frozen=True)
class BatchTerms:
    """What a two-view batch loss hands on: per-role losses, clamp flags, and
    the gradient of the mean loss in the anchor rows' dot products.

    ``grad[r, j]`` is d(mean loss)/d(f_r . f_j) for the 2B anchor rows r and
    every view row j, so a backward pass needs nothing of the batch layout.
    """

    losses: np.ndarray        # (2B,) per-role loss value
    floored: np.ndarray       # (2B,) raw estimate strictly below the floor
    grad: np.ndarray          # (2B, V) d(mean loss)/d(f_r . f_j)


def batch_terms(f: np.ndarray, batch: ViewBatch, spec: LossSpec) -> BatchTerms:
    """Shared forward pass, and similarity gradient, of the batch losses of
    ``LOSS_KINDS``.

    The layout has V = (M+1) B + P rows: the B first views, the B second
    views, (M-1) groups of B extra positive views, then an optional pool of
    P fresh negative views (used only by the true-negative loss).  Role r's
    partner is (r + B) mod 2B; its negatives are the other 2(B-1) primary
    views (or the different-class pool views), so N = 2(B-1); its positive
    set is the partner plus its own identity's extra views.  Everything is
    shifted by a per-role max c so small temperatures cannot overflow.

    ``f`` holds the unit embeddings of ``batch``'s view rows, in its layout,
    as one (V, d) array.
    ``spec.kind`` selects the denominator: "debiased" uses the clamped
    estimator with the partner as first positive sample, and "biased" is its
    tau+ = 0 case without the clamp.  "unbiased" draws on true negatives
    instead (requires ``batch.labels``): different-class views from the pool
    when one is stacked below the extras (``batch.neg_pool_labels`` gives
    the pool's classes), otherwise the different-class primary views; either
    way over the partner and one column per candidate, reweighted by
    N / N_available so the denominator still estimates N times the mean
    true-negative exponential.  Every kind computes with ``spec.tau_plus``,
    which is 0 for all but debiased.

    All three are one weighted sum h + N g = sum_j w_j exp(s_j - c), with
    tau- = 1 - tau+: w = 1/tau- on each negative (N / N_available for
    "unbiased"), 1 - N tau+ / (tau- M) on the partner, -N tau+ / (tau- M) on
    each extra positive and 0 elsewhere.  The debiased clamp g >= e^(-1/t) is
    then denom = max(sum, h + N e^(-1/t)), and where it binds the row's
    weights become the partner indicator.  The other kinds have no clamp:
    their floor is h, which their sum never falls below.  Role r's loss is
    log(denom_r) + c - s+, so its derivative in s_rj is w_rj e_rj / denom_r
    less the partner indicator; ``grad`` is that, over the mean's 2B and
    s = f.f / t.
    """
    if np.ndim(f) != 2:
        raise ValueError(f"expected one (V, d) embedding array, got {np.ndim(f)} dims")
    return _batch_terms(f, batch, spec)


def _gram(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ cols^T over any leading axes, by gemm on a contiguous copy of
    cols^T.  When ``rows`` is a slice of ``cols`` from its first row (the
    anchors of a V = 2B batch), the plain product reads one buffer times its
    own transpose, and numpy hands that to BLAS syrk: 50.8 us at (128, 16)
    against 18.4 us for gemm on the copy, with the same bytes (numpy 2.4,
    OpenBLAS 0.3.31, one thread of a 2-core x86-64 host)."""
    return rows @ np.swapaxes(cols, -1, -2).copy()


@functools.lru_cache(maxsize=64)
def _layout(b: int, m: int, n_views: int, tau_plus: float) -> tuple[np.ndarray, np.ndarray]:
    """The (2B, V) weights of the biased and debiased losses, and their
    additive mask: 0 on a weighted column and the partner, -inf elsewhere.
    They depend only on the batch shape and tau+, so each is built once and
    handed out read-only."""
    twob = 2 * b
    roles = np.arange(twob)
    partner = (roles + b) % twob
    weights = np.zeros((twob, n_views))
    weights[:, :twob] = 1.0 / (1.0 - tau_plus)
    weights[roles, roles] = 0.0
    # Columns of this role's extra positive views: 2B + j*B + (r mod B).
    extra_cols = twob + np.arange(m - 1)[None, :] * b + (roles % b)[:, None]
    v_coef = (twob - 2) * tau_plus / ((1.0 - tau_plus) * m)
    weights[roles[:, None], extra_cols] = -v_coef
    weights[roles, partner] = 1.0 - v_coef
    mask = np.where(weights != 0.0, 0.0, -np.inf)
    mask[roles, partner] = 0.0  # the partner is read even at weight 0
    weights.setflags(write=False)
    mask.setflags(write=False)
    return weights, mask


def _true_negative_layout(batch: ViewBatch) -> tuple[np.ndarray, np.ndarray]:
    """The true-negative loss's (2B, 1 + P) weights, 1 on the partner in
    column 0 and N / N_available on each different-class candidate after
    it, and their additive mask.  The candidates are the pool's P rows, or
    without a pool the 2B primary views, labeled ``labels[r mod B]``."""
    if batch.labels is None:
        raise ValueError("unbiased batch loss needs anchor labels")
    b, pool_labels = batch.batch_size, batch.neg_pool_labels
    lab = np.tile(batch.labels, 2)
    # A role's own view and its partner share its label, so neither is ever
    # a different-class column.
    differ = lab[:, None] != (lab if pool_labels is None else pool_labels)[None, :]
    n_avail = differ.sum(axis=1)
    if np.any(n_avail == 0):
        raise DegenerateClass("an anchor has no different-class negative available")
    weights = np.concatenate([np.ones((2 * b, 1)),
                              differ * ((2 * b - 2) / n_avail)[:, None]], axis=1)
    return weights, np.where(weights != 0.0, 0.0, -np.inf)


def _batch_terms(f: np.ndarray, batch: ViewBatch, spec: LossSpec) -> BatchTerms:
    """:func:`batch_terms` over any leading axes: ``f`` is (..., V, d) and each
    field of the result gains the same leading axes.

    The pass computes only the columns its loss reads.  The biased and
    debiased losses read the whole (2B, V) block; their weights depend only
    on the batch shape and tau+, so :func:`_layout` builds them once.  The
    true-negative loss reads the partner and its candidates, so the pass
    computes the (2B, 1 + P) block of :func:`_true_negative_layout` and
    scatters its gradient back into (2B, V)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-2] != batch.features.shape[0]:
        raise ValueError(f"expected {batch.features.shape[0]} view rows, got {f.shape[-2]}")
    b, kind, t = batch.batch_size, spec.kind, spec.temperature
    pool = 0 if batch.neg_pool_labels is None else len(batch.neg_pool_labels)
    if pool and kind != "unbiased":
        raise ValueError("a negative pool is only meaningful for the unbiased loss")

    twob = 2 * b
    n_views = f.shape[-2]
    n_neg = twob - 2
    roles = np.arange(twob)
    partner = (roles + b) % twob
    anchors = f[..., :twob, :]
    if kind == "unbiased":
        weights, mask = _true_negative_layout(batch)
        negatives = slice(n_views - pool, None) if pool else slice(twob)
        sims = np.empty(f.shape[:-2] + weights.shape)
        sims[..., 0] = (anchors * f[..., partner, :]).sum(axis=-1)
        sims[..., 1:] = _gram(anchors, f[..., negatives, :])
        pos = np.zeros(twob, dtype=np.intp)
    else:
        weights, mask = _layout(b, batch.m_positives, n_views, spec.tau_plus)
        sims = _gram(anchors, f)
        pos = partner
    sims /= t

    s_pos = sims[..., roles, pos]
    # The mask is 0 on the weighted columns and the partner and -inf
    # elsewhere, so the shift is the max over the columns the loss reads, and
    # an unread column (e.g. self-similarity at 1/t) has exponential exactly
    # 0 rather than one that could overflow and poison the sums with inf * 0.
    # An additive mask then a plain max gives the shift, bit for bit, of a
    # -inf fill by np.where(weights != 0, sims, -inf) and a max with s+: the
    # fill alone took 51.5 us on a (128, 128) block against 35.7 for the
    # add, and np.max(where=) twice the fill (numpy 2.4, one thread of a
    # 2-core x86-64 host).
    weighted = sims + mask
    shift = weighted.max(axis=-1)
    weighted -= shift[..., None]
    np.exp(weighted, out=weighted)
    h_pos = weighted[..., roles, pos]
    weighted *= weights
    raw = weighted.sum(axis=-1)
    floor = h_pos + n_neg * estimator_floor(t, shift) if kind == "debiased" else h_pos
    floored = raw < floor
    # At equality the floored branch is taken: the right-continuous
    # subgradient of max, as autodiff would.  A clamped row keeps only its
    # partner's term.
    clamped = np.nonzero(raw <= floor)
    weighted[clamped] = 0.0
    weighted[clamped[:-1] + (clamped[-1], pos[clamped[-1]])] = h_pos[clamped]
    denom = np.maximum(raw, floor)
    losses = np.log(denom) + shift - s_pos
    grad = weighted
    grad /= denom[..., None]
    grad[..., roles, pos] -= 1.0
    grad /= twob * t
    if kind == "unbiased":
        # In-batch the partner's candidate column is 0, so this writes over it.
        grad, block = np.zeros(f.shape[:-2] + (twob, n_views)), grad
        grad[..., negatives] = block[..., 1:]
        grad[..., roles, partner] = block[..., 0]
    return BatchTerms(losses, floored, grad)


def debiased_loss_batch(view_a: np.ndarray, view_b: np.ndarray, tau_plus: float,
                        t: float) -> LossValue:
    """Two-view batch debiased loss with the exp floor, averaged over all 2B
    anchor roles.

    Each of the 2B views is an anchor once: its partner view is the positive
    and the one estimator positive (M = 1), and the other 2(B-1) views are
    the unlabeled negatives.  Permutation-invariant over batch order.
    """
    view_a = np.asarray(view_a, dtype=np.float64)
    view_b = np.asarray(view_b, dtype=np.float64)
    if view_a.shape != view_b.shape or view_a.ndim != 2:
        raise ValueError("view_a and view_b must both be (B, d)")
    f = np.concatenate([view_a, view_b], axis=0)
    batch = ViewBatch(features=f, batch_size=view_a.shape[0], m_positives=1)
    terms = batch_terms(f, batch, LossSpec(kind="debiased", tau_plus=tau_plus, temperature=t))
    return LossValue(float(terms.losses.mean()))


def _multisets(s: int, n: int, dtype: np.dtype) -> np.ndarray:
    """The non-decreasing rows of n indices into range(s), in lexicographic order.

    Built one position at a time: a row whose last index is v has the
    children v, ..., s - 1, so each level keeps only its rows' last indices
    and the row of the level before that each extends.  The table is then
    filled from the last column to the first along those parent indices.
    The rows are of ``dtype``, an unsigned integer type that holds s - 1,
    and so is each level's column of last indices.
    """
    values, parents = [np.arange(s, dtype=dtype)], []
    for _ in range(1, n):
        kids = s - values[-1].astype(np.intp)
        parent = np.repeat(np.arange(kids.size), kids)
        # Child j of row i, whose children start at j0 = cumsum(kids)[i] - kids[i],
        # takes index values[-1][i] + (j - j0).
        values.append((np.arange(parent.size) - (np.cumsum(kids) - kids - values[-1])[parent])
                      .astype(dtype))
        parents.append(parent)
    rows = np.empty((math.comb(s + n - 1, n), n), dtype=dtype)
    idx = np.arange(rows.shape[0])
    for k in reversed(range(n)):
        rows[:, k] = values[k][idx]
        if k:
            idx = parents[k - 1][idx]
    return rows


def _multiset_table(weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The multisets of n i.i.d. draws i ~ weights, with their probabilities.

    Returns (rows, probs): each row holds the n point indices of one
    multiset of the support, in the lexicographic order of
    ``itertools.combinations_with_replacement`` but built in numpy
    (:func:`_multisets`), and probs its multinomial probability, which
    regroups (without changing) the full tuple sum.  The rows are of the
    narrowest unsigned type that holds every point index,
    ``np.min_scalar_type(weights.size - 1)``.  The table does not depend on
    the values drawn, so one table serves every anchor: :func:`_row_sums`
    gives the matching column of sums.  At n = 0 the one row is the empty
    multiset, of probability 1.

    The point counts c are formed ``_ROW_BLOCK`` rows at a time, and each
    row's log-probability is (log n! - sum_i log c_i!) + sum_i c_i log w_i,
    each sum a numpy sum along that row, in the order of the support, with
    no count matrix of the whole table and no BLAS product.  So no row's
    value depends on the rows beside it, on the block size or on the BLAS
    thread count.  The rows are mapped to point indices in place.
    """
    support = np.flatnonzero(weights > 0.0)
    n_rows = math.comb(support.size + n - 1, n)
    if n_rows > _MAX_MULTISETS:
        raise BudgetExceeded(f"{n_rows} multisets exceed the internal enumeration cap")
    rows = _multisets(support.size, n, np.min_scalar_type(weights.size - 1))
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_w = np.log(weights[support])
    log_prob = np.empty(n_rows)
    for lo in range(0, n_rows, _ROW_BLOCK):
        block = rows[lo:lo + _ROW_BLOCK]
        size = block.shape[0]
        counts = np.bincount((np.arange(size)[:, None] * support.size + block).ravel(),
                             minlength=size * support.size).reshape(size, -1)
        log_prob[lo:lo + size] = ((logfact[n] - logfact[counts].sum(axis=1))
                                  + (counts * log_w).sum(axis=1))
        block[...] = support[block]
    return rows, np.exp(log_prob, out=log_prob)


def _row_sums(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[rows].sum(axis=1)``, taken ``_ROW_BLOCK`` rows at a time.

    Each block of the (narrow) rows is copied into one reused ``intp``
    buffer before the gather, which then indexes without a conversion of
    its own; the sums are those of the gather on the rows themselves.
    """
    sums = np.empty(rows.shape[0])
    index = np.empty((min(_ROW_BLOCK, rows.shape[0]), rows.shape[1]), dtype=np.intp)
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        block = index[:rows.shape[0] - lo]
        block[...] = rows[lo:lo + _ROW_BLOCK]
        sums[lo:lo + block.shape[0]] = values[block].sum(axis=1)
    return sums


def _shifted_exps(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Similarities of every anchor row, each row's max, and exp(row - max)."""
    f = np.asarray(embeddings, dtype=np.float64)
    sims = f @ f.T
    shift = sims.max(axis=1)
    return sims, shift, np.exp(sims - shift[:, None])


# The distribution of one draw of each side, given the anchor: the sides that
# both the Monte Carlo draws and the enumerated losses are made of.
_SIDES = {
    "marginal": lambda mix, anchor: marginal(mix),
    "negative": negative_dist,
    "positive": positive_dist,
}


def _enumerated_losses(embeddings: np.ndarray, mix: DiscreteClassMixture,
                       draws: list[list[tuple[str, int]]], budget: float) -> np.ndarray:
    """E[log(e^(s+) + sum_j e^(s_j)) - s+] at t = 1 for each entry of ``draws``.

    The expectation is over anchor ~ marginal, positive ~ the anchor's class
    and, for each ``(side, n)`` pair of the entry, n i.i.d. draws from that
    side of ``_SIDES``.  The rows evaluated, summed over entries and anchors
    of positive mass, are counted from the sides' supports; more than
    ``budget`` raises :class:`BudgetExceeded` before any table is built.
    Each side's distribution is built once per anchor and each multiset
    table once per (distribution, n), so an anchor only sums its own e^s
    over the rows.  Entries are the outer loop and anchors the inner, in
    the order of their indices, so an entry's value adds its anchors' terms
    in that order.  Only the current entry's joint probabilities are held,
    one array per class, and a table is dropped after the last entry that
    reads it: memory is bounded by one entry's tables (each n narrow
    integers and one float per row) and its per-row vectors (tails and
    joint probabilities), plus ``_ROW_BLOCK`` rows of scratch and one loss
    grid chunk.  The loss grid is evaluated on the anchor's positive
    support only, one row per positive, in chunks of at most
    ``_MAX_MULTISETS`` cells.
    """
    marg = marginal(mix)
    live = np.flatnonzero(marg > 0.0)
    sides = {"positive"} | {side for entry in draws for side, _ in entry}
    dists = [{side: _SIDES[side](mix, a) for side in sides} for a in live]
    rows = sum(math.prod(math.comb(np.count_nonzero(dist[side] > 0.0) + n - 1, n)
                         for side, n in entry)
               for dist in dists for entry in draws)
    if rows > budget:
        raise BudgetExceeded(f"{rows} enumerated rows exceed budget {budget:g}")
    keys = [[[(dist[side].tobytes(), n) for side, n in entry] for dist in dists]
            for entry in draws]
    last_read = {key: i for i, entry_keys in enumerate(keys)
                 for anchor_keys in entry_keys for key in anchor_keys}
    sims, shift, expm = _shifted_exps(embeddings)
    tables = {}
    out = np.zeros(len(draws))
    for i, (entry, entry_keys) in enumerate(zip(draws, keys)):
        joint = {}
        for a, dist, anchor_keys in zip(live, dists, entry_keys):
            expvec, pos, c = expm[a], dist["positive"], mix.labels[a]
            cols = np.flatnonzero(pos)
            for key, (side, n) in zip(anchor_keys, entry):
                if key not in tables:
                    tables[key] = _multiset_table(dist[side], n)
            if c not in joint:
                joint[c] = functools.reduce(lambda p, q: np.multiply.outer(p, q).ravel(),
                                            [tables[key][1] for key in anchor_keys])
            tails = functools.reduce(lambda x, y: np.add.outer(x, y).ravel(),
                                     [_row_sums(expvec, tables[key][0]) for key in anchor_keys])
            step = _MAX_MULTISETS // cols.size
            pos_losses = sum(_contrastive_losses(sims[a, cols, None], expvec[cols, None],
                                                 tails[lo:lo + step], shift[a])
                             @ joint[c][lo:lo + step]
                             for lo in range(0, tails.size, step))
            out[i] += marg[a] * float(pos_losses @ pos[cols])
            # Freed before the next anchor's tails, or the next entry's tables, are built.
            del tails
        for key in [key for key in tables if last_read[key] == i]:
            del tables[key]
    return out


def unbiased_loss_exact(embeddings: np.ndarray, mix: DiscreteClassMixture,
                        n_neg: int, budget: float) -> LossValue:
    """Exact expectation of the true-negative loss by full enumeration.

    Expectation over anchor ~ marginal, positive ~ anchor class, and N
    i.i.d. negatives from the anchor's complement classes, whose
    exponentials enter the denominator unweighted (Q = N): the engine's
    entry ``[("negative", N)]``.  No Monte Carlo error.
    """
    if n_neg < 1:
        raise EmptyNegatives("unbiased loss needs N >= 1")
    return LossValue(float(_enumerated_losses(embeddings, mix, [[("negative", n_neg)]],
                                              budget)[0]))


def _debiased_inner(mix: DiscreteClassMixture, expm: np.ndarray,
                    tau_plus: float | np.ndarray) -> np.ndarray:
    """Unclamped asymptotic inner expectation (E_p e^s - tau+ E+ e^s) / tau- of
    every anchor, row a of ``expm`` holding anchor a's exponentiated
    similarities under any positive scale.

    ``tau_plus`` is one value, or one per anchor.  The two expectations are
    taken as one weighted sum, so where tau+ is the class prior the anchor's
    own class cancels in the weights, exactly, and not between two nearly
    equal sums: the inner at ``mix.prior[mix.labels]`` is the true-negative
    expectation E- e^s.  tau+ must lie in [0, 1), and the first anchor of
    positive mass whose inner is nonpositive (possible only above its class
    prior) raises :class:`NegativeDenominator`.
    """
    tau = np.asarray(tau_plus, dtype=np.float64)
    for value in tau.flat:
        _check_params(value)
    marg = marginal(mix)
    pos = mix.class_conditionals[mix.labels]  # row a is positive_dist(mix, a)
    inner = ((marg - tau[..., None] * pos) * expm).sum(axis=1) / (1.0 - tau)
    bad = np.flatnonzero((marg > 0.0) & (inner <= 0.0))
    if bad.size:
        at = tau_plus if tau.ndim == 0 else float(tau[bad[0]])
        raise NegativeDenominator(
            f"inner expectation nonpositive at anchor {bad[0]} (tau_plus={at!r})"
        )
    return inner


def asymptotic_debiased_exact(embeddings: np.ndarray, mix: DiscreteClassMixture,
                              q: float | np.ndarray,
                              tau_plus: float | np.ndarray | None = None
                              ) -> LossValue | list[LossValue]:
    """Exact large-N limit of the debiased loss on a discrete mixture.

    For each anchor the inner expectation (E_p exp(s) - tau+ E_pos exp(s))
    / tau- is computed exactly by :func:`_debiased_inner`, which raises
    rather than clamp it, so theory checks are never silently distorted.
    ``tau_plus`` is one value or one per anchor; ``None`` means
    ``mix.tau_plus``.  At ``mix.prior[mix.labels]`` this is the asymptotic
    true-negative loss E[log(e^(s+) + q E- e^s) - s+].  Anchors of zero
    mass are skipped.

    ``q`` is one value, or a 1-d sequence of them; each must be finite and
    positive.  Only the factor q depends on it, so a sequence builds the
    similarities and the inner expectations once and returns one value per
    q, in order, each bit-identical to the call at that q alone.
    """
    qs = np.asarray(q, dtype=np.float64)
    if qs.ndim > 1 or qs.size == 0 or not np.all(np.isfinite(qs) & (qs > 0.0)):
        raise ValueError(f"q must be finite and positive, one value or a non-empty "
                         f"1-d sequence; got {q!r}")
    if mix.n_classes < 2:
        raise DegenerateClass("asymptotic debiased loss needs K >= 2")
    marg = marginal(mix)
    sims, shift, expm = _shifted_exps(embeddings)
    inner = _debiased_inner(mix, expm, mix.tau_plus if tau_plus is None else tau_plus)
    live = marg > 0.0
    # (len(q), live, S): each q's block is the single call's (live, S) array.
    losses = _contrastive_losses(sims[live], expm[live],
                                 qs.reshape(-1, 1, 1) * inner[live, None], shift[live, None])
    pos = mix.class_conditionals[mix.labels[live]]
    values = [LossValue(float(marg[live] @ row)) for row in (losses * pos).sum(axis=-1)]
    return values if qs.ndim else values[0]


def binomial_oracle(embeddings: np.ndarray, mix: DiscreteClassMixture, n_neg: int,
                    budget: float) -> OracleResult:
    """Inclusion-exclusion rewriting of the exact unbiased loss.

    value = (1/tau-)^N sum_k C(N,k) (-tau+)^k E[loss with k negatives from
    the positive distribution and N-k from the marginal], every inner
    expectation enumerated exactly.  The alternating series cancels
    catastrophically for large N, so N is capped at 8, the terms are summed
    exactly rounded with ``math.fsum``, and the condition number
    sum|term| / |sum term| is reported alongside the value.

    The rewriting splits the marginal as tau+ positive + tau- negative for
    every anchor, with one scalar tau+; that split is exact only under a
    uniform class prior, so any other prior raises :class:`PriorMismatch`.
    The k-th inner expectation is the engine's entry ``[("positive", k),
    ("marginal", N - k)]``.
    """
    if not (1 <= n_neg <= ORACLE_MAX_N):
        raise OracleRangeExceeded(f"oracle requires 1 <= N <= {ORACLE_MAX_N}, got {n_neg}")
    if mix.n_classes < 2:
        raise DegenerateClass("oracle needs K >= 2")
    if not mix.uniform_prior:
        raise PriorMismatch("oracle needs a uniform class prior; use unbiased_loss_exact")
    tau_plus = mix.tau_plus
    tau_minus = mix.tau_minus
    inner = _enumerated_losses(embeddings, mix, [[("positive", k), ("marginal", n_neg - k)]
                                                 for k in range(n_neg + 1)], budget)

    k = np.arange(n_neg + 1)
    coeffs = np.array([math.comb(n_neg, int(i)) for i in k], dtype=np.float64)
    terms = coeffs * (-tau_plus) ** k * inner / tau_minus ** n_neg
    value = math.fsum(terms)
    abs_sum = float(np.abs(terms).sum())
    cond = abs_sum / abs(value) if value != 0.0 else math.inf
    return OracleResult(LossValue(value), cond, tuple(terms))


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(logits)[label] and the softmax probabilities.

    Both come from one max-shifted exponential of the (n, K) logits.
    """
    shift = logits.max(axis=1, keepdims=True)
    expl = np.exp(logits - shift)
    total = expl.sum(axis=1, keepdims=True)
    ce = np.log(total[:, 0]) + shift[:, 0] - logits[np.arange(logits.shape[0]), labels]
    return ce, expl / total


def mean_classifier_weights(representations: np.ndarray, labels: np.ndarray,
                            n_classes: int, sample_weights: np.ndarray) -> np.ndarray:
    """K x d matrix whose row c is the weighted mean representation of class c."""
    reps = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    w = np.zeros((n_classes, reps.shape[1]))
    for c in range(n_classes):
        mask = labels == c
        total = sample_weights[mask].sum()
        if total > 0.0:
            w[c] = (sample_weights[mask, None] * reps[mask]).sum(axis=0) / total
    return w


def _mean_classifier_ce(embeddings: np.ndarray, mix: DiscreteClassMixture,
                        classes: np.ndarray) -> float:
    """Exact mean-classifier cross entropy on the task of the sorted ``classes``.

    Anchors x ~ marginal are conditioned on membership in ``classes``, and
    the logits f(x).mu_c range over those classes' means only.
    """
    f = np.asarray(embeddings, dtype=np.float64)
    column = np.full(mix.n_classes, -1)
    column[classes] = np.arange(classes.size)
    own = column[mix.labels]  # each point's logit column; -1 outside the task
    member = own >= 0
    mu = mix.class_conditionals[classes] @ f
    ce, _ = softmax_cross_entropy(f[member] @ mu.T, own[member])
    weights = marginal(mix)[member]
    return float(weights @ ce / weights.sum())


def mean_classifier_loss(embeddings: np.ndarray, mix: DiscreteClassMixture) -> LossValue:
    """Exact supervised loss of the classifier whose rows are class means.

    Logits for point x are f(x).mu_c with mu_c = E_{x ~ p(.|c)} f(x);
    the expectation over x ~ marginal is a finite sum.  Constant embeddings
    give exactly log K.
    """
    if mix.n_classes < 2:
        raise DegenerateClass("mean classifier loss needs K >= 2")
    return LossValue(_mean_classifier_ce(embeddings, mix, np.arange(mix.n_classes)))
