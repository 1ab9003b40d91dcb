"""Downstream supervised evaluation: linear probe, mean classifier, bound chain.

The probe approximates the infimum of the softmax cross entropy over linear
classifiers by a damped Newton solve of the (convex) softmax regression,
run to the fixed gradient norm ``PROBE_GRAD_TOL`` (at most
``PROBE_MAX_ITER`` Newton steps) and warm-started at the mean-classifier
weights, so its final loss never exceeds the mean-classifier loss.  On a
discrete mixture the probe is solved with marginal sample weights, which
makes it the population quantity up to the optimization tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundPreconditionViolated, PriorMismatch, SingleClassData
from .losses import (
    _mean_classifier_ce,
    asymptotic_debiased_exact,
    mean_classifier_loss,
    mean_classifier_weights,
    softmax_cross_entropy,
)
from .rng import substream
from .verification import BoundCertificate, make_certificate, mixture_tag
from .worldmodel import DiscreteClassMixture, marginal

PROBE_GRAD_TOL = 1e-8
PROBE_MAX_ITER = 200

# Allowance of the exact lemma4 comparison for round-off in its two sums.
LEMMA4_FP_TOL = 1e-9


@dataclass(frozen=True)
class ProbeResult:
    """Fitted linear probe: weighted accuracy and softmax loss on its data."""

    accuracy: float
    softmax_loss: float
    probe_weights: np.ndarray
    grad_norm: float
    iterations: int


def _softmax_objective(w: np.ndarray, reps: np.ndarray, labels: np.ndarray,
                       weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted softmax CE loss, gradient, and class probabilities at w."""
    ce, probs = softmax_cross_entropy(reps @ w.T, labels)
    loss = float(weights @ ce)
    resid = probs.copy()
    resid[np.arange(labels.shape[0]), labels] -= 1.0
    grad = (weights[:, None] * resid).T @ reps
    return loss, grad, probs


def linear_probe(representations: np.ndarray, labels: np.ndarray,
                 sample_weights: np.ndarray | None = None) -> ProbeResult:
    """Fit a softmax classifier on frozen representations.

    Damped Newton with backtracking on the convex objective, warm-started
    at the mean-classifier weights; stops when the max-abs gradient entry
    falls below ``PROBE_GRAD_TOL`` or after ``PROBE_MAX_ITER`` steps.
    ``sample_weights`` (uniform by default) are normalized to sum 1; a
    negative or non-finite entry, or a zero sum, raises ``ValueError``.
    """
    reps = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    present = np.unique(labels)
    if present.size < 2:
        raise SingleClassData("probe needs at least two classes present")
    k = int(labels.max()) + 1
    n, d = reps.shape
    weights = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0.0) and weights.sum() > 0.0):
        raise ValueError("sample_weights must be finite, nonnegative and of positive sum")
    weights = weights / weights.sum()

    scaled = reps * np.sqrt(weights)[:, None]
    w = mean_classifier_weights(reps, labels, k, weights)
    loss, grad, probs = _softmax_objective(w, reps, labels, weights)
    iterations = 0
    while float(np.abs(grad).max()) > PROBE_GRAD_TOL and iterations < PROBE_MAX_ITER:
        # H[(c,a),(c',b)] = sum_i w_i f_ia f_ib (P_ic [c=c'] - P_ic P_ic'): the
        # second term is -x^T x for x_i,(c,a) = P_ic sqrt(w_i) f_ia, the first
        # one block per class.  x.T @ x on one array is a symmetric product.
        x = (probs[:, :, None] * scaled[:, None, :]).reshape(n, k * d)
        hess = -(x.T @ x)
        for c in range(k):
            y = reps * np.sqrt(weights * probs[:, c])[:, None]
            hess[c * d:(c + 1) * d, c * d:(c + 1) * d] += y.T @ y
        step = np.linalg.solve(hess + 1e-10 * np.eye(k * d), grad.ravel()).reshape(k, d)
        scale = 1.0
        while scale > 1e-12:
            cand = w - scale * step
            cand_loss, cand_grad, cand_probs = _softmax_objective(cand, reps, labels, weights)
            if cand_loss <= loss:
                w, loss, grad, probs = cand, cand_loss, cand_grad, cand_probs
                break
            scale *= 0.5
        else:
            break  # no descent possible at floating-point resolution
        iterations += 1

    accuracy = float(np.average(np.argmax(reps @ w.T, axis=1) == labels, weights=weights))
    return ProbeResult(accuracy=accuracy, softmax_loss=loss, probe_weights=w,
                       grad_norm=float(np.abs(grad).max()), iterations=iterations)


def probe_accuracy(probe_weights: np.ndarray, representations: np.ndarray,
                   labels: np.ndarray) -> float:
    """Plain argmax accuracy of fixed probe weights on a labeled set."""
    preds = np.argmax(np.asarray(representations) @ probe_weights.T, axis=1)
    return float((preds == np.asarray(labels)).mean())


@dataclass(frozen=True, eq=False)
class Lemma4Terms:
    """Every term of the lemma4 certificates on one (embeddings, mixture).

    ``lhs`` is the certified mean-classifier loss; ``subtasks`` maps each
    sampled 3-class sub-task (K > 3 only) to its mean-classifier loss, and
    ``probe`` is the fitted probe when it was asked for.  ``rhs`` maps each
    N the terms were built for to the asymptotic debiased loss at Q = N.
    """

    mix: DiscreteClassMixture
    lhs: float
    subtasks: dict[str, float]
    probe: ProbeResult | None
    rhs: dict[int, float]


def lemma4_terms(embeddings: np.ndarray, mix: DiscreteClassMixture,
                 include_probe: bool, n_values) -> Lemma4Terms:
    """Build the terms of :func:`lemma4_chain_check` at every N of ``n_values``.

    The rhs is the asymptotic debiased loss at the mixture's scalar tau+,
    which equals the asymptotic true-negative loss only under a uniform
    class prior, so any other prior raises :class:`PriorMismatch`; the chain
    is not valid below N = K-1, so any such N raises
    :class:`BoundPreconditionViolated`.  Both are refused before any term is
    built.  The mean classifier, the sub-tasks and the probe do not depend
    on N, and the rhs of every N comes from one
    :func:`asymptotic_debiased_exact` call over all of ``n_values``, so each
    is computed once rather than once per N.
    """
    n_values = [int(n) for n in n_values]
    if not mix.uniform_prior:
        raise PriorMismatch("lemma4 chain needs a uniform class prior")
    if any(n < mix.n_classes - 1 for n in n_values):
        raise BoundPreconditionViolated(
            f"chain needs N >= K-1 = {mix.n_classes - 1}, got {min(n_values)}"
        )
    lhs = mean_classifier_loss(embeddings, mix).value
    subtasks = {}
    if mix.n_classes > 3:
        gen = substream(0, 4)  # fixed: every check with K classes samples the same sub-tasks
        for _ in range(3):
            classes = np.sort(gen.choice(mix.n_classes, size=3, replace=False))
            subtasks[",".join(map(str, classes))] = _mean_classifier_ce(embeddings, mix, classes)
    probe = None
    if include_probe:
        probe = linear_probe(np.asarray(embeddings, dtype=np.float64), mix.labels,
                             sample_weights=marginal(mix))
    rhs = asymptotic_debiased_exact(embeddings, mix, q=n_values)
    return Lemma4Terms(mix=mix, lhs=lhs, subtasks=subtasks, probe=probe,
                       rhs={n: v.value for n, v in zip(n_values, rhs)})


def lemma4_chain_check(terms: Lemma4Terms, n_neg: int) -> BoundCertificate:
    """Certify the supervised bound chain on a discrete mixture at N = ``n_neg``.

    Checks (exactly) that the mean-classifier loss is at most the asymptotic
    debiased loss at Q = N.  The probe loss (the approximated infimum over
    linear classifiers) is recorded in the metadata as approximate rather
    than certified, together with the mean-classifier value, since the two
    bracket the supervised loss.

    The certified comparison is the single task containing all K classes;
    for K > 3 a few sampled 3-way sub-tasks are evaluated as well and
    recorded (not certified) in the metadata with their class tuples.  Both
    losses are exact and at temperature 1, so the only slack is
    ``LEMMA4_FP_TOL``.

    Every term is read from ``terms``, which :func:`lemma4_terms` builds once
    per (embeddings, mixture) for all the N to be checked and which owns the
    chain's preconditions; terms without this N raise ``ValueError``.
    """
    if n_neg not in terms.rhs:
        raise ValueError(f"terms hold N in {sorted(terms.rhs)}, not N = {n_neg}")
    # Each record gets its own meta; no nested dict is shared between N.
    meta = mixture_tag(terms.mix) | {"n_neg": n_neg, "mean_classifier_loss": terms.lhs,
                                      "task": "all-classes"}
    if terms.subtasks:
        meta["subtask_mean_classifier_losses"] = dict(terms.subtasks)
    if terms.probe is not None:
        meta["supervised_probe_loss"] = terms.probe.softmax_loss
        meta["supervised_probe_loss_note"] = "approximate (optimized infimum)"
        meta["probe_accuracy"] = terms.probe.accuracy
    return make_certificate("lemma4", terms.lhs, terms.rhs[n_neg], 0.0, 0, meta,
                            fp_tol=LEMMA4_FP_TOL)
