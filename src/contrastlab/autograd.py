"""Analytic gradients of batch losses w.r.t. the encoder weight matrix.

The chain is closed-form.  ``losses.batch_terms`` owns the loss end of it:
it hands back G = d(mean loss)/d(f_r . f_j) for every kind of
``losses.LOSS_KINDS``, with the clamp already applied (where the estimator
sits on its floor only the positive-pair path is retained; at exact
equality with the floor the floored branch is taken, matching the
right-continuous subgradient of max and typical autodiff behavior).  This
module only carries G back through the dot products, the unit projection
via its Jacobian and the encoder, so it knows nothing of the batch layout
beyond the anchor rows coming first.

A central-finite-difference harness verifies the whole chain; coordinates
whose +/- step evaluations land on different sides of the clamp are
excluded from the error aggregate (the loss is nonsmooth there) and counted
instead.  The harness stacks all 2·|W| perturbed weight matrices and
evaluates them in one forward pass over a leading axis; each perturbation's
loss is the one a lone forward pass computes, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .encoder import ViewBatch, encoder_backward, encoder_forward
from .geometry import _row_norms, unit_rows
from .losses import LossSpec


@dataclass(frozen=True)
class GradientReport:
    """Analytic vs central-difference gradients over the flattened weights.

    max_rel_err = ||analytic - numeric||_inf / (||numeric||_inf + 1e-12),
    computed over coordinates not excluded by clamp straddling.
    """

    max_rel_err: float
    excluded: tuple[int, ...]


def batch_loss_terms(weights: np.ndarray, batch: ViewBatch, spec: LossSpec) -> losses.BatchTerms:
    """Forward pass only: per-anchor losses, clamp flags and similarity gradient.

    ``weights`` may be a stack (..., d, m) of weight matrices; every field of
    the result then carries the same leading axes.
    """
    f = unit_rows(encoder_forward(weights, batch.features))
    return losses._batch_terms(f, batch, spec)


def loss_and_grad(weights: np.ndarray, batch: ViewBatch,
                  spec: LossSpec) -> tuple[float, np.ndarray]:
    """Mean batch loss and its exact gradient w.r.t. the encoder weights."""
    z = encoder_forward(weights, batch.features)
    norms = _row_norms(z)[:, None]
    f = z / norms
    terms = losses.batch_terms(f, batch, spec)
    grad = terms.grad
    anchors = grad.shape[0]
    # Each f_r . f_j moves f_j by G_rj f_r and f_r by G_rj f_j.
    d_f = grad.T @ f[:anchors]
    d_f[:anchors] += grad @ f
    # Unit projection: dL/dz = (dL/df - (dL/df . f) f) / ||z||.
    d_z = (d_f - (d_f * f).sum(axis=1, keepdims=True) * f) / norms
    return float(terms.losses.mean()), encoder_backward(batch.features, d_z)


def finite_diff_check(weights: np.ndarray, batch: ViewBatch, spec: LossSpec,
                      step: float) -> GradientReport:
    """Central differences per weight against the analytic gradient.

    Coordinates where the clamp pattern differs between the +step and -step
    evaluations are excluded from the aggregate and listed in ``excluded``.
    """
    if not (1e-8 <= step <= 1e-3):
        raise ValueError("step must lie in [1e-8, 1e-3]")
    _, grad = loss_and_grad(weights, batch, spec)
    analytic = grad.flatten()
    size = weights.size
    coord = np.arange(size)
    # Matrix (i, 0) moves weight i by +step and matrix (i, 1) by -step.
    bumped = np.tile(weights.ravel(), (size, 2, 1))
    bumped[coord, 0, coord] += step
    bumped[coord, 1, coord] -= step
    terms = batch_loss_terms(bumped.reshape((size, 2) + weights.shape), batch, spec)
    means = terms.losses.mean(axis=-1)
    numeric = (means[:, 0] - means[:, 1]) / (2.0 * step)
    straddles = (terms.floored[:, 0] != terms.floored[:, 1]).any(axis=-1)
    keep = ~straddles
    if keep.any():
        denom = float(np.abs(numeric[keep]).max()) + 1e-12
        max_rel_err = float(np.abs(analytic[keep] - numeric[keep]).max()) / denom
    else:
        max_rel_err = 0.0
    return GradientReport(max_rel_err=max_rel_err,
                          excluded=tuple(np.flatnonzero(straddles).tolist()))
