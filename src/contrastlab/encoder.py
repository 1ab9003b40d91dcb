"""Trainable linear encoder and view batches.

The encoder is its d x m weight matrix W, a plain array mapping input
features to pre-normalized representations z = W x; the unit projection and
everything after it live in the loss kernel.  Weights enter the program from
:func:`init_params` or from ``training.load_checkpoint``, which checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchTooSmall


def init_params(rng: np.random.Generator, feature_dim: int, embed_dim: int) -> np.ndarray:
    """Gaussian init scaled by 1/sqrt(fan-in)."""
    return rng.standard_normal((embed_dim, feature_dim)) / np.sqrt(feature_dim)


def encoder_forward(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pre-normalized representations Z = x W^T for inputs x (rows).

    ``weights`` may carry leading axes, (..., d, m); Z then has the same
    leading axes, one (n, d) block per weight matrix.
    """
    return np.asarray(x, dtype=np.float64) @ np.swapaxes(weights, -1, -2)


def encoder_backward(x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The weight gradient dLoss/dW = dZ^T x, given the inputs x and dLoss/dZ."""
    return dz.T @ np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class ViewBatch:
    """Stacked view features for one optimization step.

    Rows: B first views, B second views, (M-1) groups of B extra positive
    views (group j of anchor i at row 2B + j*B + i), then an optional pool
    of fresh negative views.  ``labels`` carries the B anchor classes; the
    unbiased loss needs them (and ``neg_pool_labels`` when a pool is
    present), the others ignore them.  Construction checks B >= 2, M >= 1,
    the row count and the label shape.
    """

    features: np.ndarray
    batch_size: int
    m_positives: int
    labels: np.ndarray | None = None
    neg_pool_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise BatchTooSmall("need at least two anchors per batch")
        if self.m_positives < 1:
            raise ValueError("m_positives must be >= 1")
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        pool = 0 if self.neg_pool_labels is None else len(self.neg_pool_labels)
        expected = (self.m_positives + 1) * self.batch_size + pool
        if feats.ndim != 2 or feats.shape[0] != expected:
            raise ValueError(f"expected {expected} view rows, got {feats.shape}")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.intp)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (self.batch_size,):
                raise ValueError("labels must have one entry per anchor")
        if self.neg_pool_labels is not None:
            pool_labels = np.asarray(self.neg_pool_labels, dtype=np.intp)
            object.__setattr__(self, "neg_pool_labels", pool_labels)
