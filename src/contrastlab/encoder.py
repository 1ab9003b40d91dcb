"""Trainable linear encoder and view batches.

The encoder maps input features to pre-normalized representations
z = W x; the unit projection and everything after it live in the loss
kernel.  Its one parameter is the weight matrix W, and a gradient is an
``EncoderParams`` of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncoderParams:
    """Encoder weights: ``weights`` (d x m) maps m input features into d
    embedding dimensions."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValueError("weights must be 2-d with output dimension >= 2")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")


def init_params(rng: np.random.Generator, feature_dim: int, embed_dim: int) -> EncoderParams:
    """Gaussian init scaled by 1/sqrt(fan-in)."""
    w = rng.standard_normal((embed_dim, feature_dim)) / np.sqrt(feature_dim)
    return EncoderParams(weights=w)


def encoder_forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Pre-normalized representations Z = x W^T for inputs x (rows)."""
    return np.asarray(x, dtype=np.float64) @ params.weights.T


def encoder_backward(x: np.ndarray, dz: np.ndarray) -> EncoderParams:
    """The weight gradient dLoss/dW = dZ^T x, given the inputs x and dLoss/dZ."""
    return EncoderParams(weights=dz.T @ np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class ViewBatch:
    """Stacked view features for one optimization step.

    Rows: B first views, B second views, (M-1) groups of B extra positive
    views (group j of anchor i at row 2B + j*B + i), then an optional pool
    of fresh negative views.  ``labels`` carries the B anchor classes; the
    unbiased loss needs them (and ``neg_pool_labels`` when a pool is
    present), the others ignore them.
    """

    features: np.ndarray
    batch_size: int
    m_positives: int
    labels: np.ndarray | None = None
    neg_pool_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
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
