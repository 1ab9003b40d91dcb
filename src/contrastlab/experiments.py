"""Held-out linear-probe accuracy of a frozen encoder.

The direction experiment (``configs/direction.txt``, run by the ``train``
command) scores each trained encoder with ``direction_probe_accuracy``, and
the ``probe`` command scores a saved checkpoint the same way.
"""

from __future__ import annotations

import numpy as np

from .encoder import encoder_forward
from .evaluation import linear_probe, probe_accuracy
from .geometry import unit_rows
from .rng import substream
from .worldmodel import sample_classes, sample_views


def representations(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return unit_rows(encoder_forward(weights, features))


def direction_probe_accuracy(weights: np.ndarray, seed: int, world, *,
                             fit_size: int, replicas: int, test_size: int) -> float:
    """Held-out linear-probe accuracy of the frozen encoder ``weights``.

    Each replica fits the probe on an independent labeled sample of the
    world and scores it on another.  Accuracy is averaged over ``replicas``
    independent (fit, test) sample pairs, which estimates the same
    population quantity with less sampling noise; the replica substreams
    depend only on the seed, so every loss kind is scored on identical
    evaluation data.
    """
    accs = []
    for rep in range(replicas):
        rng = substream(seed, 10, rep)
        fit_labels = sample_classes(world, fit_size, rng)
        fit_feats = sample_views(world, fit_labels, rng)
        probe = linear_probe(representations(weights, fit_feats), fit_labels)
        rng = substream(seed, 11, rep)
        test_labels = sample_classes(world, test_size, rng)
        test_feats = sample_views(world, test_labels, rng)
        accs.append(probe_accuracy(probe.probe_weights,
                                   representations(weights, test_feats), test_labels))
    return float(np.mean(accs))
