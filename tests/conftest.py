"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from contrastlab.geometry import unit_rows
from contrastlab.rng import substream
from contrastlab.worldmodel import random_mixture


@pytest.fixture
def rng():
    return substream(20260808)


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return unit_rows(rng.standard_normal((n, d)))


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_instance(seed: int, s_points: int = 8, k_classes: int = 4,
                    embed_dim: int = 8):
    """A (unit embedding table, uniform-prior mixture) pair."""
    gen = substream(seed)
    mix = random_mixture(gen, s_points, k_classes)
    emb = random_unit_rows(gen, s_points, embed_dim)
    return emb, mix


def single_class_mixture():
    from contrastlab.worldmodel import DiscreteClassMixture

    return DiscreteClassMixture(
        points=np.array([[1.0, 0.0], [0.0, 1.0]]),
        labels=np.array([0, 0]),
        class_conditionals=np.array([[0.5, 0.5]]),
        prior=np.array([1.0]),
        tau_plus=1.0,
    )


def skewed_instance(seed: int = 0):
    """A (unit embedding table, mixture) pair whose class prior (0.5, 0.3,
    0.2) is not uniform, so the marginal is no scalar-tau+ split of each
    anchor's positive and negative distributions."""
    from contrastlab.worldmodel import DiscreteClassMixture

    mix = DiscreteClassMixture(
        points=np.eye(6),
        labels=np.array([0, 0, 1, 1, 2, 2]),
        class_conditionals=np.array([[0.6, 0.4, 0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.3, 0.7, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0, 0.5, 0.5]]),
        prior=np.array([0.5, 0.3, 0.2]),
        tau_plus=0.38,  # sum of squared priors: a second draw shares the class
    )
    return random_unit_rows(substream(seed), 6, 8), mix
