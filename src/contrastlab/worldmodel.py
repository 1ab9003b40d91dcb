"""Synthetic latent-class worlds.

Two flavors share one sampling surface (classes ~ prior, views ~ class
conditional):

* :class:`DiscreteClassMixture` -- a finite set of feature points with
  deterministic labels h(x) and row-stochastic class conditionals, so every
  expectation is exactly enumerable.  This is the substrate for all bound
  certificates.
* :class:`SphereMixture` -- noisy unit vectors around K class means, used
  for end-to-end training runs where "augmentation" means redrawing the
  class-conditional noise.

The anchor-conditional positive distribution is the anchor class's
conditional, and the negative distribution is the prior-weighted mixture of
all other classes' conditionals.  For a uniform prior with tau_plus = 1/K
the marginal decomposes exactly as tau_plus * positive + tau_minus *
negative for every anchor; mixtures with non-uniform priors are allowed but
flagged, because that scalar decomposition (and the theory built on it)
only holds in the uniform case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateClass,
    InvalidTable,
    LabelMismatch,
    PriorMismatch,
)
from .geometry import unit_rows
from .rng import substream

DIST_TOL = 1e-12

MIXTURE_FILE_VERSION = 1

# Seed that pins the shipped presets; bump only together with the file version.
_PRESET_SEED = 20240911


@dataclass(frozen=True)
class DiscreteClassMixture:
    """Finite latent-class world over S feature points and K classes.

    Fields
    ------
    points:             (S, m) feature vectors fed to encoders.
    labels:             (S,) class of each point; supports are class-disjoint
                        so the labeling is a function.
    class_conditionals: (K, S) row-stochastic table; row c puts mass only on
                        points labeled c.
    prior:              (K,) class probabilities.
    tau_plus:           probability that an independent draw shares the
                        anchor's class; must lie within DIST_TOL of 1/K when
                        the prior is uniform (the only case where the
                        scalar marginal decomposition is exact).
    """

    points: np.ndarray
    labels: np.ndarray
    class_conditionals: np.ndarray
    prior: np.ndarray
    tau_plus: float

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.intp)
        table = np.asarray(self.class_conditionals, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        for name, arr in (("points", points), ("labels", labels),
                          ("class_conditionals", table), ("prior", prior)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

        if points.ndim != 2:
            raise InvalidTable("points must be a (S, m) array")
        if not np.all(np.isfinite(points)):
            raise InvalidTable("points must be finite")
        s_points = points.shape[0]
        k = prior.shape[0]
        if labels.shape != (s_points,):
            raise InvalidTable("labels must have one entry per point")
        if table.shape != (k, s_points):
            raise InvalidTable("class_conditionals must be (K, S)")
        if s_points < k:
            raise InvalidTable("need at least one point per class (S >= K)")
        if labels.min() < 0 or labels.max() >= k:
            raise LabelMismatch("labels must lie in 0..K-1")

        # Range checks are written so that NaN, which fails every comparison,
        # fails them; +inf fails the sum checks.
        if not np.all(table >= 0.0):
            raise InvalidTable("conditional probabilities must be nonnegative numbers")
        rowsums = table.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > DIST_TOL):
            raise InvalidTable(f"conditional rows must sum to 1, got {rowsums!r}")
        # Mass outside a class's support would make the labeling ambiguous.
        support = labels[None, :] == np.arange(k)[:, None]
        if np.any((table > 0.0) & ~support):
            raise LabelMismatch("conditional mass outside the class support")
        if np.any((table * support).sum(axis=1) <= 0.0):
            raise LabelMismatch("every class needs at least one support point")

        if not (np.all(prior >= 0.0) and abs(prior.sum() - 1.0) <= DIST_TOL):
            raise PriorMismatch("prior must be a probability vector")
        uniform = bool(np.max(np.abs(prior - 1.0 / k)) <= DIST_TOL)
        object.__setattr__(self, "_uniform_prior", uniform)
        if not (0.0 < self.tau_plus <= 1.0) or (k >= 2 and self.tau_plus >= 1.0):
            raise PriorMismatch("tau_plus must lie in (0, 1) for K >= 2")
        # At tau+ = 1/K the decomposition tau+ p+ + tau- p- = p is an identity
        # for any table that passed the checks above, so tau+ is all there is
        # left to check.
        if uniform and abs(self.tau_plus - 1.0 / k) > DIST_TOL:
            raise PriorMismatch(
                f"uniform prior requires tau_plus = 1/K = {1.0 / k!r}, got {self.tau_plus!r}"
            )

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_classes(self) -> int:
        return self.prior.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.points.shape[1]

    @property
    def tau_minus(self) -> float:
        return 1.0 - self.tau_plus

    @property
    def uniform_prior(self) -> bool:
        return self._uniform_prior


@dataclass(frozen=True)
class SphereMixture:
    """Continuous world: class c emits normalize(mean_c + noise_scale * z)."""

    class_means: np.ndarray
    noise_scale: float
    prior: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.class_means, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "prior", prior)
        means.setflags(write=False)
        prior.setflags(write=False)
        if means.ndim != 2 or means.shape[0] != prior.shape[0]:
            raise InvalidTable("class_means must be (K, m) matching the prior")
        # As in DiscreteClassMixture, NaN must fail each range check.
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-9):
            raise InvalidTable("class means must be finite and unit-norm")
        if not self.noise_scale > 0.0:
            raise InvalidTable("noise_scale must be positive")
        if not (np.all(prior >= 0.0) and abs(prior.sum() - 1.0) <= DIST_TOL):
            raise PriorMismatch("prior must be a probability vector")

    @property
    def n_classes(self) -> int:
        return self.prior.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.class_means.shape[1]


def preset_mixture(name: str) -> DiscreteClassMixture:
    """Named, fully deterministic mixtures addressable from the CLI."""
    if name == "two-point":
        return DiscreteClassMixture(
            points=np.array([[1.0, 0.0], [0.0, 1.0]]),
            labels=np.array([0, 1]),
            class_conditionals=np.array([[1.0, 0.0], [0.0, 1.0]]),
            prior=np.array([0.5, 0.5]),
            tau_plus=0.5,
        )
    if name == "paper-uniform":
        # K = 10 classes, two support points each, uniform prior, tau_plus = 0.1.
        k, per_class, m = 10, 2, 8
        rng = substream(_PRESET_SEED, 1)
        s_points = k * per_class
        labels = np.repeat(np.arange(k), per_class)
        points = rng.standard_normal((s_points, m))
        table = np.zeros((k, s_points))
        for c in range(k):
            table[c, labels == c] = (0.6, 0.4)
        return DiscreteClassMixture(
            points=points,
            labels=labels,
            class_conditionals=table,
            prior=np.full(k, 1.0 / k),
            tau_plus=1.0 / k,
        )
    raise ConfigError(f"unknown mixture preset {name!r}")


def preset_sphere(name: str) -> SphereMixture:
    """Named continuous worlds for training experiments."""
    if name == "sphere-k10":
        k, m = 10, 32
        rng = substream(_PRESET_SEED, 2)
        means = unit_rows(rng.standard_normal((k, m)))
        return SphereMixture(class_means=means, noise_scale=0.35, prior=np.full(k, 1.0 / k))
    raise ConfigError(f"unknown sphere preset {name!r}")


def random_mixture(rng: np.random.Generator, n_points: int, n_classes: int,
                   feature_dim: int = 4) -> DiscreteClassMixture:
    """Random uniform-prior mixture with class-disjoint supports.

    The first K points get labels 0..K-1 so every class has support; the
    remaining labels are drawn uniformly.  Within-class conditionals are
    Dirichlet(1).
    """
    if n_points < n_classes:
        raise InvalidTable("need n_points >= n_classes")
    labels = np.concatenate([
        np.arange(n_classes),
        rng.integers(0, n_classes, size=n_points - n_classes),
    ])
    labels = labels[rng.permutation(n_points)]
    table = np.zeros((n_classes, n_points))
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        table[c, idx] = rng.dirichlet(np.ones(idx.size))
    return DiscreteClassMixture(
        points=rng.standard_normal((n_points, feature_dim)),
        labels=labels,
        class_conditionals=table,
        prior=np.full(n_classes, 1.0 / n_classes),
        tau_plus=1.0 / n_classes,
    )


def marginal(mix: DiscreteClassMixture) -> np.ndarray:
    """Point marginal p(x') = sum_c prior(c) p(x'|c); sums to 1."""
    return mix.prior @ mix.class_conditionals


def positive_dist(mix: DiscreteClassMixture, anchor_index: int) -> np.ndarray:
    """Distribution of positives for the anchor: its own class conditional."""
    return mix.class_conditionals[mix.labels[anchor_index]].copy()


def negative_dist(mix: DiscreteClassMixture, anchor_index: int) -> np.ndarray:
    """Distribution of true negatives: prior-weighted complement classes."""
    c = mix.labels[anchor_index]
    rest = 1.0 - mix.prior[c]
    if mix.n_classes < 2 or rest <= 0.0:
        raise DegenerateClass("no complement class mass; true negatives undefined")
    weights = mix.prior.copy()
    weights[c] = 0.0
    return (weights / rest) @ mix.class_conditionals


def sample_classes(world, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n class labels from the world's prior."""
    return rng.choice(world.prior.shape[0], size=n, p=world.prior)


def sample_views(world, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One feature view per label: a fresh class-conditional draw.

    This is the synthetic stand-in for data augmentation -- the latent
    identity (class) is kept, the conditional noise is redrawn.  Classes are
    processed in sorted order so the draw sequence is seed-deterministic.
    """
    labels = np.asarray(labels)
    if isinstance(world, SphereMixture):
        noise = rng.standard_normal((labels.shape[0], world.feature_dim))
        return unit_rows(world.class_means[labels] + world.noise_scale * noise)
    out = np.empty((labels.shape[0], world.feature_dim))
    for c in np.unique(labels):
        mask = labels == c
        idx = rng.choice(world.n_points, size=int(mask.sum()), p=world.class_conditionals[c])
        out[mask] = world.points[idx]
    return out


def mixture_text(mix: DiscreteClassMixture) -> str:
    """Text of the flat ``key = value`` mixture definition file, as ``gen-data``
    writes it through ``RunReport.write`` and :func:`load_mixture` reads it."""
    def row(vec) -> str:
        return " ".join(repr(float(x)) for x in vec)

    def rows(matrix) -> str:
        return " ; ".join(row(r) for r in matrix)

    lines = [
        f"format_version = {MIXTURE_FILE_VERSION}",
        f"tau_plus = {mix.tau_plus!r}",
        "labels = " + " ".join(str(int(v)) for v in mix.labels),
        "prior = " + row(mix.prior),
        "points = " + rows(mix.points),
        "conditionals = " + rows(mix.class_conditionals),
    ]
    return "\n".join(lines) + "\n"


def load_mixture(path) -> DiscreteClassMixture:
    """Parse a mixture definition file, as :func:`mixture_text` formats it."""
    # Imported here: config imports training, which imports this module.
    from .config import load_config_file

    entries = load_config_file(path)
    known = {"format_version", "tau_plus", "labels", "prior", "points", "conditionals"}
    unknown = set(entries) - known
    if unknown:
        raise ConfigError(f"unknown mixture file keys: {sorted(unknown)}")
    missing = {"labels", "prior", "points", "conditionals"} - set(entries)
    if missing:
        raise ConfigError(f"mixture file missing keys: {sorted(missing)}")
    version = int(entries.get("format_version", MIXTURE_FILE_VERSION))
    if version != MIXTURE_FILE_VERSION:
        raise ConfigError(f"mixture file version {version} != {MIXTURE_FILE_VERSION}")

    def parse_rows(text: str) -> np.ndarray:
        return np.array([[float(x) for x in part.split()] for part in text.split(";")])

    prior = np.array([float(x) for x in entries["prior"].split()])
    if prior.size == 0:
        raise ConfigError("mixture file key 'prior' lists no class")
    tau_plus = float(entries.get("tau_plus", 1.0 / prior.shape[0]))
    return DiscreteClassMixture(
        points=parse_rows(entries["points"]),
        labels=np.array([int(x) for x in entries["labels"].split()]),
        class_conditionals=parse_rows(entries["conditionals"]),
        prior=prior,
        tau_plus=tau_plus,
    )
