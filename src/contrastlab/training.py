"""Desk-scale training loop for the contrastive objectives.

The encoder is deliberately small (linear): what is under study is the
loss, and exact gradients matter more here than capacity.  ``TrainConfig``
is the schema of one run: the ``train`` command's per-run config keys are
its fields, with its defaults.  The optimizer is the adaptive-moment
method, at learning rate 0.001 by default.  The whole trajectory is
deterministic given the seed: data, batches and init all come from named
substreams.  The true-negative loss's pool of fresh negatives is a
dataset of its own, drawn by :func:`build_dataset`, with one view of each
identity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .autograd import LossSpec, loss_and_grad
from .encoder import ViewBatch, init_params
from .errors import BatchTooSmall, ConfigError, DivergenceDetected
from .geometry import unit_rows
from .rng import substream
from .worldmodel import SphereMixture, sample_classes, sample_views

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    Every field is an ``int``, ``float`` or ``str`` with a default, because
    the ``train`` config keys are built from these fields.  ``loss_kind``,
    ``tau_plus`` and ``seed`` are the swept ones: the command sets them per
    run from ``loss_kinds``, ``tau_plus`` and ``seeds``.

    ``anchor_mode`` selects what an anchor identity is.  In "class" mode a
    view is a fresh class-conditional sample, so two views of an anchor are
    exchangeable with any same-class sample.  In "instance" mode (sphere
    worlds only) each anchor is pinned to one base sample drawn at dataset
    build time and a view redraws conditional noise of scale ``view_noise``
    around it.
    """

    loss_kind: str = "debiased"  # biased | debiased | unbiased
    tau_plus: float = 0.1  # class prior the debiased loss corrects for
    temperature: float = 0.5
    m_positives: int = 1  # positive samples per anchor
    batch_size: int = 64
    epochs: int = 200
    learning_rate: float = 0.001
    seed: int = 0
    dataset_size: int = 512  # anchor identities
    embed_dim: int = 16
    anchor_mode: str = "class"  # class | instance
    view_noise: float = 0.0  # instance-mode augmentation scale
    tail_average: int = 0  # average the weights over the last k epochs

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.dataset_size < self.batch_size:
            raise ConfigError("dataset_size must be >= batch_size")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.learning_rate >= 0.0:  # NaN fails too
            raise ConfigError("learning_rate must be >= 0")
        if self.m_positives < 1:
            raise ConfigError("m_positives must be >= 1")
        if self.embed_dim < 2:
            raise ConfigError("embed_dim must be >= 2")
        if self.anchor_mode not in ("class", "instance"):
            raise ConfigError("anchor_mode must be class | instance")
        if self.anchor_mode == "instance" and not self.view_noise > 0.0:
            raise ConfigError("instance mode needs view_noise > 0")
        if not (0 <= self.tail_average <= self.epochs):
            raise ConfigError("tail_average must lie in [0, epochs]")
        self.loss_spec()  # rejects a bad loss_kind, tau_plus or temperature

    def loss_spec(self) -> LossSpec:
        return LossSpec(kind=self.loss_kind, tau_plus=self.tau_plus,
                        temperature=self.temperature)


@dataclass(frozen=True)
class TrainDataset:
    """Fixed anchor identities; views are redrawn per batch.

    ``base_points`` is present only in instance mode: one pinned sample per
    anchor, around which views redraw conditional noise.
    """

    world: object
    labels: np.ndarray
    base_points: np.ndarray | None = None
    view_noise: float = 0.0

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    wall_ms: float


def build_dataset(world, size: int, rng: np.random.Generator,
                  anchor_mode: str = "class", view_noise: float = 0.0) -> TrainDataset:
    labels = sample_classes(world, size, rng)
    if anchor_mode == "class":
        return TrainDataset(world=world, labels=labels)
    if anchor_mode != "instance":
        raise ConfigError("anchor_mode must be class | instance")
    if not isinstance(world, SphereMixture):
        raise ConfigError("instance mode is defined for sphere worlds only")
    base = sample_views(world, labels, rng)
    return TrainDataset(world=world, labels=labels, base_points=base,
                        view_noise=view_noise)


def _draw_views(dataset: TrainDataset, idx: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """One view of each anchor in ``idx``, an index array whose last axis is
    one batch; the views come back as an ``idx.shape + (F,)`` array.

    A sphere world's views are one normal block of the stream, the same
    numbers that a draw per batch and view would take.  A discrete world
    draws per class, so it draws one batch's views at a time.
    """
    if dataset.base_points is not None:
        base = dataset.base_points[idx]
        return unit_rows(base + dataset.view_noise * rng.standard_normal(base.shape))
    labels = dataset.labels[idx]
    if isinstance(dataset.world, SphereMixture):
        views = sample_views(dataset.world, labels.ravel(), rng)
    else:
        views = np.concatenate([sample_views(dataset.world, row, rng)
                                for row in labels.reshape(-1, labels.shape[-1])])
    return views.reshape(labels.shape + views.shape[-1:])


def make_batches(dataset: TrainDataset, batch_size: int, m_positives: int,
                 rng: np.random.Generator, negative_pool: int = 0) -> list[ViewBatch]:
    """One epoch of view-pair batches under a seeded permutation.

    Every batch carries two primary views plus (M-1) extra positive views
    per anchor; ``negative_pool`` additionally stacks one view each of that
    many freshly drawn, labeled identities for the true-negative loss.  A
    trailing partial batch is dropped, so batch_size == dataset size means
    exactly one batch per epoch.

    The stream is read in this order: the permutation, then per batch its
    M+1 views of B anchors and, with a pool, the pool's labels and views.
    Without a pool, a sphere world draws the whole epoch's views as one
    ``(n_batches, M+1, B, F)`` normal block; with one, each batch's views
    are one ``(M+1, B, F)`` block.  Either way the batches are byte for
    byte those of a draw per batch and view; a discrete world, which draws
    per class, still draws that way.
    """
    if dataset.size < batch_size:
        raise BatchTooSmall(f"dataset size {dataset.size} < batch size {batch_size}")
    perm = rng.permutation(dataset.size)
    n_batches = dataset.size // batch_size
    anchors = perm[:n_batches * batch_size].reshape(n_batches, batch_size)
    idx = np.broadcast_to(anchors[:, None, :], (n_batches, m_positives + 1, batch_size))
    if negative_pool:
        mode = "class" if dataset.base_points is None else "instance"
        draws = []
        for batch_idx in idx:
            views = _draw_views(dataset, batch_idx, rng)
            pool = build_dataset(dataset.world, negative_pool, rng, mode, dataset.view_noise)
            draws.append((views, pool.labels, _draw_views(pool, np.arange(negative_pool), rng)))
    else:
        # One epoch block, not a per-batch loop: the loop writes the same bytes, but
        # with glibc's default malloc settings `train --config configs/direction.txt
        # --set seeds=1` took 169,370 minor page faults with it, 26,839 with this block.
        draws = [(views, None, None) for views in _draw_views(dataset, idx, rng)]
    batches = []
    for (views, pool_labels, pool_views), batch_idx in zip(draws, anchors):
        features = views.reshape(-1, views.shape[-1])
        if pool_views is not None:
            features = np.concatenate([features, pool_views])
        batches.append(ViewBatch(features=features, batch_size=batch_size,
                                 m_positives=m_positives, labels=dataset.labels[batch_idx],
                                 neg_pool_labels=pool_labels))
    return batches


class _Optimizer:
    """Adaptive-moment updates on the encoder weight matrix."""

    def __init__(self, learning_rate: float, shape: tuple[int, ...]) -> None:
        self.lr = learning_rate
        self.momentum = np.zeros(shape)
        self.second = np.zeros(shape)
        self.t = 0

    def step(self, weights: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # adaptive-moment estimation with standard constants
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        self.momentum = b1 * self.momentum + (1.0 - b1) * grad
        self.second = b2 * self.second + (1.0 - b2) * grad ** 2
        m_hat = self.momentum / (1.0 - b1 ** self.t)
        v_hat = self.second / (1.0 - b2 ** self.t)
        return weights - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def train(config: TrainConfig, world) -> tuple[np.ndarray, list[EpochRecord]]:
    """Run the configured training and return the final weights plus the log.

    Substreams: (seed, 0) dataset, (seed, 1) parameter init, (seed, 2, epoch)
    batches, so the trajectory is bit-reproducible.  A non-finite step loss
    raises :class:`DivergenceDetected`.
    """
    dataset = build_dataset(world, config.dataset_size, substream(config.seed, 0),
                            anchor_mode=config.anchor_mode,
                            view_noise=config.view_noise)
    weights = init_params(substream(config.seed, 1), world.feature_dim, config.embed_dim)
    spec = config.loss_spec()
    opt = _Optimizer(config.learning_rate, weights.shape)
    # The true-negative trainer draws its negatives fresh from the world's
    # complement classes rather than reusing in-batch views.
    pool = 2 * (config.batch_size - 1) if config.loss_kind == "unbiased" else 0
    log: list[EpochRecord] = []
    tail_sum = np.zeros_like(weights)
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        batch_rng = substream(config.seed, 2, epoch)
        epoch_losses = []
        for batch in make_batches(dataset, config.batch_size, config.m_positives,
                                  batch_rng, negative_pool=pool):
            loss, grad = loss_and_grad(weights, batch, spec)
            if not np.isfinite(loss):
                raise DivergenceDetected(f"non-finite loss at epoch {epoch}")
            weights = opt.step(weights, grad)
            epoch_losses.append(loss)
        if config.epochs - epoch <= config.tail_average:
            tail_sum += weights
        wall_ms = (time.perf_counter() - tic) * 1000.0
        log.append(EpochRecord(epoch=epoch, loss=float(np.mean(epoch_losses)), wall_ms=wall_ms))
    if config.tail_average:
        weights = tail_sum / config.tail_average
    return weights, log


def checkpoint_payload(weights: np.ndarray, config_hash: str, meta: dict) -> dict:
    """Versioned record of the encoder weight matrix plus the config hash, as
    ``RunReport.json`` writes it and :func:`load_checkpoint` reads it."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "weights": weights.tolist(),
        "meta": meta,
    }


def load_checkpoint(path) -> tuple[np.ndarray, dict]:
    """A checkpoint's payload and its weights, checked as input from outside."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version} != {CHECKPOINT_VERSION}")
    try:
        weights = np.asarray(payload.get("weights"), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path} weights are not a numeric matrix") from exc
    if weights.ndim != 2 or weights.shape[0] < 2 or not np.all(np.isfinite(weights)):
        raise ConfigError(f"checkpoint {path} weights must be a finite d x m matrix, d >= 2")
    return weights, payload
