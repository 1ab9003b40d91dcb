"""Desk-scale direction experiment: biased vs debiased vs true-negative.

The shipped preset trains a small linear encoder on a K = 10 sphere world
with instance-pinned anchors, whose views redraw noise around the pinned
sample and never resample the class (class_resample_prob = 0), then scores
each run by held-out linear-probe accuracy.  The expected
direction at this scale is ordering only (true-negative >= debiased >=
biased); magnitudes are not comparable to full-scale benchmarks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .encoder import EncoderParams, encoder_forward
from .evaluation import linear_probe, probe_accuracy
from .geometry import unit_rows
from .rng import substream
from .training import TrainConfig, run_tau_plus, train
from .worldmodel import preset_sphere, sample_classes, sample_views

DIRECTION_KINDS = ("unbiased", "debiased", "biased")

# Tuned so the bias direction is visible at desk scale: anchors are pinned
# instances, which gives the marginal-negative loss something to wrongly
# repel (views of other same-class instances), and the final parameters are
# a tail average so run-to-run trajectory noise does not drown the effect.
DIRECTION_PRESET = TrainConfig(
    loss_kind="debiased",
    tau_plus=0.1,
    temperature=0.5,
    batch_size=64,
    epochs=200,
    learning_rate=0.001,
    optimizer="adam",
    dataset_size=512,
    embed_dim=16,
    anchor_mode="instance",
    view_noise=0.2,
    class_resample_prob=0.0,
    tail_average=50,
)

EVAL_TEST_SIZE = 8192


def representations(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    z, _ = encoder_forward(params, features)
    return unit_rows(z)


def direction_probe_accuracy(params: EncoderParams, config: TrainConfig, world,
                             fit_size: int = 2048, replicas: int = 4,
                             test_size: int = EVAL_TEST_SIZE) -> float:
    """Held-out linear-probe accuracy of a frozen encoder.

    Each replica fits the probe on an independent labeled sample of the
    world and scores it on another.  Accuracy is averaged over ``replicas``
    independent (fit, test) sample pairs, which estimates the same
    population quantity with less sampling noise; the replica substreams
    depend only on the seed, so every loss kind is scored on identical
    evaluation data.
    """
    accs = []
    for rep in range(replicas):
        rng = substream(config.seed, 10, rep)
        fit_labels = sample_classes(world, fit_size, rng)
        fit_feats = sample_views(world, fit_labels, rng)
        probe = linear_probe(representations(params, fit_feats), fit_labels)
        rng = substream(config.seed, 11, rep)
        test_labels = sample_classes(world, test_size, rng)
        test_feats = sample_views(world, test_labels, rng)
        accs.append(probe_accuracy(probe.probe_weights,
                                   representations(params, test_feats), test_labels))
    return float(np.mean(accs))


def figure2_direction_run(seeds=(1, 2, 3, 4, 5), world=None,
                          config: TrainConfig = DIRECTION_PRESET,
                          kinds=DIRECTION_KINDS) -> dict[str, list[float]]:
    """Train every loss kind on every seed; return per-kind accuracy lists."""
    if world is None:
        world = preset_sphere("sphere-k10")
    results: dict[str, list[float]] = {kind: [] for kind in kinds}
    for kind in kinds:
        for seed in seeds:
            run_cfg = replace(config, loss_kind=kind,
                              tau_plus=run_tau_plus(kind, config.tau_plus), seed=seed)
            params, _ = train(run_cfg, world)
            results[kind].append(direction_probe_accuracy(params, run_cfg, world))
    return results
