"""Held-out probe accuracy of a frozen encoder (scaled down for the unit suite)."""

import numpy as np

from contrastlab.experiments import direction_probe_accuracy
from contrastlab.training import TrainConfig, train
from contrastlab.worldmodel import preset_sphere

TINY = TrainConfig(epochs=4, dataset_size=64, batch_size=16, embed_dim=6,
                   anchor_mode="instance", view_noise=0.2, seed=6)


class TestDirectionRun:
    def test_replica_average_is_mean(self):
        world = preset_sphere("sphere-k10")
        params, _ = train(TINY, world)
        sizes = dict(fit_size=2048, test_size=8192)
        single = [direction_probe_accuracy(params, TINY.seed, world, replicas=1, **sizes)]
        multi = direction_probe_accuracy(params, TINY.seed, world, replicas=3, **sizes)
        assert abs(multi - np.mean(single)) < 0.2  # same scale, lower variance
