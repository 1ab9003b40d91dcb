"""Direction-experiment harness (scaled down for the unit suite)."""

from dataclasses import replace

import numpy as np

from contrastlab.experiments import (
    DIRECTION_PRESET,
    direction_probe_accuracy,
    figure2_direction_run,
)
from contrastlab.training import train
from contrastlab.worldmodel import preset_sphere

TINY = replace(DIRECTION_PRESET, epochs=4, dataset_size=64, batch_size=16,
               embed_dim=6, tail_average=0)


class TestDirectionRun:
    def test_returns_per_kind_accuracies(self):
        res = figure2_direction_run(seeds=(1, 2), config=TINY)
        assert set(res) == {"unbiased", "debiased", "biased"}
        for accs in res.values():
            assert len(accs) == 2
            assert all(0.0 <= a <= 1.0 for a in accs)

    def test_deterministic(self):
        a = figure2_direction_run(seeds=(3,), config=TINY, kinds=("debiased",))
        b = figure2_direction_run(seeds=(3,), config=TINY, kinds=("debiased",))
        assert a == b

    def test_replica_average_is_mean(self):
        world = preset_sphere("sphere-k10")
        cfg = replace(TINY, seed=6)
        params, _ = train(cfg, world)
        single = [direction_probe_accuracy(params, cfg, world, replicas=1)]
        multi = direction_probe_accuracy(params, cfg, world, replicas=3)
        assert abs(multi - np.mean(single)) < 0.2  # same scale, lower variance
