"""Training loop determinism and optimizer contracts."""

import json
import math

import numpy as np
import pytest

from contrastlab.autograd import loss_and_grad
from contrastlab.encoder import init_params
import contrastlab.training as training
from contrastlab.errors import BatchTooSmall, ConfigError, DivergenceDetected
from contrastlab.rng import substream
from contrastlab.training import (
    TrainConfig,
    build_dataset,
    checkpoint_payload,
    load_checkpoint,
    make_batches,
    train,
)
from contrastlab.geometry import unit_rows
from contrastlab.worldmodel import preset_mixture, preset_sphere, sample_views


def small_config(**overrides):
    base = dict(loss_kind="debiased", tau_plus=0.1, batch_size=8, epochs=3,
                dataset_size=32, embed_dim=4, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


class TestMakeBatches:
    def test_one_batch_when_size_matches(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 16, substream(1))
        batches = make_batches(dataset, 16, 1, substream(2))
        assert len(batches) == 1
        assert batches[0].features.shape == (32, world.feature_dim)

    def test_extra_positive_view_count(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 12, substream(1))
        batches = make_batches(dataset, 4, 2, substream(2))
        assert all(b.features.shape[0] == 3 * 4 for b in batches)

    def test_same_seed_identical_streams(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 24, substream(1))
        a = make_batches(dataset, 8, 2, substream(9))
        b = make_batches(dataset, 8, 2, substream(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_dataset_too_small(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 4, substream(1))
        with pytest.raises(BatchTooSmall):
            make_batches(dataset, 8, 1, substream(2))

    def test_discrete_world_batches(self):
        mix = preset_mixture("paper-uniform")
        dataset = build_dataset(mix, 16, substream(3))
        batches = make_batches(dataset, 8, 1, substream(4))
        assert batches[0].features.shape == (16, mix.feature_dim)

    def test_negative_pool_rows(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 12, substream(1))
        batches = make_batches(dataset, 4, 1, substream(2), negative_pool=6)
        assert batches[0].features.shape == (8 + 6, world.feature_dim)
        assert batches[0].neg_pool_labels.shape == (6,)

    def test_instance_mode_views_stay_near_base(self):
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 16, substream(5), anchor_mode="instance",
                                view_noise=0.05)
        batch = make_batches(dataset, 16, 1, substream(6))[0]
        # Anchors are permuted within the batch, but every view should hug
        # some pinned base sample carrying its own label.
        dots = batch.features[:16] @ dataset.base_points.T
        nearest = np.argmax(dots, axis=1)
        assert dots[np.arange(16), nearest].min() > 0.9
        np.testing.assert_array_equal(dataset.labels[nearest], batch.labels)


def _reference_view(dataset, idx, rng):
    if dataset.base_points is None:
        return sample_views(dataset.world, dataset.labels[idx], rng)
    base = dataset.base_points[idx]
    return unit_rows(base + dataset.view_noise * rng.standard_normal(base.shape))


def _reference_batches(dataset, batch_size, m_positives, rng, negative_pool=0):
    """An epoch drawn one batch and one view at a time, with each pool built
    by ``build_dataset``: the stream that ``make_batches`` must reproduce
    byte for byte, as (features, labels, pool labels) per batch."""
    perm = rng.permutation(dataset.size)
    batches = []
    for start in range(0, dataset.size - batch_size + 1, batch_size):
        idx = perm[start:start + batch_size]
        views = [_reference_view(dataset, idx, rng) for _ in range(m_positives + 1)]
        pool_labels = None
        if negative_pool:
            mode = "class" if dataset.base_points is None else "instance"
            pool = build_dataset(dataset.world, negative_pool, rng, mode, dataset.view_noise)
            views.append(_reference_view(pool, np.arange(negative_pool), rng))
            pool_labels = pool.labels
        batches.append((np.concatenate(views), dataset.labels[idx], pool_labels))
    return batches


class TestBatchStream:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("pool", [0, 5])
    @pytest.mark.parametrize("world_name,mode", [("sphere-k10", "class"),
                                                 ("sphere-k10", "instance"),
                                                 ("paper-uniform", "class")])
    def test_epoch_equals_the_per_batch_loop(self, world_name, mode, pool, m):
        # 22 identities in batches of 4: five batches and two left over.
        world = (preset_mixture(world_name) if world_name == "paper-uniform"
                 else preset_sphere(world_name))
        dataset = build_dataset(world, 22, substream(7, 0), anchor_mode=mode,
                                view_noise=0.2 if mode == "instance" else 0.0)
        got_rng, want_rng = substream(7, 2, 3), substream(7, 2, 3)
        got = make_batches(dataset, 4, m, got_rng, negative_pool=pool)
        want = _reference_batches(dataset, 4, m, want_rng, negative_pool=pool)
        assert len(got) == len(want) == 5
        for batch, (features, labels, pool_labels) in zip(got, want):
            assert batch.features.tobytes() == features.tobytes()
            assert batch.features.shape == features.shape
            assert batch.labels.tobytes() == labels.tobytes()
            if pool:
                assert batch.neg_pool_labels.tobytes() == pool_labels.tobytes()
            else:
                assert batch.neg_pool_labels is None
        # Both read the same length of the stream.
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        world = preset_sphere("sphere-k10")
        cfg = small_config(learning_rate=0.0)
        weights, _ = train(cfg, world)
        np.testing.assert_array_equal(
            weights, init_params(substream(cfg.seed, 1), world.feature_dim, cfg.embed_dim))

    def test_single_adam_step_oracle(self):
        world = preset_sphere("sphere-k10")
        cfg = small_config(epochs=1, batch_size=32, dataset_size=32, learning_rate=0.05)
        weights, _ = train(cfg, world)
        # Reassemble the single step by hand from the autograd module.  From
        # zero moments, the first step's bias-corrected moments are the
        # gradient and its square.
        init = init_params(substream(cfg.seed, 1), world.feature_dim, cfg.embed_dim)
        dataset = build_dataset(world, cfg.dataset_size, substream(cfg.seed, 0))
        batch = make_batches(dataset, 32, 1, substream(cfg.seed, 2, 0))[0]
        _, grad = loss_and_grad(init, batch, cfg.loss_spec())
        b1, b2 = 0.9, 0.999
        m_hat = (1.0 - b1) * grad / (1.0 - b1)
        v_hat = (1.0 - b2) * grad ** 2 / (1.0 - b2)
        expected = init - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_array_equal(weights, expected)

    def test_seed_determinism_bit_identical(self):
        world = preset_sphere("sphere-k10")
        p1, log1 = train(small_config(), world)
        p2, log2 = train(small_config(), world)
        np.testing.assert_array_equal(p1, p2)
        assert [r.loss for r in log1] == [r.loss for r in log2]

    def test_tau_zero_debiased_matches_biased_trajectory(self):
        world = preset_sphere("sphere-k10")
        # Unit embeddings keep every e^s at or above the exp floor, so at
        # tau+ = 0 the clamp never changes the denominator.
        p_deb, _ = train(small_config(loss_kind="debiased", tau_plus=0.0), world)
        p_bia, _ = train(small_config(loss_kind="biased", tau_plus=0.0), world)
        np.testing.assert_array_equal(p_deb, p_bia)

    def test_loss_decreases_on_preset(self):
        world = preset_sphere("sphere-k10")
        _, log = train(small_config(epochs=30, dataset_size=256, batch_size=64,
                                    embed_dim=16), world)
        assert log[-1].loss <= log[0].loss

    def test_adam_run(self):
        world = preset_sphere("sphere-k10")
        weights, _ = train(small_config(epochs=2), world)
        assert np.all(np.isfinite(weights))

    def test_tail_average_is_mean_of_final_epochs(self):
        # A shorter run's weights are a longer run's weights after that epoch.
        world = preset_sphere("sphere-k10")
        ends = [train(small_config(epochs=e), world)[0] for e in (1, 2, 3)]
        p_two, _ = train(small_config(epochs=3, tail_average=2), world)
        p_full, _ = train(small_config(epochs=3, tail_average=3), world)
        assert np.array_equal(p_two, (ends[1] + ends[2]) / 2)
        assert np.array_equal(p_full, (ends[0] + ends[1] + ends[2]) / 3)
        assert not np.array_equal(p_full, ends[2])

    def test_unbiased_trainer_uses_fresh_pool(self, monkeypatch):
        # Each true-negative step stacks 2(B-1) labeled pool rows below its
        # (M+1)B view rows; a debiased step's batch carries no pool.
        batches = []

        def spy(weights, batch, spec):
            batches.append(batch)
            return loss_and_grad(weights, batch, spec)

        monkeypatch.setattr(training, "loss_and_grad", spy)
        world = preset_sphere("sphere-k10")
        config = small_config(loss_kind="unbiased", tau_plus=0.0)
        train(config, world)
        b, views = config.batch_size, (config.m_positives + 1) * config.batch_size
        assert len(batches) == config.epochs * (config.dataset_size // b)
        for batch in batches:
            assert batch.neg_pool_labels.shape == (2 * (b - 1),)
            assert batch.features.shape == (views + 2 * (b - 1), world.feature_dim)
        batches.clear()
        train(small_config(), world)
        assert batches and all(batch.neg_pool_labels is None for batch in batches)

    def test_non_finite_loss_is_a_divergence(self, monkeypatch):
        monkeypatch.setattr(training, "loss_and_grad",
                            lambda weights, batch, spec: (math.nan, np.zeros_like(weights)))
        with pytest.raises(DivergenceDetected):
            train(small_config(), preset_sphere("sphere-k10"))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(batch_size=1)
        with pytest.raises(ConfigError):
            small_config(epochs=0)
        with pytest.raises(ConfigError):
            small_config(learning_rate=-1e-3)
        with pytest.raises(ConfigError, match="^dataset_size must be >= batch_size$"):
            small_config(dataset_size=7)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        world = preset_sphere("sphere-k10")
        weights, _ = train(small_config(), world)
        path = tmp_path / "ckpt.json"
        payload = checkpoint_payload(weights, "cafe" * 16, {"note": "test"})
        path.write_text(json.dumps(payload))
        loaded, payload = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, weights)
        assert payload["config_hash"] == "cafe" * 16
        assert payload["meta"]["note"] == "test"

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)
