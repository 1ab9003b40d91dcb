"""Discrete and continuous latent-class worlds."""

import numpy as np
import pytest
import scipy.stats

from contrastlab.errors import (
    ConfigError,
    DegenerateClass,
    InvalidTable,
    LabelMismatch,
    PriorMismatch,
)
from contrastlab.losses import LossSpec, batch_terms
from contrastlab.rng import substream
from contrastlab.training import build_dataset, make_batches
from conftest import single_class_mixture
from contrastlab.worldmodel import (
    DiscreteClassMixture,
    SphereMixture,
    load_mixture,
    marginal,
    mixture_text,
    negative_dist,
    positive_dist,
    preset_mixture,
    preset_sphere,
    random_mixture,
    sample_classes,
    sample_views,
)


def true_negative_batch(world, seed, batch_size=4, pool=6):
    """A two-view batch with a fresh labeled pool, and each role's negative
    columns in it under the true-negative loss.

    A role's loss moves with exactly its negatives and its partner, so its
    negative columns are where its similarity gradient is nonzero, less the
    partner column.
    """
    dataset = build_dataset(world, batch_size, substream(seed, 0))
    batch = make_batches(dataset, batch_size, 1, substream(seed, 1), negative_pool=pool)[0]
    neg_mask = batch_terms(batch.features, batch, LossSpec(kind="unbiased")).grad != 0.0
    roles = np.arange(2 * batch_size)
    assert neg_mask[roles, (roles + batch_size) % (2 * batch_size)].all()
    neg_mask[roles, (roles + batch_size) % (2 * batch_size)] = False
    return batch, neg_mask


class TestBuildDiscrete:
    def test_two_point_preset(self):
        mix = preset_mixture("two-point")
        np.testing.assert_allclose(marginal(mix), [0.5, 0.5])
        assert mix.tau_plus == 0.5
        assert mix.uniform_prior

    def test_paper_uniform_preset(self):
        mix = preset_mixture("paper-uniform")
        assert mix.n_classes == 10
        assert mix.tau_plus == pytest.approx(0.1)
        assert mix.uniform_prior
        np.testing.assert_allclose(mix.class_conditionals.sum(axis=1), 1.0, atol=1e-12)

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(InvalidTable):
            DiscreteClassMixture(points=np.eye(2), labels=[0, 1],
                                 class_conditionals=[[0.9, 0.0], [0.0, 1.0]],
                                 prior=[0.5, 0.5], tau_plus=0.5)

    def test_mass_outside_support_rejected(self):
        with pytest.raises(LabelMismatch):
            DiscreteClassMixture(points=np.eye(2), labels=[0, 1],
                                 class_conditionals=[[0.5, 0.5], [0.0, 1.0]],
                                 prior=[0.5, 0.5], tau_plus=0.5)

    def test_bad_prior_rejected(self):
        with pytest.raises(PriorMismatch):
            DiscreteClassMixture(points=np.eye(2), labels=[0, 1],
                                 class_conditionals=np.eye(2),
                                 prior=[0.6, 0.5], tau_plus=0.5)

    @pytest.mark.parametrize("field,error", [("points", InvalidTable),
                                             ("class_conditionals", InvalidTable),
                                             ("prior", PriorMismatch)])
    def test_nan_rejected(self, field, error):
        # NaN fails every comparison, so a range check alone lets it through.
        kwargs = dict(points=np.eye(2), labels=[0, 1], class_conditionals=np.eye(2),
                      prior=np.array([0.5, 0.5]), tau_plus=0.5)
        kwargs[field] = kwargs[field].copy()
        kwargs[field].flat[0] = np.nan
        with pytest.raises(error):
            DiscreteClassMixture(**kwargs)

    def test_uniform_prior_pins_tau(self):
        with pytest.raises(PriorMismatch):
            DiscreteClassMixture(points=np.eye(2), labels=[0, 1],
                                 class_conditionals=np.eye(2),
                                 prior=[0.5, 0.5], tau_plus=0.3)

    @pytest.mark.parametrize("k", [2, 3])
    def test_uniform_prior_tau_within_dist_tol(self, k):
        # tau+ is refused by its own rule, not blamed on the table.
        table = dict(points=np.eye(k), labels=np.arange(k), class_conditionals=np.eye(k),
                     prior=np.full(k, 1.0 / k))
        assert DiscreteClassMixture(**table, tau_plus=1.0 / k + 1e-12).uniform_prior
        with pytest.raises(PriorMismatch, match="requires tau_plus = 1/K"):
            DiscreteClassMixture(**table, tau_plus=1.0 / k + 5e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_mixture("no-such-preset")

    def test_nonuniform_prior_allowed_but_flagged(self):
        mix = DiscreteClassMixture(points=np.eye(3), labels=[0, 1, 2],
                                   class_conditionals=np.eye(3),
                                   prior=[0.5, 0.25, 0.25], tau_plus=0.25)
        assert not mix.uniform_prior


class TestBuildSphere:
    @pytest.mark.parametrize("field,error", [("class_means", InvalidTable),
                                             ("prior", PriorMismatch)])
    def test_nan_rejected(self, field, error):
        kwargs = dict(class_means=np.eye(2), noise_scale=0.1, prior=np.array([0.5, 0.5]))
        kwargs[field] = kwargs[field].copy()
        kwargs[field].flat[0] = np.nan
        with pytest.raises(error):
            SphereMixture(**kwargs)


class TestDistributions:
    def test_two_point_marginal(self):
        mix = preset_mixture("two-point")
        np.testing.assert_allclose(marginal(mix), [0.5, 0.5], atol=0)

    def test_two_point_conditionals(self):
        mix = preset_mixture("two-point")
        np.testing.assert_array_equal(positive_dist(mix, 0), [1.0, 0.0])
        np.testing.assert_array_equal(negative_dist(mix, 0), [0.0, 1.0])

    def test_single_class_marginal_is_conditional(self):
        mix = single_class_mixture()
        np.testing.assert_allclose(marginal(mix), [0.5, 0.5])

    def test_single_class_negative_dist_degenerate(self):
        with pytest.raises(DegenerateClass):
            negative_dist(single_class_mixture(), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_decomposition_identity(self, seed):
        # marginal = tau+ * positive + tau- * negative at every anchor, 1e-12.
        gen = substream(900 + seed)
        mix = random_mixture(gen, int(gen.integers(4, 12)), int(gen.integers(2, 5)))
        marg = marginal(mix)
        assert marg.sum() == pytest.approx(1.0, abs=1e-12)
        for a in range(mix.n_points):
            recon = mix.tau_plus * positive_dist(mix, a) + mix.tau_minus * negative_dist(mix, a)
            np.testing.assert_allclose(recon, marg, atol=1e-12)
            assert positive_dist(mix, a).sum() == pytest.approx(1.0, abs=1e-12)
            assert negative_dist(mix, a).sum() == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_two_point_true_negatives_deterministic(self):
        # In the two-point world every true negative of a point is the other point.
        mix = preset_mixture("two-point")
        batch, neg_mask = true_negative_batch(mix, 1)
        for r, label in enumerate(batch.labels[np.arange(8) % 4]):
            negatives = batch.features[neg_mask[r]]
            assert negatives.shape[0] > 0
            np.testing.assert_array_equal(negatives, np.tile(mix.points[1 - label], (len(negatives), 1)))

    def test_biased_same_class_fraction(self):
        # Binomial concentration oracle: a marginal draw shares a given
        # class with frequency within 3 sigma of tau+.
        mix = preset_mixture("two-point")
        n = 10000
        labels = sample_classes(mix, n, substream(7))
        same = int((labels == 0).sum())
        sigma = np.sqrt(n * 0.5 * 0.5)
        assert abs(same - n * mix.tau_plus) <= 3 * sigma

    def test_true_negatives_single_class_errors(self):
        with pytest.raises(DegenerateClass):
            true_negative_batch(single_class_mixture(), 0)

    def test_positives_share_anchor_class(self):
        mix = preset_mixture("paper-uniform")
        dataset = build_dataset(mix, 12, substream(0))
        for seed in range(5):
            batch = make_batches(dataset, 4, 4, substream(seed))[0]
            views = batch.features.reshape(5, 4, mix.feature_dim)
            for i, label in enumerate(batch.labels):
                for view in views[:, i]:
                    point = np.flatnonzero((mix.points == view).all(axis=1))
                    assert mix.labels[point[0]] == label

    def test_true_negative_classes_differ(self):
        mix = preset_mixture("paper-uniform")
        batch, neg_mask = true_negative_batch(mix, 11, batch_size=8, pool=50)
        anchor = batch.labels[np.arange(16) % 8]
        pool = neg_mask[:, 16:]
        np.testing.assert_array_equal(pool, anchor[:, None] != batch.neg_pool_labels[None, :])
        assert not neg_mask[:, :16].any()

    def test_seed_determinism(self):
        mix = preset_mixture("paper-uniform")
        draws = []
        for _ in range(2):
            rng = substream(42)
            labels = sample_classes(mix, 6, rng)
            draws.append((labels, sample_views(mix, labels, rng)))
        np.testing.assert_array_equal(draws[0][0], draws[1][0])
        np.testing.assert_array_equal(draws[0][1], draws[1][1])

    def test_chi_square_frequency_smoke(self):
        # 1e5 draws from one conditional match the table at p > 0.001.
        mix = preset_mixture("paper-uniform")
        rng = substream(5)
        labels = np.zeros(100000, dtype=np.intp)
        views = sample_views(mix, labels, rng)
        row = mix.class_conditionals[0]
        support = np.flatnonzero(row)
        counts = np.array([(views == mix.points[i]).all(axis=1).sum() for i in support])
        chi2 = ((counts - 100000 * row[support]) ** 2 / (100000 * row[support])).sum()
        assert scipy.stats.chi2.sf(chi2, df=support.size - 1) > 0.001

    def test_sphere_sampling_shapes_and_norms(self):
        world = preset_sphere("sphere-k10")
        rng = substream(9)
        labels = sample_classes(world, 128, rng)
        views = sample_views(world, labels, rng)
        assert views.shape == (128, world.feature_dim)
        np.testing.assert_allclose(np.linalg.norm(views, axis=1), 1.0, atol=1e-12)

    def test_sphere_triple_modes(self):
        # A sphere batch stacks 2 + (M - 1) views per anchor, then the pool.
        world = preset_sphere("sphere-k10")
        dataset = build_dataset(world, 4, substream(2, 0))
        batch = make_batches(dataset, 4, 3, substream(2, 1), negative_pool=7)[0]
        assert batch.features.shape == (4 * 4 + 7, world.feature_dim)
        np.testing.assert_allclose(np.linalg.norm(batch.features, axis=1), 1.0, atol=1e-12)


class TestMixtureFile:
    def test_roundtrip(self, tmp_path):
        mix = random_mixture(substream(31), 7, 3)
        path = tmp_path / "mixture.txt"
        path.write_text(mixture_text(mix))
        loaded = load_mixture(path)
        np.testing.assert_array_equal(loaded.points, mix.points)
        np.testing.assert_array_equal(loaded.labels, mix.labels)
        np.testing.assert_array_equal(loaded.class_conditionals, mix.class_conditionals)
        np.testing.assert_array_equal(loaded.prior, mix.prior)
        assert loaded.tau_plus == mix.tau_plus

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            load_mixture(path)

    def test_version_mismatch_rejected(self, tmp_path):
        mix = preset_mixture("two-point")
        path = tmp_path / "mixture.txt"
        path.write_text(mixture_text(mix).replace("format_version = 1", "format_version = 99"))
        with pytest.raises(ConfigError):
            load_mixture(path)
