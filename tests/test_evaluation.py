"""Linear probe, mean classifier, and the supervised bound chain."""

import math

import numpy as np
import pytest

from contrastlab import evaluation
from contrastlab.errors import BoundPreconditionViolated, PriorMismatch, SingleClassData
from contrastlab.evaluation import (
    lemma4_chain_check,
    lemma4_terms,
    linear_probe,
    mean_classifier_loss,
    mean_classifier_weights,
    probe_accuracy,
)
from contrastlab.geometry import unit_rows
from contrastlab.losses import softmax_cross_entropy
from contrastlab.rng import substream
from contrastlab.worldmodel import marginal, random_mixture

from conftest import random_instance, random_unit_rows, skewed_instance


def mean_classifier_data_loss(reps, labels):
    """Mean softmax loss on (reps, labels) of the classifier whose rows are
    the class means: the probe's warm start."""
    weights = mean_classifier_weights(reps, labels, int(labels.max()) + 1,
                                      np.ones(labels.shape[0]))
    ce, _ = softmax_cross_entropy(reps @ weights.T, labels)
    return float(ce.mean())


class TestLinearProbe:
    def test_linearly_separable_reaches_full_accuracy(self):
        rng = substream(1)
        labels = rng.integers(0, 3, size=120)
        reps = np.eye(3)[labels] + 0.05 * rng.standard_normal((120, 3))
        result = linear_probe(reps, labels)
        assert result.accuracy == 1.0

    def test_random_labels_near_chance(self):
        # Permutation null: accuracy within 3 sigma of 1/K plus the small
        # overfitting margin of a K*d-parameter convex model.
        rng = substream(2)
        n, k, d = 3000, 4, 6
        labels = rng.integers(0, k, size=n)
        reps = random_unit_rows(rng, n, d)
        result = linear_probe(reps, labels)
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert result.accuracy <= 1 / k + 3 * sigma + k * d / n

    def test_constant_reps_loss_log_k(self):
        labels = np.arange(12) % 3
        reps = np.tile([0.5, 0.5], (12, 1))
        result = linear_probe(reps, labels)
        assert result.softmax_loss == pytest.approx(math.log(3), abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            linear_probe(np.eye(3), np.zeros(3, dtype=int))

    def test_probe_beats_mean_classifier(self):
        for seed in range(10):
            rng = substream(100 + seed)
            labels = rng.integers(0, 3, size=60)
            reps = random_unit_rows(rng, 60, 5)
            probe = linear_probe(reps, labels)
            mc = mean_classifier_data_loss(reps, labels)
            assert probe.softmax_loss <= mc + 1e-9

    def test_restart_from_mean_classifier_never_worse(self):
        rng = substream(7)
        labels = rng.integers(0, 3, size=50)
        reps = random_unit_rows(rng, 50, 4)
        first = linear_probe(reps, labels)
        start_loss = mean_classifier_data_loss(reps, labels)
        assert first.softmax_loss <= start_loss + 1e-12

    def test_probe_gradient_norm_small(self):
        rng = substream(8)
        labels = rng.integers(0, 4, size=80)
        reps = random_unit_rows(rng, 80, 6)
        result = linear_probe(reps, labels)
        assert result.grad_norm <= 1e-8

    def test_probe_accuracy_helper(self):
        weights = np.eye(2)
        reps = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 0.5]])
        assert probe_accuracy(weights, reps, np.array([0, 1, 0])) == 1.0


    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, "zeros"])
    def test_bad_sample_weights_refused(self, bad):
        rng = substream(3)
        labels = np.arange(20) % 2
        reps = random_unit_rows(rng, 20, 3)
        weights = np.zeros(20) if bad == "zeros" else np.r_[bad, np.ones(19)]
        with pytest.raises(ValueError, match="sample_weights"):
            linear_probe(reps, labels, sample_weights=weights)


class TestMeanClassifierConsistency:
    def test_single_source_of_truth(self):
        # The evaluation module re-exports the losses-module implementation.
        from contrastlab import losses

        assert mean_classifier_loss is losses.mean_classifier_loss
        assert mean_classifier_weights is losses.mean_classifier_weights


class TestChainCheck:
    def test_constant_embedding_tightness(self):
        # K classes, N = K-1: both sides equal log K.
        mix = random_mixture(substream(3), 8, 4)
        emb = np.tile([1.0, 0.0, 0.0], (8, 1))
        cert = lemma4_chain_check(lemma4_terms(emb, mix, True, (3,)), 3)
        assert cert.passed
        assert cert.lhs == pytest.approx(math.log(4), abs=1e-12)
        assert cert.rhs == pytest.approx(math.log(4), abs=1e-12)

    def test_precondition_violation(self):
        mix = random_mixture(substream(4), 8, 4)
        emb = random_unit_rows(substream(5), 8, 6)
        with pytest.raises(BoundPreconditionViolated):
            lemma4_terms(emb, mix, True, (2,))

    def test_randomized_chain_holds(self):
        for seed in range(30):
            gen = substream(500 + seed)
            k = int(gen.integers(2, 6))
            mix = random_mixture(gen, max(6, k), k)
            emb = random_unit_rows(gen, mix.n_points, 8)
            n_values = (k - 1, 2 * k, 4 * k)
            terms = lemma4_terms(emb, mix, False, n_values)
            for n_neg in n_values:
                cert = lemma4_chain_check(terms, n_neg)
                assert cert.passed, (seed, n_neg, cert.lhs, cert.rhs)

    def test_probe_recorded_as_approximate(self):
        emb, mix = random_instance(6, s_points=8, k_classes=3, embed_dim=6)
        cert = lemma4_chain_check(lemma4_terms(emb, mix, True, (4,)), 4)
        assert "supervised_probe_loss" in cert.meta
        assert cert.meta["supervised_probe_loss"] <= cert.meta["mean_classifier_loss"] + 1e-9
        assert "approximate" in cert.meta["supervised_probe_loss_note"]

    def test_subtask_losses_match_reference_sum(self):
        # K = 5: lemma4 records three 3-class sub-tasks.  Each is the mean
        # classifier's cross entropy over the task's classes, with anchors
        # drawn from the marginal conditioned on membership.
        mix = random_mixture(substream(7), 12, 5)
        emb = random_unit_rows(substream(8), 12, 4)
        cert = lemma4_chain_check(lemma4_terms(emb, mix, False, (4,)), 4)
        subtasks = cert.meta["subtask_mean_classifier_losses"]
        assert len(subtasks) == 3
        marg = marginal(mix)
        scattered = False
        for key, got in subtasks.items():
            classes = [int(c) for c in key.split(",")]
            points = [x for x in range(mix.n_points) if mix.labels[x] in classes]
            scattered |= points != list(range(points[0], points[-1] + 1))
            means = {c: sum(mix.class_conditionals[c, x] * emb[x] for x in points)
                     for c in classes}
            mass = sum(marg[x] for x in points)
            expect = 0.0
            for x in points:
                logits = {c: float(emb[x] @ means[c]) for c in classes}
                log_norm = math.log(sum(math.exp(v) for v in logits.values()))
                expect += marg[x] / mass * (log_norm - logits[int(mix.labels[x])])
            assert got == pytest.approx(expect, rel=1e-12), key
        assert scattered  # some task's points are not one contiguous index block

    @staticmethod
    def fail_on_any_term(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a term was built")

        for builder in ("mean_classifier_loss", "_mean_classifier_ce", "linear_probe",
                        "asymptotic_debiased_exact"):
            monkeypatch.setattr(evaluation, builder, fail)

    def test_non_uniform_prior_refused_before_any_term(self, monkeypatch):
        # Under this prior the rhs (1.34641 at N = 4) is not the asymptotic
        # true-negative loss (1.36928), so the chain is not checked at all.
        emb, mix = skewed_instance(3)
        self.fail_on_any_term(monkeypatch)
        with pytest.raises(PriorMismatch, match="uniform class prior"):
            lemma4_terms(emb, mix, True, (4,))

    def test_n_below_k_minus_1_refused_before_any_term(self, monkeypatch):
        mix = random_mixture(substream(4), 8, 4)
        emb = random_unit_rows(substream(5), 8, 6)
        self.fail_on_any_term(monkeypatch)
        with pytest.raises(BoundPreconditionViolated, match=r"N >= K-1 = 3, got 2"):
            lemma4_terms(emb, mix, True, (5, 2, 3))

    def test_certificate_records_prior_shape(self):
        emb, mix = random_instance(9, s_points=8, k_classes=4, embed_dim=6)
        cert = lemma4_chain_check(lemma4_terms(emb, mix, False, (5,)), 5)
        assert cert.meta["prior_uniform"] is True
        assert cert.check == "lemma4"

    @pytest.mark.parametrize("include_probe", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_shared_terms_give_the_same_record_at_every_n(self, k, include_probe):
        mix = random_mixture(substream(11, k), 10, k)
        emb = random_unit_rows(substream(12, k), 10, 6)
        n_values = range(k - 1, 4 * k + 1)
        terms = lemma4_terms(emb, mix, include_probe, n_values)
        records = []
        for n_neg in n_values:
            shared = lemma4_chain_check(terms, n_neg).to_record()
            alone = lemma4_terms(emb, mix, include_probe, (n_neg,))
            assert shared == lemma4_chain_check(alone, n_neg).to_record()
            records.append(shared)
        assert ("subtask_mean_classifier_losses" in records[0]["meta"]) == (k > 3)
        assert ("supervised_probe_loss" in records[0]["meta"]) == include_probe
        # No record shares its meta, or a dict nested in it, with another
        # record or with the terms.
        dicts = [terms.subtasks] + [d for rec in records for d in
                                    (rec["meta"], *(v for v in rec["meta"].values()
                                                    if isinstance(v, dict)))]
        assert len({id(d) for d in dicts}) == len(dicts)

    def test_check_at_an_n_the_terms_lack_names_the_held_n(self):
        emb, mix = random_instance(15, k_classes=3)
        terms = lemma4_terms(emb, mix, False, (2, 5, 3))
        with pytest.raises(ValueError, match=r"terms hold N in \[2, 3, 5\], not N = 4"):
            lemma4_chain_check(terms, 4)

    def test_one_similarity_pass_serves_every_n(self, monkeypatch):
        from contrastlab import losses

        calls = []
        real = losses._shifted_exps
        monkeypatch.setattr(losses, "_shifted_exps",
                            lambda *args: calls.append(args) or real(*args))
        mix = random_mixture(substream(16), 10, 5)
        emb = random_unit_rows(substream(17), 10, 6)
        n_values = range(4, 17)
        terms = lemma4_terms(emb, mix, False, n_values)
        for n_neg in n_values:
            lemma4_chain_check(terms, n_neg)
        assert len(n_values) == 13 and len(calls) == 1
