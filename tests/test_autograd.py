"""Analytic gradients against central finite differences."""

import math
import zlib

import numpy as np
import pytest

from contrastlab.autograd import LossSpec, batch_loss_terms, finite_diff_check, loss_and_grad
from contrastlab.encoder import ViewBatch, encoder_forward, init_params
from contrastlab.errors import BatchTooSmall
from contrastlab.geometry import unit_rows
from contrastlab.rng import substream

def make_batch(rng, b=3, m=1, feat=4, labels=None):
    if labels is None:
        labels = np.concatenate(([0, 1], rng.integers(0, 3, size=b - 2)))
    return ViewBatch(features=rng.standard_normal(((m + 1) * b, feat)),
                     batch_size=b, m_positives=m, labels=labels)


class TestViewBatch:
    def test_needs_two_anchors(self):
        with pytest.raises(BatchTooSmall):
            ViewBatch(features=np.ones((2, 3)), batch_size=1, m_positives=1)

    def test_needs_a_positive(self):
        with pytest.raises(ValueError, match="m_positives"):
            ViewBatch(features=np.ones((2, 3)), batch_size=2, m_positives=0)


class TestLossAndGrad:
    def test_constant_batch_biased_equals_debiased_gradient(self):
        # tau+ = 0 reduction holds for the gradient as well as the value.
        rng = substream(1)
        batch = make_batch(rng, b=3, m=1)
        weights = init_params(rng, 4, 3)
        l_b, g_b = loss_and_grad(weights, batch, LossSpec(kind="biased"))
        l_d, g_d = loss_and_grad(weights, batch,
                                 LossSpec(kind="debiased", tau_plus=0.0,
                                          floor_mode="zero_floor"))
        assert l_b == l_d
        np.testing.assert_array_equal(g_b, g_d)

    @pytest.mark.parametrize("kind,tau", [("biased", 0.0), ("debiased", 0.1),
                                          ("debiased", 0.3), ("unbiased", 0.0)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_finite_differences(self, kind, tau, m):
        rng = substream(zlib.crc32(repr((kind, tau, m)).encode()))
        batch = make_batch(rng, b=3, m=m, feat=5)
        weights = init_params(rng, 5, 3)
        spec = LossSpec(kind=kind, tau_plus=tau, temperature=0.6)
        report = finite_diff_check(weights, batch, spec, step=1e-6)
        assert report.max_rel_err <= 1e-6

    @pytest.mark.parametrize("m", [1, 2])
    def test_true_negative_pool_matches_finite_differences(self, m):
        # The pool rows and the extra positives enter only as columns.
        b, pool = 3, 5
        for case in range(5):
            rng = substream(zlib.crc32(repr(("pool", m, case)).encode()))
            batch = ViewBatch(features=rng.standard_normal(((m + 1) * b + pool, 5)),
                              batch_size=b, m_positives=m, labels=np.array([0, 1, 2]),
                              neg_pool_labels=np.array([0, 1, 2, 0, 1]))
            weights = init_params(rng, 5, 3)
            spec = LossSpec(kind="unbiased", temperature=0.6)
            report = finite_diff_check(weights, batch, spec, step=1e-6)
            assert report.max_rel_err <= 1e-6

    def test_floored_branch_kills_negative_paths(self):
        # Engineer g to floor for every anchor: tight positive pairs, distant
        # anchors, and a large tau+ make the raw estimate negative.  The
        # gradient must then flow only through the positive-pair similarity.
        feats = np.array([[1.0, 0.02, 0.0], [0.0, 0.02, 1.0],
                          [1.0, -0.02, 0.0], [0.0, -0.02, 1.0]])
        batch = ViewBatch(features=feats, batch_size=2, m_positives=1,
                          labels=np.array([0, 1]))
        weights = np.eye(3)
        spec = LossSpec(kind="debiased", tau_plus=0.9, temperature=1.0)
        terms = batch_loss_terms(weights, batch, spec)
        assert terms.floored.all()
        report = finite_diff_check(weights, batch, spec, step=1e-6)
        assert report.max_rel_err <= 1e-6
        _, grad = loss_and_grad(weights, batch, spec)
        assert float(np.abs(grad).max()) > 0.0

    def test_all_floored_zero_floor_gradient_is_exactly_zero(self):
        # With zero_floor and every role floored, g = 0 and each role's loss
        # is exactly 0 near this point, so the gradient is exactly 0 too.  The
        # positive similarity is below the role's max here, so h * (1/h) - 1
        # would leave round-off in place of 0.
        rng = substream(237)
        batch = ViewBatch(features=rng.standard_normal((4, 4)), batch_size=2,
                          m_positives=1, labels=np.array([0, 1]))
        weights = init_params(rng, 4, 3)
        spec = LossSpec(kind="debiased", tau_plus=0.9, floor_mode="zero_floor")
        terms = batch_loss_terms(weights, batch, spec)
        assert terms.floored.all()
        # h+ = e^(s+ - c) < 1: some role's partner is not its most similar view.
        f = unit_rows(encoder_forward(weights, batch.features))
        sims = f @ f.T
        np.fill_diagonal(sims, -np.inf)
        roles = np.arange(4)
        assert np.any(sims[roles, (roles + 2) % 4] < sims.max(axis=1))
        _, grad = loss_and_grad(weights, batch, spec)
        assert np.all(grad == 0.0)

    def test_gradient_linearity_over_anchors(self):
        # Batch gradient is the mean of per-anchor contributions; check by
        # splitting the similarity-gradient accumulation via two tau values
        # sharing the same forward: linear combination consistency.
        rng = substream(31)
        batch = make_batch(rng, b=4, m=1)
        weights = init_params(rng, 4, 3)
        spec = LossSpec(kind="debiased", tau_plus=0.1)
        loss, grad = loss_and_grad(weights, batch, spec)
        terms = batch_loss_terms(weights, batch, spec)
        assert loss == pytest.approx(float(terms.losses.mean()), abs=1e-12)

    def test_radial_direction_has_zero_derivative(self):
        # Scaling any pre-normalized representation leaves the loss fixed, so
        # the directional derivative of the loss along W -> (1+eps) W is 0.
        rng = substream(37)
        batch = make_batch(rng, b=3, m=1)
        weights = init_params(rng, 4, 3)
        _, grad = loss_and_grad(weights, batch, LossSpec(kind="debiased", tau_plus=0.1))
        radial = float((grad * weights).sum())
        assert abs(radial) <= 1e-10


class TestFiniteDiffCheck:
    def test_step_range_enforced(self):
        rng = substream(41)
        batch = make_batch(rng)
        weights = init_params(rng, 4, 3)
        with pytest.raises(ValueError):
            finite_diff_check(weights, batch, LossSpec(kind="biased"), step=1e-2)

    def test_identity_encoder_two_points(self):
        batch = ViewBatch(features=np.array([[2.0, 0.1], [0.1, 2.0],
                                             [1.9, -0.1], [-0.1, 1.9]]),
                          batch_size=2, m_positives=1, labels=np.array([0, 1]))
        weights = np.eye(2)
        report = finite_diff_check(weights, batch, LossSpec(kind="biased"), step=1e-6)
        assert report.max_rel_err <= 1e-6

    def test_richardson_behavior(self):
        # Central differences are second order: error shrinks from 1e-3 to
        # 1e-5 steps (until roundoff).
        rng = substream(43)
        batch = make_batch(rng, b=3)
        weights = init_params(rng, 4, 3)
        spec = LossSpec(kind="debiased", tau_plus=0.2)
        coarse = finite_diff_check(weights, batch, spec, step=1e-3)
        fine = finite_diff_check(weights, batch, spec, step=1e-5)
        assert fine.max_rel_err < coarse.max_rel_err

    def test_symmetric_stationary_point(self):
        # All views identical under the biased loss: every similarity equals
        # 1/t regardless of W (unit normalization), so the loss is locally
        # constant and the analytic gradient vanishes.
        feats = np.tile([1.0, 1.0, 1.0], (4, 1))
        batch = ViewBatch(features=feats, batch_size=2, m_positives=1,
                          labels=np.array([0, 1]))
        weights = np.array([[1.0, 0.0, 0.0],
                            [0.0, 1.0, 0.0]])
        _, grad = loss_and_grad(weights, batch, LossSpec(kind="biased"))
        assert float(np.abs(grad).max()) <= 1e-8

    def test_clamp_straddling_excluded_not_failed(self):
        # Park anchor 0's raw estimate exactly on the clamp boundary, so the
        # +/- step evaluations land on different branches for some coordinate;
        # those coordinates must be excluded, not counted as failures.
        from contrastlab.encoder import encoder_forward
        from contrastlab.geometry import unit_rows

        # Tight positive pairs and distant anchors so the partner term
        # dominates: the boundary tau then lands in (0, 1).
        feats = np.array([[1.0, 0.02, 0.0], [0.0, 0.02, 1.0],
                          [1.0, -0.02, 0.0], [0.0, -0.02, 1.0]])
        batch = ViewBatch(features=feats, batch_size=2, m_positives=1,
                          labels=np.array([0, 1]))
        weights = np.eye(3)
        f = unit_rows(encoder_forward(weights, batch.features))
        sims = f @ f.T
        mean_u = float(np.exp(sims[0, [1, 3]]).mean())  # partner of role 0 is 2
        mean_v = float(np.exp(sims[0, 2]))
        floor = math.exp(-1.0)
        tau = (mean_u - floor) / (mean_v - floor)
        assert 0.0 < tau < 1.0
        spec = LossSpec(kind="debiased", tau_plus=tau)
        report = finite_diff_check(weights, batch, spec, step=1e-4)
        assert report.excluded, "expected clamp-straddling coordinates"
        assert report.max_rel_err <= 1e-5

    def test_200_random_configurations(self):
        kinds = ("biased", "debiased", "unbiased")
        worst = 0.0
        for case in range(200):
            rng = substream(1000 + case)
            kind = kinds[case % 3]
            tau = 0.0 if kind == "biased" else float(rng.uniform(0.0, 0.3))
            m = int(rng.integers(1, 3))
            batch = make_batch(rng, b=int(rng.integers(2, 4)), m=m)
            weights = init_params(rng, 4, int(rng.integers(2, 4)))
            spec = LossSpec(kind=kind, tau_plus=tau,
                            temperature=float(rng.uniform(0.3, 1.5)))
            report = finite_diff_check(weights, batch, spec, step=1e-6)
            worst = max(worst, report.max_rel_err)
        assert worst <= 1e-6
