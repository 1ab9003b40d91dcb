"""Analytic gradients against central finite differences."""

import math
import zlib

import numpy as np
import pytest

from contrastlab import autograd, cli, losses
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

    @staticmethod
    def straddling_batch():
        # Tight positive pairs and distant anchors so the partner term
        # dominates: the boundary tau then lands in (0, 1).
        feats = np.array([[1.0, 0.02, 0.0], [0.0, 0.02, 1.0],
                          [1.0, -0.02, 0.0], [0.0, -0.02, 1.0]])
        return ViewBatch(features=feats, batch_size=2, m_positives=1,
                         labels=np.array([0, 1]))

    @classmethod
    def straddling_tau(cls):
        """The tau+ that parks anchor 0's raw estimate on the exp floor at W = I."""
        f = unit_rows(encoder_forward(np.eye(3), cls.straddling_batch().features))
        sims = f @ f.T
        mean_u = float(np.exp(sims[0, [1, 3]]).mean())  # partner of role 0 is 2
        mean_v = float(np.exp(sims[0, 2]))
        floor = math.exp(-1.0)
        return (mean_u - floor) / (mean_v - floor)

    def test_clamp_straddling_excluded_not_failed(self):
        # A batch where the +/- step evaluations of some coordinates land on
        # different branches of the clamp: those must be excluded, not counted
        # as failures, and every other coordinate must still be checked.
        weights, batch, spec, step = list(stacked_cases())[6]
        report = finite_diff_check(weights, batch, spec, step=step)
        assert report.excluded, "expected clamp-straddling coordinates"
        assert len(report.excluded) < weights.size
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


def reference_check(weights, batch, spec, step):
    """finite_diff_check written as one lone forward pass per perturbation:
    (per-coordinate (loss at +step, loss at -step), excluded, max_rel_err)."""
    _, grad = loss_and_grad(weights, batch, spec)
    analytic = grad.flatten()
    numeric = np.zeros(weights.size)
    pairs, excluded = [], []
    for i in range(weights.size):
        bumped = weights.copy()
        bumped.flat[i] = weights.flat[i] + step
        hi = batch_loss_terms(bumped, batch, spec)
        bumped.flat[i] = weights.flat[i] - step
        lo = batch_loss_terms(bumped, batch, spec)
        pairs.append((hi.losses, lo.losses))
        numeric[i] = (hi.losses.mean() - lo.losses.mean()) / (2.0 * step)
        if not np.array_equal(hi.floored, lo.floored):
            excluded.append(i)
    keep = np.ones(weights.size, dtype=bool)
    keep[excluded] = False
    if not keep.any():
        return pairs, tuple(excluded), 0.0
    denom = float(np.abs(numeric[keep]).max()) + 1e-12
    return pairs, tuple(excluded), float(np.abs(analytic[keep] - numeric[keep]).max()) / denom


def stacked_cases():
    """(weights, batch, spec, step) for each kind and M, a negative pool, a
    batch parked on its clamp boundary, whose every coordinate straddles it,
    and a batch where four of fifteen do."""
    for case, (kind, m) in enumerate([("biased", 1), ("debiased", 2), ("unbiased", 3),
                                      ("debiased", 1)]):
        rng = substream(300 + case)
        spec = LossSpec(kind=kind, tau_plus=0.2 if kind == "debiased" else 0.0,
                        temperature=0.7)
        yield init_params(rng, 5, 3), make_batch(rng, b=3, m=m, feat=5), spec, 1e-6
    rng = substream(305)
    pool = ViewBatch(features=rng.standard_normal((3 * 2 + 4, 4)), batch_size=3,
                     m_positives=1, labels=np.array([0, 1, 2]),
                     neg_pool_labels=np.array([0, 1, 2, 1]))
    yield init_params(rng, 4, 3), pool, LossSpec(kind="unbiased", temperature=0.6), 1e-6
    yield (np.eye(3), TestFiniteDiffCheck.straddling_batch(),
           LossSpec(kind="debiased", tau_plus=TestFiniteDiffCheck.straddling_tau()), 1e-4)
    rng = substream(429)
    yield (init_params(rng, 5, 3), make_batch(rng, b=3, m=2, feat=5),
           LossSpec(kind="debiased", tau_plus=0.5, temperature=0.7), 1e-3)


class TestStackedFiniteDiff:
    @pytest.mark.parametrize("case", range(7))
    def test_matches_per_coordinate_reference(self, case, monkeypatch):
        weights, batch, spec, step = list(stacked_cases())[case]
        pairs, excluded, max_rel_err = reference_check(weights, batch, spec, step)
        seen = []

        def recording(w, b, s):
            terms = batch_loss_terms(w, b, s)
            seen.append(terms.losses)
            return terms

        monkeypatch.setattr(autograd, "batch_loss_terms", recording)
        report = finite_diff_check(weights, batch, spec, step=step)
        stacked = np.concatenate(seen)  # (|W|, 2, 2B): +step then -step
        assert stacked.shape == (weights.size, 2, 2 * batch.batch_size)
        for i, (hi, lo) in enumerate(pairs):
            assert stacked[i, 0].tobytes() == hi.tobytes()
            assert stacked[i, 1].tobytes() == lo.tobytes()
        assert report.excluded == excluded
        assert all(type(i) is int for i in report.excluded)
        assert report.max_rel_err == max_rel_err
        if case >= 5:
            assert excluded == (tuple(range(9)) if case == 5 else (0, 5, 10, 12))

    @pytest.mark.parametrize("case", [2, 6])
    def test_chunked_report_is_the_same(self, case, monkeypatch):
        weights, batch, spec, step = list(stacked_cases())[case]
        whole = finite_diff_check(weights, batch, spec, step=step)
        calls = []

        def counting(w, b, s):
            calls.append(w.shape[0])
            return batch_loss_terms(w, b, s)

        monkeypatch.setattr(autograd, "batch_loss_terms", counting)
        # Two coordinates, four perturbations, per chunk.
        per_coord = 2 * max(2 * batch.batch_size * batch.features.shape[0], weights.size)
        monkeypatch.setattr(autograd, "_FD_BLOCK", 2 * per_coord)
        chunked = finite_diff_check(weights, batch, spec, step=step)
        assert calls == [2] * (weights.size // 2) + [1] * (weights.size % 2)
        assert chunked == whole

    def test_gradcheck_hands_the_public_kernel_one_matrix(self, tmp_path, monkeypatch):
        # The benchmark's work counter reads each public call's f as (V, d).
        dims = []
        public = losses.batch_terms

        def recording(f, batch, spec):
            dims.append(np.ndim(f))
            return public(f, batch, spec)

        monkeypatch.setattr(losses, "batch_terms", recording)
        assert cli.main(["gradcheck", "--set", "cases=6", "--out", str(tmp_path)]) == 0
        assert dims and set(dims) == {2}
