"""Contrastive loss family: frozen arithmetic oracles, exact enumeration,
Monte Carlo cross-checks, and structural properties."""

import itertools
import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contrastlab import losses
from contrastlab.encoder import ViewBatch
from contrastlab.errors import (
    BudgetExceeded,
    DegenerateClass,
    EmptyNegatives,
    NegativeDenominator,
    OracleRangeExceeded,
    PriorMismatch,
)
from contrastlab.losses import (
    LossSpec,
    asymptotic_debiased_exact,
    batch_terms,
    biased_loss_point,
    binomial_oracle,
    clamped_estimate,
    debiased_loss_batch,
    debiased_loss_point,
    estimator_floor,
    mean_classifier_loss,
    softmax_cross_entropy,
    unbiased_loss_exact,
)
from contrastlab.geometry import unit_rows
from contrastlab.rng import substream
from contrastlab.worldmodel import (
    DiscreteClassMixture,
    marginal,
    negative_dist,
    positive_dist,
    preset_mixture,
    random_mixture,
)

from conftest import random_instance, random_orthogonal, random_unit_rows, skewed_instance


class TestBiasedLossPoint:
    def test_all_equal_similarities(self):
        # s+ = s_i = s makes the ratio 1/(1+N).
        for n in (1, 2, 5):
            for s in (-0.7, 0.0, 1.3):
                val = biased_loss_point(s, [s] * n).value
                assert val == pytest.approx(math.log(1 + n), abs=1e-12)

    def test_direct_arithmetic(self):
        # -log(e / (e + 1 + e^0.5)), frozen from direct evaluation.
        val = biased_loss_point(1.0, [0.0, 0.5], q=2.0).value
        assert val == pytest.approx(0.6802696706417346, abs=1e-12)

    def test_q_zero_collapses(self):
        assert biased_loss_point(0.3, [1.0, -0.2], q=0.0).value == 0.0

    def test_empty_negatives(self):
        with pytest.raises(EmptyNegatives):
            biased_loss_point(1.0, [])

    @given(st.floats(-2, 2), st.lists(st.floats(-2, 2), min_size=1, max_size=6),
           st.floats(0.01, 0.5))
    def test_monotone_in_positive_similarity(self, s_pos, negs, delta):
        lo = biased_loss_point(s_pos, negs).value
        hi = biased_loss_point(s_pos + delta, negs).value
        assert hi < lo

    @given(st.floats(-2, 2), st.lists(st.floats(-2, 2), min_size=1, max_size=6),
           st.integers(0, 5), st.floats(0.01, 0.5))
    def test_monotone_in_each_negative(self, s_pos, negs, which, delta):
        lo = biased_loss_point(s_pos, negs).value
        bumped = list(negs)
        bumped[which % len(negs)] += delta
        assert biased_loss_point(s_pos, bumped).value > lo


def g_estimate(sims_u, sims_v, tau_plus):
    """(g, floor) of the clamped estimator at t = 1 on unshifted similarity scores."""
    floor = estimator_floor(1.0)
    g = clamped_estimate(float(np.exp(sims_u).mean()), float(np.exp(sims_v).mean()),
                         tau_plus, floor)
    return g, floor


class TestGEstimator:
    def test_tau_zero_mean(self):
        g, floor = g_estimate([0.0, 0.0], [0.5], tau_plus=0.0)
        assert g == pytest.approx(1.0, abs=1e-15)
        assert g > floor

    def test_algebraic_cancellation(self):
        # (1/0.9)(e - 0.1 e) = e.
        g, floor = g_estimate([1.0], [1.0], tau_plus=0.1)
        assert g == pytest.approx(math.e, rel=1e-12)
        assert g > floor

    def test_floored_case(self):
        # raw = 2(e^{-1} - 0.5 e) = -1.98252... < e^{-1}, so g is the floor.
        g, floor = g_estimate([-1.0], [1.0], tau_plus=0.5)
        assert g == floor
        assert g == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_floor_scales_with_temperature(self):
        assert estimator_floor(0.5) == pytest.approx(math.exp(-2.0), abs=1e-15)
        # In units shifted by exp(-c), as the batch loss evaluates it.
        np.testing.assert_allclose(estimator_floor(0.5, np.array([0.0, 1.5])),
                                   [math.exp(-2.0), math.exp(-3.5)], rtol=1e-15)


class TestDebiasedLossPoint:
    def test_all_equal_collapses_to_log1p(self):
        for n, s in ((5, 0.2), (1, -1.0), (3, 0.9)):
            val = debiased_loss_point(s, [s] * n, [s], tau_plus=0.3).value
            assert val == pytest.approx(math.log(1 + n), abs=1e-12)

    def test_tau_zero_reduction(self):
        val = debiased_loss_point(1.0, [0.0, 0.5], [0.7], tau_plus=0.0).value
        assert val == pytest.approx(0.6802696706417346, abs=1e-12)

    def test_reduction_identity_random(self):
        gen = substream(101)
        for _ in range(200):
            n = int(gen.integers(1, 8))
            s_pos = float(gen.uniform(-1, 1))
            su = gen.uniform(-1, 1, n)
            sv = gen.uniform(-1, 1, int(gen.integers(1, 4)))
            deb = debiased_loss_point(s_pos, su, sv, tau_plus=0.0).value
            bia = biased_loss_point(s_pos, su, q=float(n)).value
            assert abs(deb - bia) <= 1e-12

    def test_small_temperature_stable(self):
        t = 0.05
        val = debiased_loss_point(1.0 / t, [0.5 / t, -1.0 / t], [1.0 / t],
                                  tau_plus=0.1, t=t).value
        assert math.isfinite(val) and val >= 0.0

    def test_matches_simclr_style_port(self):
        # Independent line-by-line batch form: for M = 1 with the partner view
        # as the single estimator positive,
        #   Ng = max((neg_sum - tau+ N pos) / (1 - tau+), N e^{-1/t}).
        gen = substream(55)
        b, d, tau, t = 4, 6, 0.1, 0.5
        va = random_unit_rows(gen, b, d)
        vb = random_unit_rows(gen, b, d)
        f = np.concatenate([va, vb])
        sims = np.exp(f @ f.T / t)
        n = 2 * b - 2
        losses = []
        for r in range(2 * b):
            partner = (r + b) % (2 * b)
            pos = sims[r, partner]
            neg = sims[r].sum() - sims[r, r] - pos
            ng = max((neg - tau * n * pos) / (1 - tau), n * math.exp(-1.0 / t))
            losses.append(-math.log(pos / (pos + ng)))
        expected = float(np.mean(losses))
        got = debiased_loss_batch(va, vb, tau_plus=tau, t=t).value
        assert got == pytest.approx(expected, abs=1e-12)


class TestDebiasedLossBatch:
    def test_all_identical_embeddings(self):
        v = np.tile([1.0, 0.0], (2, 1))
        val = debiased_loss_batch(v, v, tau_plus=0.1, t=1.0).value
        assert val == pytest.approx(math.log(3.0), abs=1e-12)

    def test_tau_zero_equals_biased_assembly(self):
        gen = substream(77)
        for _ in range(50):
            b = int(gen.integers(2, 5))
            va, vb = random_unit_rows(gen, b, 5), random_unit_rows(gen, b, 5)
            got = debiased_loss_batch(va, vb, tau_plus=0.0, t=0.7).value
            f = np.concatenate([va, vb])
            sims = f @ f.T / 0.7
            vals = []
            for r in range(2 * b):
                partner = (r + b) % (2 * b)
                negs = [sims[r, j] for j in range(2 * b) if j not in (r, partner)]
                vals.append(biased_loss_point(sims[r, partner], negs).value)
            assert got == pytest.approx(float(np.mean(vals)), abs=1e-12)

    def test_brute_force_assembly_with_extras(self):
        # B = 3, M = 3: mean of 6 explicit point losses assembled by hand.
        gen = substream(78)
        b, m, d, tau, t = 3, 3, 4, 0.15, 0.8
        va, vb = random_unit_rows(gen, b, d), random_unit_rows(gen, b, d)
        extras = np.stack([random_unit_rows(gen, b, d) for _ in range(m - 1)])
        f = np.concatenate([va, vb, *extras])
        terms = batch_terms(f, ViewBatch(features=f, batch_size=b, m_positives=m),
                            LossSpec(kind="debiased", tau_plus=tau, temperature=t))
        got = float(terms.losses.mean())
        sims = f @ f.T / t
        vals = []
        for r in range(2 * b):
            partner = (r + b) % (2 * b)
            anchor_id = r % b
            negs = [sims[r, j] for j in range(2 * b) if j not in (r, partner)]
            pos = [sims[r, partner]] + [sims[r, 2 * b + j * b + anchor_id]
                                        for j in range(m - 1)]
            vals.append(debiased_loss_point(sims[r, partner], negs, pos,
                                            tau_plus=tau, t=t).value)
        assert got == pytest.approx(float(np.mean(vals)), abs=1e-12)

    def test_partner_at_weight_zero_is_still_read(self):
        # B = 3, M = 4, tau+ = 0.5: N tau+ / (tau- M) = 1, so the partner's
        # weight is exactly 0, but its similarity is still s+, and h+ still
        # enters the floor h+ + N e^(-1/t).  Each identity's views sit close
        # together, so the floor binds on some roles.
        gen = substream(83)
        b, m, tau, t = 3, 4, 0.5, 0.6
        views = np.tile(random_unit_rows(gen, b, 4), (m + 1, 1))
        f = unit_rows(views + 0.3 * gen.standard_normal(views.shape))
        batch = ViewBatch(features=f, batch_size=b, m_positives=m)
        assert losses._layout(b, m, (m + 1) * b, tau)[0][0, b] == 0.0
        terms = batch_terms(f, batch, LossSpec(kind="debiased", tau_plus=tau, temperature=t))
        assert terms.floored.any() and not terms.floored.all()
        sims = f @ f.T / t
        for r in range(2 * b):
            partner = (r + b) % (2 * b)
            negs = [sims[r, j] for j in range(2 * b) if j not in (r, partner)]
            pos = [sims[r, partner]] + [sims[r, 2 * b + j * b + r % b] for j in range(m - 1)]
            expected = debiased_loss_point(sims[r, partner], negs, pos, tau_plus=tau, t=t).value
            assert terms.losses[r] == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        gen = substream(79)
        va, vb = random_unit_rows(gen, 4, 5), random_unit_rows(gen, 4, 5)
        perm = gen.permutation(4)
        a = debiased_loss_batch(va, vb, tau_plus=0.1, t=0.5).value
        b = debiased_loss_batch(va[perm], vb[perm], tau_plus=0.1, t=0.5).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_rotation_invariance(self):
        gen = substream(80)
        va, vb = random_unit_rows(gen, 3, 6), random_unit_rows(gen, 3, 6)
        rot = random_orthogonal(gen, 6)
        a = debiased_loss_batch(va, vb, tau_plus=0.2, t=0.5).value
        b = debiased_loss_batch(va @ rot.T, vb @ rot.T, tau_plus=0.2, t=0.5).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_tiny_temperature_stays_finite(self):
        gen = substream(81)
        va, vb = random_unit_rows(gen, 3, 6), random_unit_rows(gen, 3, 6)
        for t in (0.05, 0.01, 0.004):
            val = debiased_loss_batch(va, vb, tau_plus=0.1, t=t).value
            assert math.isfinite(val) and val >= 0.0


class TestTrueNegativeBatch:
    @pytest.mark.parametrize("pool", [0, 7], ids=["in-batch", "pool"])
    def test_each_role_matches_biased_point_loss(self, pool):
        # Role r's true-negative loss is the point loss over the views of
        # another class (from the pool when one is stacked, else from the
        # primary views), reweighted to Q = N = 2(B-1).  Extra positives are
        # stacked too, and must not count.
        gen = substream(82 + pool)
        b, m, t = 4, 2, 0.7
        labels = np.array([0, 1, 0, 2])
        pool_labels = np.array([0, 1, 2, 0, 1, 2, 1])[:pool]
        f = random_unit_rows(gen, (m + 1) * b + pool, 5)
        batch = ViewBatch(features=f, batch_size=b, m_positives=m, labels=labels,
                          neg_pool_labels=pool_labels if pool else None)
        terms = batch_terms(f, batch, LossSpec(kind="unbiased", temperature=t))
        sims = f @ f.T / t
        if pool:
            cols, col_labels = np.arange((m + 1) * b, (m + 1) * b + pool), pool_labels
        else:
            cols, col_labels = np.arange(2 * b), labels[np.arange(2 * b) % b]
        for r in range(2 * b):
            negs = sims[r, cols[col_labels != labels[r % b]]]
            expected = biased_loss_point(sims[r, (r + b) % (2 * b)], negs, q=2 * (b - 1)).value
            assert terms.losses[r] == pytest.approx(expected, abs=1e-12)


def _stacked_views(gen, b, m, pool, d=4):
    """Eight (V, d) unit view matrices: six random ones, and two whose views
    of each identity sit within 1e-3 of each other, so that a large tau+
    floors every role of the debiased loss."""
    n_views = (m + 1) * b + pool
    loose = [random_unit_rows(gen, n_views, d) for _ in range(6)]
    tight = []
    for _ in range(2):
        views = np.tile(random_unit_rows(gen, b, d), (m + 1, 1))
        views += 1e-3 * gen.standard_normal(views.shape)
        tight.append(np.concatenate([views, random_unit_rows(gen, pool, d)]))
    return np.stack(loose + tight)


class TestStackedKernel:
    # The debiased clamp's one floor, e^(-1/t), named in each case's id and seed.
    @pytest.mark.parametrize("floor", ["exp_floor"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind,pool", [("biased", 0), ("debiased", 0), ("unbiased", 0),
                                           ("unbiased", 5)])
    def test_every_slice_matches_the_2d_call(self, kind, pool, m, floor):
        gen = substream(zlib.crc32(repr((kind, pool, m, floor)).encode()))
        b = 3
        views = _stacked_views(gen, b, m, pool)
        batch = ViewBatch(features=views[0], batch_size=b, m_positives=m,
                          labels=np.array([0, 1, 0]),
                          neg_pool_labels=np.array([0, 1, 2, 0, 1]) if pool else None)
        spec = LossSpec(kind=kind, tau_plus=0.7, temperature=0.5)
        stack = views.reshape((2, 4) + views.shape[1:])  # two leading axes
        stacked = losses._batch_terms(stack, batch, spec)
        for idx in np.ndindex(2, 4):
            single = batch_terms(stack[idx], batch, spec)
            for name in ("losses", "floored", "grad"):
                assert getattr(stacked, name)[idx].tobytes() == getattr(single, name).tobytes()
        if kind == "debiased":
            rows = stacked.floored.reshape(8, 2 * b)
            assert rows.all(axis=1).any()  # a slice with every role floored
            assert (rows.any(axis=1) & ~rows.all(axis=1)).any()  # and one with some

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind,pool", [("biased", 0), ("unbiased", 0), ("unbiased", 5)])
    def test_clamp_never_binds_without_an_estimator(self, kind, pool, m, t):
        # Only the debiased kind has an estimator g to clamp.  The others'
        # sums never fall below h+, so none of their roles is floored, even
        # on the tight views where the debiased loss floors them.
        gen = substream(zlib.crc32(repr(("no-clamp", kind, pool, m, t)).encode()))
        b = 3
        views = _stacked_views(gen, b, m, pool)
        batch = ViewBatch(features=views[0], batch_size=b, m_positives=m,
                          labels=np.array([0, 1, 0]),
                          neg_pool_labels=np.array([0, 1, 2, 0, 1]) if pool else None)
        for f in views:
            assert not batch_terms(f, batch, LossSpec(kind=kind, tau_plus=0.7,
                                                      temperature=t)).floored.any()
        if not pool:
            debiased = LossSpec(kind="debiased", tau_plus=0.7, temperature=t)
            assert batch_terms(views[-1], batch, debiased).floored.all()

    def test_public_call_takes_one_matrix(self):
        gen = substream(90)
        views = _stacked_views(gen, 3, 1, 0)
        batch = ViewBatch(features=views[0], batch_size=3, m_positives=1)
        with pytest.raises(ValueError, match=r"one \(V, d\) embedding array, got 3 dims"):
            batch_terms(views, batch, LossSpec(kind="biased"))


def _dense_true_negative(f, batch, t, negatives, neg_labels):
    """The true-negative pass over the full (2B, V) block, written out
    densely: weight N / N_available on each different-class view among the
    ``negatives`` columns, whose classes are ``neg_labels``, 1 on the
    partner, 0 elsewhere."""
    b = batch.batch_size
    twob, n_views = 2 * b, f.shape[0]
    roles = np.arange(twob)
    partner = (roles + b) % twob
    sims = f[:twob] @ f.T / t
    differ = batch.labels[roles % b][:, None] != neg_labels[None, :]
    weights = np.zeros((twob, n_views))
    weights[:, negatives] = differ * (twob - 2) / differ.sum(axis=1)[:, None]
    weights[roles, partner] = 1.0
    used = weights != 0.0
    shift = np.where(used, sims, -np.inf).max(axis=1)
    weighted = weights * np.where(used, np.exp(sims - shift[:, None]), 0.0)
    denom = weighted.sum(axis=1)
    losses = np.log(denom) + shift - sims[roles, partner]
    grad = weighted / denom[:, None]
    grad[roles, partner] -= 1.0
    return losses, grad / (twob * t), used


class TestPoolLayout:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.5])
    @pytest.mark.parametrize("b,m,pool", [(2, 1, 3), (3, 2, 5), (4, 3, 9), (8, 1, 14),
                                          (2, 1, 0), (3, 2, 0), (4, 3, 0), (8, 1, 0)])
    def test_matches_the_dense_reference(self, b, m, pool, t):
        # pool = 0 is the in-batch case: the negatives are the 2B primaries.
        gen = substream(zlib.crc32(repr(("pool-layout", b, m, pool, t)).encode()))
        f = random_unit_rows(gen, (m + 1) * b + pool, 5)
        if pool:
            labels = gen.integers(0, 3, size=b)
            pool_labels = np.concatenate([np.arange(3), gen.integers(0, 3, size=pool - 3)])
            negatives, neg_labels = np.arange(f.shape[0] - pool, f.shape[0]), pool_labels
        else:
            # Two classes among the anchors, so every anchor has a negative.
            labels = np.concatenate(([0, 1], gen.integers(0, 3, size=b - 2)))
            pool_labels = None
            negatives, neg_labels = np.arange(2 * b), labels[np.arange(2 * b) % b]
        batch = ViewBatch(features=f, batch_size=b, m_positives=m, labels=labels,
                          neg_pool_labels=pool_labels)
        terms = batch_terms(f, batch, LossSpec(kind="unbiased", temperature=t))
        losses_ref, grad_ref, used = _dense_true_negative(f, batch, t, negatives, neg_labels)
        np.testing.assert_allclose(terms.losses, losses_ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(terms.grad, grad_ref, rtol=1e-14, atol=0.0)
        assert not terms.floored.any()
        # Exactly 0 off the partner and the different-class negative views.
        assert np.all(terms.grad[~used] == 0.0)
        assert np.all(terms.grad[used] != 0.0)


def _dense_layout(b, m, tau_plus):
    """The biased/debiased weights written out entry by entry."""
    twob, n_neg = 2 * b, 2 * b - 2
    v_coef = n_neg * tau_plus / ((1.0 - tau_plus) * m)
    weights = np.zeros((twob, (m + 1) * b))
    for r in range(twob):
        for j in range(twob):
            if j != r:
                weights[r, j] = 1.0 / (1.0 - tau_plus)
        weights[r, (r + b) % twob] = 1.0 - v_coef
        for g in range(m - 1):
            weights[r, twob + g * b + r % b] = -v_coef
    return weights


class TestCachedLayout:
    SHAPES = [(3, 1, 0.1), (3, 1, 0.2), (4, 1, 0.1), (3, 2, 0.1), (3, 3, 0.0)]

    def test_arrays_are_read_only(self):
        for array in losses._layout(3, 2, 9, 0.1):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_each_shape_and_tau_gets_its_own_weights(self):
        # Interleaved calls, so a key that dropped tau+, B or M would hand a
        # later shape an earlier one's weights.
        for b, m, tau in self.SHAPES + self.SHAPES[::-1]:
            weights, mask = losses._layout(b, m, (m + 1) * b, tau)
            expected = _dense_layout(b, m, tau)
            assert weights.tobytes() == expected.tobytes()
            read = expected != 0.0
            read[np.arange(2 * b), (np.arange(2 * b) + b) % (2 * b)] = True
            np.testing.assert_array_equal(mask, np.where(read, 0.0, -np.inf))
        for (b1, m1, t1), (b2, m2, t2) in itertools.combinations(self.SHAPES, 2):
            w1 = losses._layout(b1, m1, (m1 + 1) * b1, t1)[0]
            w2 = losses._layout(b2, m2, (m2 + 1) * b2, t2)[0]
            assert w1.shape != w2.shape or not np.array_equal(w1, w2)

    def test_specs_differing_in_tau_give_their_own_losses(self):
        gen = substream(91)
        f = random_unit_rows(gen, 8, 4)
        batch = ViewBatch(features=f, batch_size=4, m_positives=1)
        taus = (0.0, 0.1, 0.2, 0.1, 0.0)
        got = [batch_terms(f, batch, LossSpec(kind="debiased", tau_plus=tau,
                                              temperature=0.5)).losses.tobytes()
               for tau in taus]
        for (tau1, loss1), (tau2, loss2) in itertools.combinations(zip(taus, got), 2):
            assert (loss1 == loss2) == (tau1 == tau2), (tau1, tau2)


class TestLossSpec:
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_holds_the_tau_plus_its_kind_computes_with(self, kind):
        # Only the debiased loss reads tau+; the others compute at 0.
        assert LossSpec(kind=kind, tau_plus=0.3).tau_plus == (0.3 if kind == "debiased" else 0.0)

    @pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_bad_tau_plus_is_refused_for_every_kind(self, kind, tau):
        with pytest.raises(ValueError, match="tau_plus must lie in"):
            LossSpec(kind=kind, tau_plus=tau)


def _mc_unbiased(emb, mix, n_neg, trials, seed):
    """Independent Monte Carlo estimate of the exact true-negative loss."""
    gen = substream(seed)
    sims = emb @ emb.T
    expm = np.exp(sims)
    marg = marginal(mix)
    anchors = gen.choice(mix.n_points, size=trials, p=marg)
    losses = np.empty(trials)
    for a in range(mix.n_points):
        mask = anchors == a
        count = int(mask.sum())
        if not count:
            continue
        pos = gen.choice(mix.n_points, size=count, p=positive_dist(mix, a))
        counts = gen.multinomial(n_neg, negative_dist(mix, a), size=count)
        tail = counts @ expm[a]
        losses[mask] = np.log(expm[a, pos] + tail) - sims[a, pos]
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(trials))


class TestUnbiasedLossExact:
    def test_constant_embedding_log1p(self):
        mix = preset_mixture("paper-uniform")
        emb = np.tile([1.0, 0.0], (mix.n_points, 1))
        for n in (1, 3):
            val = unbiased_loss_exact(emb, mix, n, budget=1e7).value
            assert val == pytest.approx(math.log(1 + n), abs=1e-12)

    def test_two_point_single_term(self):
        mix = preset_mixture("two-point")
        val = unbiased_loss_exact(np.eye(2), mix, 1, budget=1e7).value
        assert val == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_matches_monte_carlo(self):
        emb, mix = random_instance(123, s_points=6, k_classes=3, embed_dim=5)
        exact = unbiased_loss_exact(emb, mix, 3, budget=1e7).value
        mc, se = _mc_unbiased(emb, mix, 3, trials=1_000_000, seed=9)
        assert abs(exact - mc) <= 3 * se

    def test_budget_guard(self):
        # At N = 8 the call evaluates 23166 multiset rows over its anchors.
        emb, mix = random_instance(5, s_points=10, k_classes=3)
        with pytest.raises(BudgetExceeded):
            unbiased_loss_exact(emb, mix, 8, budget=1e4)

    def test_internal_multiset_cap(self):
        # 24 complement points at N = 8 make one table of C(31, 8) multisets,
        # over the internal cap however large the budget.
        mix = random_mixture(substream(0), 40, 2)
        emb = random_unit_rows(substream(1), 40, 3)
        assert math.comb(31, 8) == 7_888_725 > losses._MAX_MULTISETS
        with pytest.raises(BudgetExceeded,
                           match="^7888725 multisets exceed the internal enumeration cap$"):
            unbiased_loss_exact(emb, mix, 8, budget=1e13)

    def test_degenerate_class(self, monkeypatch):
        from conftest import single_class_mixture

        # The engine builds each anchor's negative distribution, which raises,
        # before any table.
        monkeypatch.setattr(losses, "_multiset_table",
                            lambda *args: pytest.fail("a table was built"))
        with pytest.raises(DegenerateClass):
            unbiased_loss_exact(np.eye(2), single_class_mixture(), 1, budget=1e7)

    def test_zero_draws_table_is_one_empty_row(self):
        rows, probs = losses._multiset_table(np.array([0.25, 0.0, 0.75]), 0)
        assert rows.shape == (1, 0)
        assert probs.tolist() == [1.0]

    @pytest.mark.parametrize("exact", [
        lambda emb, mix: unbiased_loss_exact(emb, mix, 4, budget=1e7).value,
        lambda emb, mix: binomial_oracle(emb, mix, 4, budget=1e7).loss.value,
    ], ids=["unbiased", "oracle"])
    def test_grid_is_evaluated_in_chunks_under_the_cap(self, monkeypatch, exact):
        # Two points per class: a class's positive support has two points, so
        # with the cap at the largest table every loss grid built from that
        # table holds twice the cap, unchunked.
        emb, mix = random_instance(21, s_points=6, k_classes=3)
        assert np.bincount(mix.labels).tolist() == [2, 2, 2]
        tables, grids = [], []
        real_table, real_kernel = losses._multiset_table, losses._contrastive_losses

        def table_spy(weights, n):
            rows, probs = real_table(weights, n)
            tables.append(rows.shape[0])
            return rows, probs

        def kernel_spy(*args):
            out = real_kernel(*args)
            grids.append(out.size)
            return out

        monkeypatch.setattr(losses, "_multiset_table", table_spy)
        monkeypatch.setattr(losses, "_contrastive_losses", kernel_spy)
        want = exact(emb, mix)
        cap, unchunked = max(tables), list(grids)
        assert max(unchunked) == 2 * cap
        grids.clear()
        monkeypatch.setattr(losses, "_MAX_MULTISETS", cap)
        got = exact(emb, mix)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert max(grids) <= cap
        assert len(grids) > len(unchunked)


def _itertools_table(weights, n):
    """The multiset table as ``itertools`` builds it, row by row in Python:
    the reference the numpy construction must reproduce bit for bit."""
    support = np.flatnonzero(weights > 0.0)
    n_rows = math.comb(support.size + n - 1, n)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(support.size), n)),
        dtype=np.intp, count=n_rows * n,
    ).reshape(n_rows, n)
    counts = np.bincount((np.arange(n_rows)[:, None] * support.size + combos).ravel(),
                         minlength=n_rows * support.size).reshape(n_rows, -1)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_coef = logfact[n] - logfact[counts].sum(axis=1)
    log_prob = counts @ np.log(weights[support])
    return support[combos], np.exp(log_coef + log_prob)


class TestMultisetTable:
    # At support 12, n = 8 is left to the peak-memory test, which builds it.
    @pytest.mark.parametrize("support,n", [(s, n) for s in (1, 2, 5, 12)
                                           for n in (0, 1, 2, 5, 8) if s < 12 or n <= 5])
    def test_matches_the_itertools_construction(self, support, n):
        # One more point than the support, of zero weight and inside the
        # index range, so the rows must skip it.
        weights = substream(support, n).random(support + 1)
        weights[support // 2] = 0.0
        weights /= weights.sum()
        rows, probs = losses._multiset_table(weights, n)
        want_rows, want_probs = _itertools_table(weights, n)
        assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
        assert np.array_equal(rows, want_rows)
        assert probs.tobytes() == want_probs.tobytes()

    def test_peak_memory_is_no_higher_than_itertools(self):
        weights = np.full(12, 1 / 12)
        tables, peaks = [], []
        for build in (_itertools_table, losses._multiset_table):
            build(weights, 8)  # numpy's first-call allocations are not the table's
            tracemalloc.start()
            try:
                tables.append(build(weights, 8))
                # The peak above what is still held at the end: numpy keeps
                # freed small buffers in a cache that tracemalloc counts as
                # held, a few hundred bytes that are not the build's.
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - current)
            finally:
                tracemalloc.stop()
        (want_rows, want_probs), (rows, probs) = tables
        assert rows.shape == (math.comb(19, 8), 8) and np.array_equal(rows, want_rows)
        assert probs.tobytes() == want_probs.tobytes()
        assert peaks[1] <= peaks[0]

    # 7 rows to a block: it divides some of these tables' row counts (35,
    # 210) and not others (1, 6, 715, 1287).
    @pytest.mark.parametrize("support,n", [(1, 0), (2, 5), (5, 3), (7, 4), (10, 4), (9, 5)])
    def test_row_blocks_change_no_bit(self, monkeypatch, support, n):
        weights = substream(support, n, 1).random(support + 1)
        weights[support // 2] = 0.0
        weights /= weights.sum()
        want_rows, want_probs = losses._multiset_table(weights, n)
        monkeypatch.setattr(losses, "_ROW_BLOCK", 7)
        rows, probs = losses._multiset_table(weights, n)
        assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_row_blocks_change_no_exact_value(self, monkeypatch):
        # Eight points at N = 4: the marginal's tables hold 8, 36, 120 and
        # 330 rows, and the anchors sum e^s over them 7 rows at a time.
        emb, mix = random_instance(21, s_points=8, k_classes=3)

        def values():
            oracle = binomial_oracle(emb, mix, 4, budget=1e7)
            return np.array([unbiased_loss_exact(emb, mix, 4, budget=1e7).value,
                             oracle.loss.value, *oracle.terms])

        want = values()
        monkeypatch.setattr(losses, "_ROW_BLOCK", 7)
        assert values().tobytes() == want.tobytes()


class TestEngineMemory:
    """The engine holds one entry's tables and per-row vectors at a time."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_oracle_peaks_at_its_largest_table_build(self, monkeypatch):
        # Twelve points in three classes of four at N = 8: the largest table
        # is the marginal's at n = 8, C(19, 8) = 75,582 rows.
        gen = substream(12, 3, 8)
        labels = gen.permutation(np.arange(12) % 3)
        conditionals = np.zeros((3, 12))
        for c in range(3):
            conditionals[c, labels == c] = gen.dirichlet(np.ones(4))
        mix = DiscreteClassMixture(points=gen.standard_normal((12, 4)), labels=labels,
                                   class_conditionals=conditionals, prior=np.full(3, 1 / 3),
                                   tau_plus=1 / 3)
        emb = random_unit_rows(gen, 12, 8)
        built = []
        real = losses._multiset_table

        def spy(weights, n):
            built.append((weights.copy(), n))
            return real(weights, n)

        monkeypatch.setattr(losses, "_multiset_table", spy)
        # Also takes numpy's first-call allocations out of the peaks below.
        binomial_oracle(emb, mix, 8, budget=1e9)
        monkeypatch.undo()
        weights, n = max(built, key=lambda wn: math.comb(np.count_nonzero(wn[0]) + wn[1] - 1,
                                                           wn[1]))
        assert n == 8 and np.count_nonzero(weights) == 12
        table_peak = self.traced_peak(lambda: real(weights, n))
        oracle_peak = self.traced_peak(lambda: binomial_oracle(emb, mix, 8, budget=1e9))
        assert oracle_peak <= table_peak + 2_000_000

    def test_table_is_freed_after_the_last_entry_that_reads_it(self, monkeypatch):
        # The marginal's n = 3 table is read by entry 1 only, its n = 2 table
        # by entries 0 and 2, and each class's positive n = 1 table by entry 2.
        emb, mix = random_instance(31, s_points=7, k_classes=3)
        n_live = np.count_nonzero(marginal(mix))
        events = []
        real_table, real_kernel = losses._multiset_table, losses._contrastive_losses

        def table_spy(weights, n):
            rows, probs = real_table(weights, n)
            events.append(("built", n))
            weakref.finalize(rows, events.append, ("freed", n))
            return rows, probs

        def kernel_spy(*args):
            events.append("grid")
            return real_kernel(*args)

        monkeypatch.setattr(losses, "_multiset_table", table_spy)
        monkeypatch.setattr(losses, "_contrastive_losses", kernel_spy)
        losses._enumerated_losses(emb, mix, [[("marginal", 2)], [("marginal", 3)],
                                             [("marginal", 2), ("positive", 1)]], 1e7)
        # One grid per anchor and entry: the first 2 * n_live are entries 0 and 1.
        assert events.count("grid") == 3 * n_live
        assert events.count(("built", 2)) == events.count(("built", 3)) == 1
        freed = events.index(("freed", 3))
        assert events[:freed].count("grid") == 2 * n_live
        assert events[freed + 1] == ("built", 1)
        assert events[:events.index(("freed", 2))].count("grid") == 3 * n_live


class TestBinomialOracle:
    def test_two_point_n1_matches(self):
        mix = preset_mixture("two-point")
        res = binomial_oracle(np.eye(2), mix, 1, budget=1e7)
        exact = unbiased_loss_exact(np.eye(2), mix, 1, budget=1e7).value
        assert res.loss.value == pytest.approx(exact, rel=1e-12)
        assert len(res.terms) == 2

    def test_oracle_equivalence_random(self):
        # 50 random mixtures, N <= 6, S <= 10, rel err <= 1e-9.
        for seed in range(50):
            gen = substream(3000 + seed)
            k = int(gen.integers(2, 5))
            s = int(gen.integers(k + 1, 11))
            n = int(gen.integers(1, 7))
            mix = random_mixture(gen, s, k)
            emb = random_unit_rows(gen, s, 6)
            res = binomial_oracle(emb, mix, n, budget=1e12)
            exact = unbiased_loss_exact(emb, mix, n, budget=1e12).value
            assert abs(res.loss.value - exact) / abs(exact) <= 1e-9
            assert math.isfinite(res.condition_number) and res.condition_number >= 1.0

    def test_range_errors(self):
        emb, mix = random_instance(4)
        with pytest.raises(OracleRangeExceeded):
            binomial_oracle(emb, mix, 0, budget=1e7)
        with pytest.raises(OracleRangeExceeded):
            binomial_oracle(emb, mix, 9, budget=1e7)

    def test_non_uniform_prior_refused_before_any_table(self, monkeypatch):
        # One scalar tau+ splits the marginal into each anchor's positive and
        # negative distributions only under a uniform prior; on this mixture
        # the series would silently miss the enumerated loss.
        emb, mix = skewed_instance(3)
        monkeypatch.setattr(losses, "_multiset_table",
                            lambda *args: pytest.fail("a table was built"))
        with pytest.raises(PriorMismatch, match="uniform class prior"):
            binomial_oracle(emb, mix, 3, budget=1e7)

    def test_condition_number_grows_with_n(self):
        emb, mix = random_instance(8, s_points=6, k_classes=3, embed_dim=4)
        conds = [binomial_oracle(emb, mix, n, budget=1e12).condition_number
                 for n in (1, 4, 7)]
        assert conds[0] < conds[-1]


class TestAsymptoticDebiased:
    def test_constant_embedding(self):
        mix = preset_mixture("paper-uniform")
        emb = np.tile([0.0, 1.0], (mix.n_points, 1))
        val = asymptotic_debiased_exact(emb, mix, q=4.0).value
        assert val == pytest.approx(math.log(5.0), abs=1e-12)

    def test_tau_zero_is_marginal_negative_population_loss(self):
        emb, mix = random_instance(21, s_points=7, k_classes=3, embed_dim=5)
        got = asymptotic_debiased_exact(emb, mix, q=5.0, tau_plus=0.0).value
        # Independent direct enumeration of the large-N marginal-negative loss.
        sims = emb @ emb.T
        marg = marginal(mix)
        expect = 0.0
        for a in range(mix.n_points):
            mean_p = float(marg @ np.exp(sims[a]))
            for b in range(mix.n_points):
                pb = positive_dist(mix, a)[b]
                if pb:
                    expect += marg[a] * pb * (-math.log(
                        math.exp(sims[a, b]) / (math.exp(sims[a, b]) + 5.0 * mean_p)))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_monte_carlo_convergence(self):
        # Large-(N, M) point losses concentrate on the asymptotic value.
        emb, mix = random_instance(22, s_points=6, k_classes=3, embed_dim=5)
        target = asymptotic_debiased_exact(emb, mix, q=10000.0).value
        gen = substream(60)
        sims = emb @ emb.T
        expm = np.exp(sims)
        marg = marginal(mix)
        trials, n_big = 4000, 10000
        vals = np.empty(trials)
        anchors = gen.choice(mix.n_points, size=trials, p=marg)
        for a in range(mix.n_points):
            mask = anchors == a
            cnt = int(mask.sum())
            if not cnt:
                continue
            pos = gen.choice(mix.n_points, size=cnt, p=positive_dist(mix, a))
            mean_u = gen.multinomial(n_big, marg, size=cnt) @ expm[a] / n_big
            mean_v = gen.multinomial(n_big, positive_dist(mix, a), size=cnt) @ expm[a] / n_big
            g = np.maximum((mean_u - mix.tau_plus * mean_v) / mix.tau_minus, math.exp(-1))
            vals[mask] = np.log(expm[a, pos] + n_big * g) - sims[a, pos]
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - target) <= 3 * se + 1e-4

    def test_negative_denominator_reported(self):
        mix = preset_mixture("two-point")
        # Anchor 0: E_p e^s = (e + 1)/2, E_pos e^s = e; tau = 0.9 drives the
        # inner difference negative.
        with pytest.raises(NegativeDenominator):
            asymptotic_debiased_exact(np.eye(2), mix, q=2.0, tau_plus=0.9)

    @pytest.mark.parametrize("q", [math.nan, math.inf, 0.0, -1.0, [4.0, math.nan], [], [[4.0]]],
                             ids=["nan", "inf", "zero", "negative", "nan-entry", "empty", "2d"])
    def test_bad_q_refused_before_any_term(self, monkeypatch, q):
        emb, mix = random_instance(23)
        monkeypatch.setattr(losses, "_shifted_exps",
                            lambda *args: pytest.fail("a term was built"))
        with pytest.raises(ValueError, match="q must be"):
            asymptotic_debiased_exact(emb, mix, q=q)

    @pytest.mark.parametrize("case", ["uniform", "skewed-per-anchor", "zero-mass"])
    def test_sequence_of_q_is_each_single_call(self, case):
        if case == "uniform":
            (emb, mix), tau = random_instance(24, s_points=10, k_classes=3), None
        elif case == "skewed-per-anchor":
            emb, mix = skewed_instance(3)
            tau = mix.prior[mix.labels]
        else:
            (emb, mix), tau = _zero_mass_mixture(), None
        qs = [1.0, 2.0, 3.0, 7.0, 16.0, 0.5, 1e4]
        got = asymptotic_debiased_exact(emb, mix, q=np.array(qs), tau_plus=tau)
        assert [v.value for v in got] == [
            asymptotic_debiased_exact(emb, mix, q=q, tau_plus=tau).value for q in qs]


def _zero_mass_mixture():
    """Two classes on a circle; point 1 is in class 1's support with no mass.

    Row a of the unit embeddings is at angle (-60, 0, 60, 175, 190)[a]
    degrees, so anchor 1's own class lies closest to it.
    """
    mix = DiscreteClassMixture(
        points=np.eye(5), labels=np.array([1, 1, 1, 0, 0]),
        class_conditionals=np.array([[0.0, 0.0, 0.0, 0.6, 0.4], [0.5, 0.0, 0.5, 0.0, 0.0]]),
        prior=np.array([0.5, 0.5]), tau_plus=0.5)
    angles = np.radians([-60.0, 0.0, 60.0, 175.0, 190.0])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1), mix


def _tuple_sum(emb, mix, draws):
    """E[log(e^s+ + sum_j e^s_j) - s+] by a direct sum over every (anchor,
    positive, draw tuple); ``draws(a)`` lists one distribution per draw."""
    sims = emb @ emb.T
    marg = marginal(mix)
    total = 0.0
    for a in range(mix.n_points):
        pos = positive_dist(mix, a)
        dists = draws(a)
        for b in range(mix.n_points):
            for tup in itertools.product(range(mix.n_points), repeat=len(dists)):
                p = marg[a] * pos[b] * math.prod(d[j] for d, j in zip(dists, tup))
                if p:
                    tail = sum(math.exp(sims[a, j]) for j in tup)
                    total += p * (math.log(math.exp(sims[a, b]) + tail) - sims[a, b])
    return total


class TestExactLayerBruteForce:
    """The enumerated losses against direct tuple sums on tiny mixtures."""

    @staticmethod
    def instances():
        yield _zero_mass_mixture()
        for seed in range(4):
            gen = substream(4100 + seed)
            k = int(gen.integers(2, 4))
            s = int(gen.integers(k + 1, 6))
            mix = random_mixture(gen, s, k)
            yield 2.0 * random_unit_rows(gen, s, 3), mix

    @pytest.mark.parametrize("n_neg", [1, 2, 3])
    def test_unbiased_and_oracle_match_tuple_sums(self, n_neg):
        for emb, mix in self.instances():
            direct = _tuple_sum(emb, mix, lambda a: [negative_dist(mix, a)] * n_neg)
            exact = unbiased_loss_exact(emb, mix, n_neg, budget=1e7).value
            assert exact == pytest.approx(direct, rel=1e-12)
            biased = _tuple_sum(emb, mix, lambda a: [marginal(mix)] * n_neg)
            (got,) = losses._enumerated_losses(emb, mix, [[("marginal", n_neg)]], 1e7)
            assert got == pytest.approx(biased, rel=1e-12)
            res = binomial_oracle(emb, mix, n_neg, budget=1e7)
            assert res.loss.value == pytest.approx(direct, rel=1e-12)
            # Each series term: k draws from the positive class, N - k from the marginal.
            for k, term in enumerate(res.terms):
                inner = _tuple_sum(emb, mix, lambda a: [positive_dist(mix, a)] * k
                                   + [marginal(mix)] * (n_neg - k))
                expect = math.comb(n_neg, k) * (-mix.tau_plus) ** k * inner / mix.tau_minus ** n_neg
                assert term == pytest.approx(expect, rel=1e-12)

    def test_tables_built_once_per_call(self, monkeypatch):
        built = []
        real = losses._multiset_table

        def counting(weights, n):
            built.append((weights.copy(), n))
            return real(weights, n)

        monkeypatch.setattr(losses, "_multiset_table", counting)
        n_neg = 3
        for emb, mix in [_zero_mass_mixture(), random_instance(31, s_points=7, k_classes=3)]:
            marg = marginal(mix)
            built.clear()
            binomial_oracle(emb, mix, n_neg, budget=1e7)
            sizes = sorted(n for w, n in built if np.array_equal(w, marg))
            assert sizes == list(range(n_neg + 1))
            per_class = sorted(n for w, n in built if not np.array_equal(w, marg))
            assert per_class == sorted(list(range(n_neg + 1)) * mix.n_classes)
            built.clear()
            unbiased_loss_exact(emb, mix, n_neg, budget=1e7)
            assert [n for _, n in built] == [n_neg] * mix.n_classes

    @staticmethod
    def rows_evaluated(mix, n_neg):
        """Rows each function evaluates: per anchor of positive mass, the
        multisets of every draw side it enumerates, from their supports."""
        def multisets(dist, n):
            return math.comb(int(np.count_nonzero(dist > 0.0)) + n - 1, n)

        marg = marginal(mix)
        live = [a for a in range(mix.n_points) if marg[a] > 0.0]
        return {
            "unbiased": sum(multisets(negative_dist(mix, a), n_neg) for a in live),
            "oracle": sum(multisets(positive_dist(mix, a), k) * multisets(marg, n_neg - k)
                          for a in live for k in range(n_neg + 1)),
        }

    @pytest.mark.parametrize("name, fn", [("unbiased", unbiased_loss_exact),
                                          ("oracle", binomial_oracle)], ids=["unbiased", "oracle"])
    def test_budget_counts_rows_evaluated(self, name, fn):
        for emb, mix in [_zero_mass_mixture(), random_instance(5, s_points=10, k_classes=3)]:
            rows = self.rows_evaluated(mix, 4)[name]
            fn(emb, mix, 4, budget=rows)
            with pytest.raises(BudgetExceeded, match=f"^{rows} enumerated rows exceed"):
                fn(emb, mix, 4, budget=rows - 1)

    @staticmethod
    def reference_inner(emb, mix, tau_plus):
        """Per-anchor loop over the inner expectation; None for zero mass."""
        marg = marginal(mix)
        expm = np.exp(emb @ emb.T)
        return [None if marg[a] == 0.0 else
                (marg @ expm[a] - tau_plus * positive_dist(mix, a) @ expm[a]) / (1.0 - tau_plus)
                for a in range(mix.n_points)]

    def test_negative_denominator_names_first_live_anchor(self):
        emb, mix = _zero_mass_mixture()
        inner = self.reference_inner(emb, mix, 0.685)
        first = next(a for a, v in enumerate(inner) if v is not None and v <= 0.0)
        # The zero-mass anchor 1 and anchor 0 come first but must not be named.
        assert first == 2 and inner[0] > 0.0
        with pytest.raises(NegativeDenominator, match=f"at anchor {first} "):
            asymptotic_debiased_exact(emb, mix, q=3.0, tau_plus=0.685)

    def test_zero_mass_anchor_never_raises(self):
        emb, mix = _zero_mass_mixture()
        live = [v for v in self.reference_inner(emb, mix, 0.613) if v is not None]
        assert min(live) > 0.0
        assert np.exp(emb[1] @ emb.T) @ (marginal(mix) - 0.613 * positive_dist(mix, 1)) <= 0.0
        got = asymptotic_debiased_exact(emb, mix, q=3.0, tau_plus=0.613).value
        sims = emb @ emb.T
        marg = marginal(mix)
        expect = sum(marg[a] * positive_dist(mix, a)[b]
                     * (math.log(math.exp(sims[a, b]) + 3.0 * inner) - sims[a, b])
                     for a, inner in enumerate(self.reference_inner(emb, mix, 0.613))
                     if inner is not None for b in range(mix.n_points))
        assert got == pytest.approx(expect, rel=1e-12)


class TestSupervisedLosses:
    def test_softmax_ce_arithmetic(self):
        ce, probs = softmax_cross_entropy(np.array([[1.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-15)
        val = float(ce[0])
        assert val == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_constant_embedding_gives_log_k(self):
        mix = preset_mixture("paper-uniform")
        emb = np.tile([1.0, 0.0, 0.0], (mix.n_points, 1))
        assert mean_classifier_loss(emb, mix).value == pytest.approx(math.log(10), abs=1e-12)

    def test_separated_means_beat_log_k(self):
        # f(x) = one-hot class mean: correct logit strictly largest.
        mix = random_mixture(substream(2), 8, 4)
        emb = np.eye(4)[mix.labels]
        assert mean_classifier_loss(emb, mix).value < math.log(4)

    def test_rotation_invariance_supervised(self):
        emb, mix = random_instance(14, s_points=6, k_classes=3, embed_dim=5)
        rot = random_orthogonal(substream(15), 5)
        a = mean_classifier_loss(emb, mix).value
        b = mean_classifier_loss(emb @ rot.T, mix).value
        assert a == pytest.approx(b, abs=1e-12)


class TestRotationInvarianceAcrossFamily:
    def test_exact_losses_invariant(self):
        emb, mix = random_instance(16, s_points=6, k_classes=3, embed_dim=5)
        rot = random_orthogonal(substream(17), 5)
        rotated = emb @ rot.T
        pairs = [
            (unbiased_loss_exact(emb, mix, 2, budget=1e7).value,
             unbiased_loss_exact(rotated, mix, 2, budget=1e7).value),
            (asymptotic_debiased_exact(emb, mix, q=3.0).value,
             asymptotic_debiased_exact(rotated, mix, q=3.0).value),
            (binomial_oracle(emb, mix, 2, budget=1e7).loss.value,
             binomial_oracle(rotated, mix, 2, budget=1e7).loss.value),
        ]
        for a, b in pairs:
            assert a == pytest.approx(b, abs=1e-12)
