"""Bound certificates: frozen constants, reproducibility, and pass behavior."""

import math

import numpy as np
import pytest

from contrastlab.errors import InsufficientGrid, NegativeDenominator
from contrastlab.losses import (
    DEFAULT_ENUM_BUDGET,
    _contrastive_losses,
    _enumerated_losses,
    asymptotic_debiased_exact,
    unbiased_loss_exact,
)
from contrastlab.rng import substream
from contrastlab.verification import (
    GridPoint,
    SweepSpec,
    _draw_monte_carlo,
    lemma1_certificate,
    oracle_certificate,
    rate_fit,
    theorem3_certificate,
    theorem3_draws,
    theorem5_constants,
)
from contrastlab.worldmodel import (
    marginal,
    negative_dist,
    positive_dist,
    preset_mixture,
    random_mixture,
)

from conftest import random_instance, random_unit_rows, skewed_instance


def _count_side_means(monkeypatch):
    """Record the size of every per-trial mean the draw engine samples."""
    import contrastlab.verification as verification

    sizes = []
    real = verification._grouped_mean_exp

    def counting(*args, **kwargs):
        sizes.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, "_grouped_mean_exp", counting)
    return sizes


def _asymptotic_negative_sum(emb, mix, n_neg):
    """E[log(e^{s+} + N E_neg e^s) - s+], summed term by term."""
    sims = emb @ emb.T
    marg = marginal(mix)
    expected = 0.0
    for a in range(mix.n_points):
        den = sum(q * math.exp(sims[a, j]) for j, q in enumerate(negative_dist(mix, a)))
        for p, w in enumerate(positive_dist(mix, a)):
            if marg[a] > 0.0 and w > 0.0:
                expected += marg[a] * w * (math.log(math.exp(sims[a, p]) + n_neg * den)
                                           - sims[a, p])
    return expected


def test_asymptotic_debiased_takes_one_tau_plus_per_anchor():
    emb, mix = random_instance(33)
    for tau in (0.0, 0.1, mix.tau_plus):
        scalar = asymptotic_debiased_exact(emb, mix, q=4.0, tau_plus=tau).value
        per_anchor = asymptotic_debiased_exact(emb, mix, q=4.0,
                                               tau_plus=np.full(mix.n_points, tau)).value
        assert per_anchor == scalar
    # At each anchor's class prior, the asymptotic true-negative loss.
    emb, mix = skewed_instance(3)
    got = asymptotic_debiased_exact(emb, mix, q=4.0, tau_plus=mix.prior[mix.labels]).value
    assert got == pytest.approx(_asymptotic_negative_sum(emb, mix, 4), rel=1e-12)


class TestLemma1Certificate:
    def test_constant_embedding_margin(self):
        # All similarities equal: both losses are log(1+N) and the exact gap
        # term is min(0, log 1) = 0, so the margin alone provides the slack.
        mix = preset_mixture("paper-uniform")
        emb = np.tile([1.0, 0.0], (mix.n_points, 1))
        cert = lemma1_certificate(emb, mix, n_neg=4, trials=2000, seed=3)
        assert cert.passed
        assert cert.meta["gap_term"] == pytest.approx(0.0, abs=1e-12)
        assert cert.lhs == pytest.approx(
            math.log(5) - math.exp(1.5) * math.sqrt(math.pi / 8), abs=1e-9)
        assert cert.rhs == pytest.approx(math.log(5), abs=1e-9)

    def test_margin_constant_n10(self):
        # e^{3/2} sqrt(pi/20), frozen from direct evaluation.
        emb, mix = random_instance(11)
        cert = lemma1_certificate(emb, mix, n_neg=10, trials=1000, seed=4)
        assert cert.meta["margin"] == pytest.approx(1.7762400631853357, abs=1e-12)

    def test_randomized_instances_pass(self):
        for seed in range(5):
            emb, mix = random_instance(700 + seed, s_points=7, k_classes=3)
            for n_neg in (1, 4, 16):
                cert = lemma1_certificate(emb, mix, n_neg, trials=20000,
                                          seed=seed * 10 + n_neg)
                assert cert.passed, cert

    def test_reproducible_to_the_bit(self):
        emb, mix = random_instance(12)
        a = lemma1_certificate(emb, mix, 4, trials=5000, seed=99)
        b = lemma1_certificate(emb, mix, 4, trials=5000, seed=99)
        assert (a.lhs, a.rhs, a.mc_stderr) == (b.lhs, b.rhs, b.mc_stderr)

    def test_records_asymptotic_value(self):
        emb, mix = random_instance(13)
        cert = lemma1_certificate(emb, mix, 4, trials=2000, seed=1)
        expect = asymptotic_debiased_exact(emb, mix, q=4.0).value
        assert cert.meta["asymptotic_unbiased"] == pytest.approx(expect, rel=1e-12)

    def test_trials_floor(self):
        emb, mix = random_instance(14)
        with pytest.raises(ValueError):
            lemma1_certificate(emb, mix, 4, trials=10, seed=0)

    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_asymptotic_unbiased_is_the_negative_sum(self, skewed):
        # Under a uniform prior it is the asymptotic debiased loss at the
        # class prior; under another prior it is not.
        emb, mix = skewed_instance(3) if skewed else random_instance(32)
        n_neg = 4
        expected = _asymptotic_negative_sum(emb, mix, n_neg)
        cert = lemma1_certificate(emb, mix, n_neg, trials=1000, seed=6)
        got = cert.meta["asymptotic_unbiased"]
        assert got == pytest.approx(expected, rel=1e-12)
        debiased = asymptotic_debiased_exact(emb, mix, q=float(n_neg)).value
        if skewed:
            assert got != pytest.approx(debiased, rel=1e-3)
        else:
            assert got == pytest.approx(debiased, rel=1e-12)

    def test_draws_one_marginal_and_one_negative_mean(self, monkeypatch):
        sizes = _count_side_means(monkeypatch)
        emb, mix = random_instance(31)
        lemma1_certificate(emb, mix, 4, trials=2000, seed=5)
        assert sizes == [4, 4]


class TestLemma1AgainstExact:
    # Criterion 5's first three instances and seeds, at N = 1 and 4.
    @pytest.mark.parametrize("n_neg", [1, 4])
    @pytest.mark.parametrize("inst", [0, 1, 2])
    def test_each_side_within_four_sigma_of_exact(self, inst, n_neg):
        gen = substream(60_000 + inst)
        k = int(gen.integers(2, 6))
        mix = random_mixture(gen, max(6, k + 1), k)
        emb = random_unit_rows(gen, mix.n_points, 8)
        seed, trials = int(substream(61_000, inst, n_neg).integers(2 ** 62)), 100_000
        cert = lemma1_certificate(emb, mix, n_neg, trials, seed)
        draws = _draw_monte_carlo(emb, mix, trials, (seed, 1),
                                  marginal=(n_neg,), negative=(n_neg,))
        sides = {"marginal": _enumerated_losses(emb, mix, [[("marginal", n_neg)]],
                                                DEFAULT_ENUM_BUDGET)[0],
                 "negative": unbiased_loss_exact(emb, mix, n_neg).value}
        means = {}
        for side, exact in sides.items():
            tail = getattr(draws, side)[n_neg] * n_neg
            losses = _contrastive_losses(draws.s_pos, draws.h_pos, tail)
            means[side] = float(losses.mean())
            stderr = float(losses.std(ddof=1)) / math.sqrt(trials)
            assert abs(means[side] - exact) <= 4.0 * stderr, (side, means[side], exact, stderr)
        # The certificate reads the same draws: its rhs is the marginal side,
        # and its lhs the true-negative side less the margin plus the gap term.
        assert cert.rhs == means["marginal"]
        assert cert.lhs == means["negative"] + cert.meta["gap_term"] - cert.meta["margin"]


def _one_cell_certificate(emb, mix, n_neg, m_pos, tau_plus, trials, seed):
    """A thm3 certificate read from draws made for its (N, M) cell alone."""
    draws = theorem3_draws(emb, mix, (n_neg,), (m_pos,), trials, seed)
    return theorem3_certificate(emb, mix, n_neg, m_pos, tau_plus, trials, seed, draws=draws)


class TestTheorem3Certificate:
    def test_rhs_formula_frozen(self):
        # N=100, M=10, tau+=0.1: frozen from direct evaluation.
        emb, mix = random_instance(15, k_classes=5)
        cert = _one_cell_certificate(emb, mix, 100, 10, 0.1, trials=1000, seed=2)
        assert cert.rhs == pytest.approx(0.8214671482324881, abs=1e-12)

    def test_tau_zero_kills_m_term(self):
        emb, mix = random_instance(16, k_classes=5)
        a = _one_cell_certificate(emb, mix, 50, 1, 0.0, trials=1000, seed=3)
        b = _one_cell_certificate(emb, mix, 50, 1000, 0.0, trials=1000, seed=3)
        expect = math.exp(1.5) * math.sqrt(math.pi / 100)
        assert a.rhs == pytest.approx(expect, abs=1e-12)
        assert b.rhs == pytest.approx(expect, abs=1e-12)

    def test_grid_passes(self):
        emb, mix = random_instance(17, k_classes=5)
        for n_neg in (4, 64):
            for m_pos in (4, 64):
                cert = _one_cell_certificate(emb, mix, n_neg, m_pos, 0.1,
                                             trials=20000, seed=n_neg + m_pos)
                assert cert.passed, cert

    def test_negative_denominator_propagates(self):
        mix = preset_mixture("two-point")
        with pytest.raises(NegativeDenominator):
            _one_cell_certificate(np.eye(2), mix, 4, 4, 0.9, trials=1000, seed=0)

    def test_gap_shrinks_with_n(self):
        # Monotone decrease of the mean gap in N (with M held large).
        emb, mix = random_instance(18, k_classes=4)
        sweep = SweepSpec(variable="N", grid=(4, 16, 64, 256, 1024), other=10240)
        fit = rate_fit(emb, mix, sweep, trials=20000, seed=5)
        gaps = [p.mean_gap for p in fit.points]
        errs = [p.stderr for p in fit.points]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + 3 * (errs[i] + errs[i + 1])


class TestTheorem3Draws:
    def test_draw_order_pairs_then_each_n_then_each_m(self):
        # One stream: (anchor, positive) pairs, the marginal side per N, then
        # the positive side per M.  A grid therefore shares its pairs and first
        # marginal mean with the 1x1x1 set, while its first positive mean
        # comes after every marginal mean.
        emb, mix = random_instance(25, k_classes=5)
        grid = theorem3_draws(emb, mix, (4, 16), (4, 16), trials=2000, seed=12)
        one = theorem3_draws(emb, mix, (4,), (4,), trials=2000, seed=12)
        assert np.array_equal(grid.anchors, one.anchors)
        assert np.array_equal(grid.s_pos, one.s_pos)
        assert np.array_equal(grid.marginal[4], one.marginal[4])
        assert not np.array_equal(grid.positive[4], one.positive[4])
        for n_neg in (4, 16):
            for m_pos in (4, 16):
                assert theorem3_certificate(emb, mix, n_neg, m_pos, 0.1, 2000, 12,
                                            draws=grid).passed

    @pytest.mark.parametrize("change", [
        {"trials": 3000}, {"n_neg": 64}, {"m_pos": 64}, {"seed": 14},
    ])
    def test_mismatched_draws_raise(self, change):
        emb, mix = random_instance(26, k_classes=5)
        draws = theorem3_draws(emb, mix, (4, 16), (4, 16), trials=2000, seed=13)
        args = {"n_neg": 16, "m_pos": 4, "trials": 2000, "seed": 13} | change
        with pytest.raises(ValueError, match="draws"):
            theorem3_certificate(emb, mix, args["n_neg"], args["m_pos"], 0.1,
                                 args["trials"], args["seed"], draws=draws)

    def test_draws_of_another_instance_raise(self):
        emb, mix = random_instance(27, k_classes=5)
        other_emb, other_mix = random_instance(28, k_classes=5)
        draws = theorem3_draws(emb, mix, (4,), (4,), trials=2000, seed=15)
        with pytest.raises(ValueError, match="draws"):
            theorem3_certificate(other_emb, mix, 4, 4, 0.1, 2000, 15, draws=draws)
        with pytest.raises(ValueError, match="draws"):
            theorem3_certificate(emb, other_mix, 4, 4, 0.1, 2000, 15, draws=draws)

    def test_exact_value_computed_once_per_tau_and_n(self, monkeypatch):
        import contrastlab.verification as verification

        calls = []
        real = verification.asymptotic_debiased_exact

        def counting(*args, **kwargs):
            calls.append((kwargs["q"], kwargs["tau_plus"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(verification, "asymptotic_debiased_exact", counting)
        emb, mix = random_instance(29, k_classes=5)
        draws = theorem3_draws(emb, mix, (4, 16), (4, 16, 64), trials=1000, seed=16)
        for tau in (0.05, 0.1):
            for n_neg in (4, 16):
                for m_pos in (4, 16, 64):
                    theorem3_certificate(emb, mix, n_neg, m_pos, tau, 1000, 16, draws=draws)
        assert sorted(calls) == [(4.0, 0.05), (4.0, 0.1), (16.0, 0.05), (16.0, 0.1)]

    def test_trials_floor(self):
        emb, mix = random_instance(30)
        with pytest.raises(ValueError):
            theorem3_draws(emb, mix, (4,), (4,), trials=10, seed=0)


class TestRateFit:
    def test_slope_near_square_root(self):
        emb, mix = random_instance(19, k_classes=5)
        sweep = SweepSpec(variable="N", grid=(4, 16, 64, 256, 1024), other=10240)
        fit = rate_fit(emb, mix, sweep, trials=50000, seed=6)
        assert fit.status == "ok"
        assert -0.65 <= fit.slope <= -0.35
        assert fit.r2 >= 0.9

    def test_constant_embedding_degenerate(self):
        mix = preset_mixture("paper-uniform")
        emb = np.tile([1.0, 0.0], (mix.n_points, 1))
        sweep = SweepSpec(variable="N", grid=(4, 16, 64, 256, 1024), other=10240)
        fit = rate_fit(emb, mix, sweep, trials=2000, seed=7)
        assert fit.status == "degenerate"
        assert math.isnan(fit.slope)

    def test_m_sweep_with_tau_zero_not_identifiable(self):
        emb, mix = random_instance(20, k_classes=4)
        sweep = SweepSpec(variable="M", grid=(4, 16, 64, 256, 1024),
                          other=10240, tau_plus=0.0)
        fit = rate_fit(emb, mix, sweep, trials=5000, seed=8)
        assert fit.status == "not-identifiable"

    def test_grid_preconditions(self):
        emb, mix = random_instance(21)
        with pytest.raises(InsufficientGrid):
            rate_fit(emb, mix, SweepSpec(grid=(4, 16, 64), other=10240), 2000, 0)
        with pytest.raises(InsufficientGrid):
            rate_fit(emb, mix, SweepSpec(grid=(4, 8, 16, 32), other=10240), 2000, 0)
        with pytest.raises(InsufficientGrid):
            rate_fit(emb, mix, SweepSpec(grid=(4, 16, 64, 512), other=1024), 2000, 0)

    @pytest.mark.parametrize("variable,sizes", [
        ("N", [4, 16, 64, 256, 1024, 10240]), ("M", [10240, 4, 16, 64, 256, 1024]),
    ])
    def test_one_draw_set_per_sweep(self, monkeypatch, variable, sizes):
        # The fixed size once and one mean per grid point, marginal side (N)
        # first: 6 count-sampling calls, where a draw set per point makes 10.
        drawn = _count_side_means(monkeypatch)
        emb, mix = random_instance(32, k_classes=4)
        sweep = SweepSpec(variable=variable, grid=(4, 16, 64, 256, 1024), other=10240)
        rate_fit(emb, mix, sweep, trials=2000, seed=10)
        assert drawn == sizes

    @pytest.mark.parametrize("tau_plus, error, match", [
        (0.5, NegativeDenominator, "at anchor 3 "), (1.5, ValueError, "tau_plus must lie"),
    ], ids=["above-prior", "out-of-range"])
    def test_invalid_tau_rejected_before_drawing(self, monkeypatch, tau_plus, error, match):
        # K = 4: tau+ = 0.5 lies above the class prior, and anchor 3 is the
        # first whose inner expectation goes nonpositive; 1.5 is out of range.
        drawn = _count_side_means(monkeypatch)
        emb, mix = random_instance(20, k_classes=4)
        with pytest.raises(error, match=match) as exact:
            asymptotic_debiased_exact(emb, mix, q=4.0, tau_plus=tau_plus)
        sweep = SweepSpec(variable="N", grid=(4, 16, 64, 400), other=4000, tau_plus=tau_plus)
        with pytest.raises(error) as fitted:
            rate_fit(emb, mix, sweep, trials=2000, seed=9)
        assert str(fitted.value) == str(exact.value)
        assert drawn == []

    def test_grid_points_recorded(self):
        emb, mix = random_instance(22, k_classes=4)
        sweep = SweepSpec(variable="N", grid=(4, 16, 64, 400), other=4000)
        fit = rate_fit(emb, mix, sweep, trials=2000, seed=9)
        assert [p.size for p in fit.points] == [4, 16, 64, 400]
        assert all(isinstance(p, GridPoint) and p.stderr > 0 for p in fit.points)


class TestTheorem5Constants:
    def test_tau_zero_symmetric(self):
        for n in (1, 10, 100):
            lam, bound = theorem5_constants(n, n, 0.0)
            assert lam == pytest.approx(math.sqrt(2), abs=1e-12)
            assert bound == pytest.approx(math.log(n), abs=1e-12)

    def test_frozen_values(self):
        lam, _ = theorem5_constants(256, 1, 0.1)
        assert lam == pytest.approx(1.9517659778003011, abs=1e-12)
        _, bound = theorem5_constants(100, 7, 0.1)
        assert bound == pytest.approx(5.577372780807801, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem5_constants(0, 1, 0.1)
        with pytest.raises(ValueError):
            theorem5_constants(1, 1, 1.0)


class TestOracleCertificate:
    def test_passes_and_records_condition_number(self):
        emb, mix = random_instance(23, s_points=7, k_classes=3)
        cert = oracle_certificate(emb, mix, 4, budget=1e10)
        assert cert.passed
        assert cert.lhs <= 1e-9
        assert cert.meta["condition_number"] >= 1.0
        assert cert.mc_stderr == 0.0
