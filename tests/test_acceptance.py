"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its runtime against the stated budget.

Full-scale benchmark numbers are not reproducible at desk scale; these are
property-based and direction-only statistical checks, run at the pinned
tolerances.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from contrastlab.autograd import LossSpec, finite_diff_check
from contrastlab.cli import main
from contrastlab.encoder import ViewBatch, init_params
from contrastlab.evaluation import lemma4_chain_check, lemma4_terms
from contrastlab.losses import (
    asymptotic_debiased_exact,
    biased_loss_point,
    binomial_oracle,
    debiased_loss_batch,
    debiased_loss_point,
    mean_classifier_loss,
    unbiased_loss_exact,
)
from contrastlab.rng import substream
from contrastlab.verification import (
    SweepSpec,
    lemma1_certificate,
    rate_fit,
    theorem3_certificate,
    theorem3_draws,
    theorem5_constants,
)
from contrastlab.worldmodel import random_mixture

from conftest import random_unit_rows

DIRECTION_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "direction.txt"


def _finish(num: int, desc: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"\n[PASS] criterion {num}: {desc} ({elapsed:.1f}s < {budget:.0f}s)")


class TestAcceptance:
    def test_criterion_1_reduction_identity(self):
        # tau+ = 0, clamp-inactive debiased equals biased, 1000 random batch
        # configurations, abs err <= 1e-12.
        started = time.perf_counter()
        worst = 0.0
        for case in range(600):
            gen = substream(10_000 + case)
            n = int(gen.integers(1, 9))
            s_pos = float(gen.uniform(-1, 1))
            su = gen.uniform(-1, 1, n)
            sv = gen.uniform(-1, 1, int(gen.integers(1, 4)))
            deb = debiased_loss_point(s_pos, su, sv, tau_plus=0.0).value
            bia = biased_loss_point(s_pos, su, q=float(n)).value
            worst = max(worst, abs(deb - bia))
        for case in range(400):
            gen = substream(20_000 + case)
            b = int(gen.integers(2, 6))
            t = float(gen.uniform(0.3, 1.5))
            va = random_unit_rows(gen, b, 6)
            vb = random_unit_rows(gen, b, 6)
            deb = debiased_loss_batch(va, vb, tau_plus=0.0, t=t).value
            f = np.concatenate([va, vb])
            sims = f @ f.T / t
            vals = []
            for r in range(2 * b):
                partner = (r + b) % (2 * b)
                negs = [sims[r, j] for j in range(2 * b) if j not in (r, partner)]
                vals.append(biased_loss_point(sims[r, partner], negs).value)
            worst = max(worst, abs(deb - float(np.mean(vals))))
        assert worst <= 1e-12, worst
        _finish(1, f"tau+=0 reduction, 1000 configs, worst abs err {worst:.2e}",
                started, 5.0)

    def test_criterion_2_oracle_equivalence(self):
        # Inclusion-exclusion oracle vs direct enumeration: 50 random
        # mixtures, S <= 10, N <= 6, rel err <= 1e-9, condition number reported.
        started = time.perf_counter()
        worst_rel = 0.0
        worst_cond = 0.0
        for seed in range(50):
            gen = substream(30_000 + seed)
            k = int(gen.integers(2, 5))
            s = int(gen.integers(k + 1, 11))
            n = int(gen.integers(1, 7))
            mix = random_mixture(gen, s, k)
            emb = random_unit_rows(gen, s, 6)
            oracle = binomial_oracle(emb, mix, n, budget=1e12)
            exact = unbiased_loss_exact(emb, mix, n, budget=1e12).value
            rel = abs(oracle.loss.value - exact) / abs(exact)
            worst_rel = max(worst_rel, rel)
            worst_cond = max(worst_cond, oracle.condition_number)
            assert rel <= 1e-9, (seed, rel)
        _finish(2, f"oracle equivalence, worst rel err {worst_rel:.2e}, "
                   f"worst condition number {worst_cond:.1f}", started, 60.0)

    def test_criterion_3_gradient_exactness(self):
        # Analytic vs central differences, all loss kinds, 200 random
        # configurations, max rel err <= 1e-6; straddling points excluded
        # and counted.
        started = time.perf_counter()
        kinds = ("biased", "debiased", "unbiased")
        worst = 0.0
        excluded_total = 0
        for case in range(200):
            gen = substream(40_000 + case)
            kind = kinds[case % 3]
            tau = 0.0 if kind == "biased" else float(gen.uniform(0.0, 0.3))
            m = int(gen.integers(1, 3))
            b = int(gen.integers(2, 4))
            labels = np.concatenate(([0, 1], gen.integers(0, 3, size=b - 2)))
            batch = ViewBatch(features=gen.standard_normal(((m + 1) * b, 4)),
                              batch_size=b, m_positives=m, labels=labels)
            params = init_params(gen, 4, int(gen.integers(2, 4)))
            spec = LossSpec(kind=kind, tau_plus=tau,
                            temperature=float(gen.uniform(0.3, 1.5)))
            report = finite_diff_check(params, batch, spec, step=1e-6)
            worst = max(worst, report.max_rel_err)
            excluded_total += len(report.excluded)
        assert worst <= 1e-6, worst
        _finish(3, f"gradient exactness, worst rel err {worst:.2e}, "
                   f"{excluded_total} straddling coords excluded", started, 30.0)

    def test_criterion_4_theorem3_certification(self):
        # Grid N, M in {4,16,64,256}^2, tau+ in {0.05,0.1,0.2}, 1e5 trials,
        # 10 random instances; every certificate passes at 3-sigma slack.
        # Each instance draws once, as `verify thm3` does, and every cell of
        # the instance reads those draws.
        # Rate fit on the N-sweep: slope in [-0.65, -0.35], r2 >= 0.9.
        started = time.perf_counter()
        grid = (4, 16, 64, 256)
        taus = (0.05, 0.1, 0.2)
        checked = 0
        for inst in range(10):
            gen = substream(50_000 + inst)
            # K = 5 keeps every override tau+ at or below the true prior 0.2,
            # so the exact denominator stays positive.
            mix = random_mixture(gen, 8, 5)
            emb = random_unit_rows(gen, 8, 8)
            seed = int(substream(51_000, inst).integers(2 ** 62))
            draws = theorem3_draws(emb, mix, grid, grid, trials=100_000, seed=seed)
            for tau in taus:
                for n_neg in grid:
                    for m_pos in grid:
                        cert = theorem3_certificate(emb, mix, n_neg, m_pos, tau,
                                                    trials=100_000, seed=seed, draws=draws)
                        assert cert.passed, cert
                        checked += 1
        assert checked == 480
        gen = substream(52_000)
        mix = random_mixture(gen, 8, 5)
        emb = random_unit_rows(gen, 8, 8)
        fit = rate_fit(emb, mix, SweepSpec(variable="N",
                                           grid=(4, 16, 64, 256, 1024),
                                           other=10240, tau_plus=0.1),
                       trials=100_000, seed=62)
        assert fit.status == "ok"
        assert -0.65 <= fit.slope <= -0.35, fit.slope
        assert fit.r2 >= 0.9, fit.r2
        _finish(4, f"{checked} certificates pass; N-sweep slope {fit.slope:.3f}, "
                   f"r2 {fit.r2:.3f}", started, 600.0)

    def test_criterion_5_lemma1_certification(self):
        # 20 random instances, N in {1,4,16}, 1e5 trials, 3-sigma slack.
        started = time.perf_counter()
        checked = 0
        for inst in range(20):
            gen = substream(60_000 + inst)
            k = int(gen.integers(2, 6))
            mix = random_mixture(gen, max(6, k + 1), k)
            emb = random_unit_rows(gen, mix.n_points, 8)
            for n_neg in (1, 4, 16):
                cert = lemma1_certificate(
                    emb, mix, n_neg, trials=100_000,
                    seed=int(substream(61_000, inst, n_neg).integers(2 ** 62)))
                assert cert.passed, cert
                checked += 1
        _finish(5, f"{checked} certificates pass at 3-sigma slack", started, 300.0)

    def test_criterion_6_lemma4_chain(self):
        # Exact mean-classifier loss <= asymptotic debiased loss for 100
        # random embeddings x 3 mixtures x N in [K-1, 4K]; plus the
        # constant-embedding tightness case log K = log(1+N) at N = K-1.
        started = time.perf_counter()
        checked = 0
        for mi, k in enumerate((2, 3, 5)):
            gen = substream(70_000 + mi)
            mix = random_mixture(gen, 10, k)
            for ei in range(100):
                emb = random_unit_rows(substream(71_000, mi, ei), 10, 8)
                n_values = range(k - 1, 4 * k + 1)
                terms = lemma4_terms(emb, mix, False, n_values)
                for n_neg in n_values:
                    cert = lemma4_chain_check(terms, n_neg)
                    assert cert.passed, (k, ei, n_neg)
                    checked += 1
        mix = random_mixture(substream(72_000), 8, 4)
        emb = np.tile([1.0, 0.0], (8, 1))
        lhs = mean_classifier_loss(emb, mix).value
        rhs = asymptotic_debiased_exact(emb, mix, q=3.0).value
        assert abs(lhs - math.log(4)) <= 1e-12
        assert abs(rhs - math.log(4)) <= 1e-12
        _finish(6, f"{checked} chain certificates pass; tightness case exact",
                started, 120.0)

    def test_criterion_7_direction_at_desk_scale(self, tmp_path):
        # Synthetic K = 10 world, 5 seeds: mean probe accuracy ordered
        # unbiased >= debiased >= biased, and debiased > biased in >= 4 of 5.
        # The preset is configs/direction.txt, run through the train command.
        started = time.perf_counter()
        seeds = (1, 2, 3, 4, 5)
        code = main(["train", "--config", str(DIRECTION_CONFIG),
                     "--set", "seeds=" + ",".join(map(str, seeds)), "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "probe.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_seed = {(row["loss_kind"], int(row["seed"])): float(row["accuracy"]) for row in rows}
        assert len(by_seed) == len(rows) == 15
        result = {kind: [by_seed[kind, seed] for seed in seeds]
                  for kind in ("unbiased", "debiased", "biased")}
        means = {kind: float(np.mean(accs)) for kind, accs in result.items()}
        wins = sum(d > b for d, b in zip(result["debiased"], result["biased"]))
        assert means["unbiased"] >= means["debiased"] >= means["biased"], means
        assert wins >= 4, (wins, result)
        _finish(7, "accuracy ordering unbiased "
                   f"{means['unbiased']:.4f} >= debiased {means['debiased']:.4f} "
                   f">= biased {means['biased']:.4f}; debiased wins {wins}/5",
                started, 600.0)

    def test_criterion_8_determinism(self, tmp_path):
        # Any command re-run with identical config and seed produces
        # byte-identical CSV/JSON artifacts.
        started = time.perf_counter()
        commands = [
            ["train", "--seed", "2", "--set", "epochs=2", "--set", "batch_size=8",
             "--set", "dataset_size=16", "--set", "embed_dim=4",
             "--set", "eval_train_size=64", "--set", "eval_test_size=64"],
            ["verify", "lemma1", "--seed", "5", "--set", "instances=1",
             "--set", "trials=2000", "--set", "n_list=4"],
            ["verify", "thm3", "--seed", "5", "--set", "instances=1",
             "--set", "trials=2000", "--set", "n_grid=4", "--set", "m_grid=4",
             "--set", "tau_list=0.1"],
            ["gradcheck", "--seed", "4", "--set", "cases=6"],
            ["gen-data", "--seed", "6", "--set", "s_points=6", "--set", "k_classes=3"],
        ]
        for i, args in enumerate(commands):
            out1 = tmp_path / f"run{i}a"
            out2 = tmp_path / f"run{i}b"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            report = json.loads((out1 / "report.json").read_text())
            names = list(report["artifacts"]) + ["report.json"]
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                    (args[0], name)
        _finish(8, "re-runs byte-identical for train/verify/gradcheck/gen-data",
                started, 300.0)

    def test_criterion_9_theorem5_constants(self):
        # Formula evaluation against hand-computed values, 1e-9.
        started = time.perf_counter()
        frozen = [
            (1, 1, 0.0, 1.4142135623730951, 0.0),
            (4, 2, 0.05, 1.2921106227780363, 1.5285719402874582),
            (16, 16, 0.1, 1.5776995285760644, 3.3579130080459576),
            (64, 8, 0.2, 1.4552705933949188, 6.030380470871523),
            (256, 1, 0.1, 1.9517659778003011, 6.715826016091915),
            (100, 7, 0.1, 1.2140200975182127, 5.577372780807801),
            (32, 64, 0.3, 2.501489352284322, 5.990772060553813),
            (512, 512, 0.05, 1.4903242875275367, 6.878573731293562),
            (2, 9, 0.45, 4.292938175867221, 1.5721838322700576),
            (1000, 10, 0.01, 1.0201015102004074, 7.046608137620263),
        ]
        for n_neg, m_pos, tau, lam_ref, b_ref in frozen:
            lam, bound = theorem5_constants(n_neg, m_pos, tau)
            assert abs(lam - lam_ref) <= 1e-9
            assert abs(bound - b_ref) <= 1e-9
        _finish(9, "10 constant tuples match hand-computed values to 1e-9",
                started, 10.0)
