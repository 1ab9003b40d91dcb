"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A pass is a list of named steps (``steps``), each a call the harness times
on its own; a step's return value (an exit code, or None if it raised) is
handed to ``check`` under the step's name.  Every workload drives
``contrastlab.cli.main`` in-process where a CLI path exists, because the CLI
is what users run.  A pass writes its artifacts to
a fresh directory; the checks read them back and test invariants that hold
for any correct program (certificate counts, pass flags re-derived from
lhs/rhs, finite and falling losses, accuracy well above chance).  Each
check counts one operation: a certificate, a rate fit, or one
train-plus-probe run.

Workloads (full size):

* ``certify``: ``verify thm3 --set instances=1`` (48 certificates at 1e5
  trials) then ``verify rate`` (N-sweep 4..1024 at M = 10240).  Monte Carlo
  count sampling does the work; nothing trains or enumerates.
* ``direction``: ``train --config configs/direction.txt --set seeds=<seed>``,
  three 1600-step trainings each followed by a 4-replica probe.  Training
  layers and the probe do the work; no certificate runs.
* ``exact``: ``oracle_certificate`` at the N = 8 cap on one S = 10 and one
  S = 12 mixture (fixed class sizes, so the load does not depend on the
  seed), then ``verify lemma4`` (3600 chain certificates) and
  ``gradcheck`` at its default seed (200 finite-difference cases at B <= 4).  Exact enumeration
  and tiny matrices do the work; no Monte Carlo, no training.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import contrastlab.cli as cli
import contrastlab.verification as verification
from contrastlab.geometry import unit_rows
from contrastlab.rng import substream
from contrastlab.worldmodel import DiscreteClassMixture

ROOT = Path(__file__).resolve().parent.parent
DIRECTION_CONFIG = ROOT / "configs" / "direction.txt"

MIN_PROBE_ACCURACY = 0.5  # five times the 1/K = 0.1 chance level of sphere-k10
ORACLE_N = 8              # the oracle's cap on N
ORACLE_BUDGET = 1e11      # 12^8 * 12^2 ~ 6.2e10 exceeds the 1e9 default
ORACLE_CLASSES = 3
ORACLE_TOLERANCE = 1e-9   # relative error of the series against enumeration
LEMMA4_FP_TOL = 1e-9      # lemma4_chain_check's default allowance


class Outcome:
    """Operations attempted and failed in one pass, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def lost(self, count: int, what: str) -> None:
        """``count`` operations whose outputs are missing or unreadable."""
        self.attempted += count
        self.failed += count
        self.problems.append(what)


def run_cli(argv: list[str], out: Path) -> int | None:
    """One CLI command in-process; None if it raised.  Its prints go to stderr."""
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv + ["--out", str(out)])
    except Exception:  # a crash is a failed operation, reported, not fatal
        traceback.print_exc()
        return None


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_certificates(out: Path, code, expected: int, label: str, outcome: Outcome,
                        fp_tol: float = 0.0) -> None:
    """Re-derive every certificate's pass flag from its lhs, rhs and stderr."""
    try:
        report = _read_json(out / "report.json")
        records = _read_json(out / "certificates.json")
    except (OSError, ValueError) as exc:
        outcome.lost(expected, f"{label}: unreadable artifacts ({exc})")
        return
    for rec in records[:expected]:
        ok = (code == 0 and not rec.get("skipped", False) and rec.get("passed") is True
              and _finite(rec["lhs"], rec["rhs"], rec["stderr"])
              and rec["lhs"] <= rec["rhs"] + 3.0 * rec["stderr"] + fp_tol)
        outcome.op(ok, f"{label}: exit {code}, certificate {rec.get('meta')}")
    if len(records) != expected or report["certificates_total"] != expected:
        outcome.lost(abs(expected - len(records)) or 1,
                     f"{label}: {len(records)} certificates, expected {expected}")


class Certify:
    name = "certify"
    layers = ("verification.theorem3_certificate", "verification.rate_fit",
              "losses.asymptotic_debiased_exact", "cli.main", "rng.substream")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        thm3 = ["instances=1"]
        rate = []
        if tiny:
            thm3 += ["trials=1000", "n_grid=4,16", "m_grid=4,16"]
            rate += ["trials=1000"]
        self.thm3_argv = ["verify", "thm3", "--seed", str(seed)] + _sets(thm3)
        self.rate_argv = ["verify", "rate", "--seed", str(seed)] + _sets(rate)

    def steps(self, out: Path) -> list:
        return [("thm3", functools.partial(run_cli, self.thm3_argv, out / "thm3")),
                ("rate", functools.partial(run_cli, self.rate_argv, out / "rate"))]

    def check(self, out: Path, codes: dict) -> Outcome:
        outcome = Outcome()
        try:
            cfg = _read_json(out / "thm3" / "report.json")["config"]
            expected = (int(cfg["instances"]) * len(cfg["tau_list"].split(","))
                        * len(cfg["n_grid"].split(",")) * len(cfg["m_grid"].split(",")))
        except (OSError, ValueError, KeyError) as exc:
            outcome.lost(1, f"thm3: unreadable report ({exc})")
        else:
            _check_certificates(out / "thm3", codes["thm3"], expected, "thm3", outcome)
        try:
            cfg = _read_json(out / "rate" / "report.json")["config"]
            fit = _read_json(out / "rate" / "ratefit.json")
        except (OSError, ValueError, KeyError) as exc:
            outcome.lost(1, f"rate: unreadable artifacts ({exc})")
            return outcome
        ok = (codes["rate"] == 0 and fit["status"] == "ok" and fit["passed"] is True
              and _finite(fit["slope"], fit["r2"])
              and float(cfg["slope_min"]) <= fit["slope"] <= float(cfg["slope_max"])
              and fit["r2"] >= float(cfg["r2_min"])
              and len(fit["grid"]) == len(cfg["sweep_grid"].split(",")))
        outcome.op(ok, f"rate: status={fit['status']} slope={fit['slope']} r2={fit['r2']}")
        return outcome

    def work_counts(self, out: Path) -> dict:
        records = _read_json(out / "thm3" / "certificates.json")
        fit = _read_json(out / "rate" / "ratefit.json")
        trials = sum(r["trials"] for r in records)
        draws = sum(r["trials"] * (r["meta"]["n_neg"] + r["meta"]["m_pos"]) for r in records)
        meta = fit["meta"]
        for point in fit["grid"]:
            trials += meta["trials"]
            draws += meta["trials"] * (point["size"] + meta["other"])
        return {"verification.theorem3_certificate.calls": len(records),
                "verification.rate_fit.calls": 1,
                "verification.mc_trials": trials, "verification.mc_draws": draws}


class Direction:
    name = "direction"
    layers = ("losses.batch_terms", "autograd.loss_and_grad", "encoder.encoder_forward",
              "encoder.encoder_backward", "training.train", "training.make_batches",
              "worldmodel.sample_views", "evaluation.linear_probe",
              "experiments.direction_probe_accuracy", "cli.main", "rng.substream")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        sets = [f"seeds={seed}"]
        if tiny:
            sets += ["epochs=10", "tail_average=1", "eval_train_size=512",
                     "eval_test_size=512", "eval_replicas=1"]
        self.seed = seed
        self.argv = ["train", "--config", str(DIRECTION_CONFIG)] + _sets(sets)

    def steps(self, out: Path) -> list:
        return [("train", functools.partial(run_cli, self.argv, out / "train"))]

    def _runs(self, out: Path) -> tuple[dict, list[dict]]:
        cfg = _read_json(out / "train" / "report.json")["config"]
        rows = _read_csv(out / "train" / "probe.csv")
        return cfg, rows

    def check(self, out: Path, codes: dict) -> Outcome:
        outcome = Outcome()
        try:
            cfg, rows = self._runs(out)
        except (OSError, ValueError, KeyError) as exc:
            outcome.lost(3, f"train: unreadable artifacts ({exc})")
            return outcome
        kinds = cfg["loss_kinds"].split(",")
        if len(rows) != len(kinds):
            outcome.lost(abs(len(kinds) - len(rows)) or 1,
                         f"probe.csv has {len(rows)} rows, expected {len(kinds)}")
        epochs = int(cfg["epochs"])
        for row in rows:
            tag = f"{row['loss_kind']}_tau{float(row['tau_plus']):g}_seed{row['seed']}"
            try:
                losses = [float(r["loss"]) for r in _read_csv(out / "train" / f"train_log_{tag}.csv")]
            except (OSError, KeyError, ValueError) as exc:
                outcome.op(False, f"{tag}: unreadable train log ({exc})")
                continue
            accuracy = float(row["accuracy"])
            ok = (codes["train"] == 0 and int(row["seed"]) == self.seed
                  and len(losses) == epochs > 0 and _finite(*losses) and losses[-1] < losses[0]
                  and math.isfinite(accuracy) and MIN_PROBE_ACCURACY < accuracy <= 1.0)
            outcome.op(ok, f"{tag}: first/last loss {losses[:1]}/{losses[-1:]}, "
                           f"accuracy {accuracy}")
        return outcome

    def work_counts(self, out: Path) -> dict:
        cfg, rows = self._runs(out)
        per_epoch = int(cfg["dataset_size"]) // int(cfg["batch_size"])
        return {"training.train.calls": len(rows),
                "training.steps": len(rows) * int(cfg["epochs"]) * per_epoch}


def fixed_mixture(seed: int, s_points: int, k_classes: int,
                  embed_dim: int = 8) -> tuple[np.ndarray, DiscreteClassMixture]:
    """Random mixture whose class sizes are fixed by (S, K), plus unit embeddings."""
    rng = substream(seed, 90, s_points)
    labels = rng.permutation(np.arange(s_points) % k_classes)
    table = np.zeros((k_classes, s_points))
    for c in range(k_classes):
        idx = np.flatnonzero(labels == c)
        table[c, idx] = rng.dirichlet(np.ones(idx.size))
    mix = DiscreteClassMixture(points=rng.standard_normal((s_points, 4)), labels=labels,
                               class_conditionals=table,
                               prior=np.full(k_classes, 1.0 / k_classes),
                               tau_plus=1.0 / k_classes)
    return unit_rows(rng.standard_normal((s_points, embed_dim))), mix


class Exact:
    name = "exact"
    layers = ("losses.binomial_oracle", "losses.unbiased_loss_exact",
              "verification.oracle_certificate", "losses.asymptotic_debiased_exact",
              "losses.mean_classifier_loss", "evaluation.lemma4_chain_check",
              "evaluation.linear_probe", "autograd.finite_diff_check",
              "autograd.batch_loss_terms", "losses.batch_terms", "cli.main",
              "rng.substream")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            self.oracle_cases = [(fixed_mixture(seed, 10, ORACLE_CLASSES), 2)]
            lemma4, gradcheck = ["embeddings=2"], ["cases=6"]
        else:
            self.oracle_cases = [(fixed_mixture(seed, s, ORACLE_CLASSES), ORACLE_N)
                                 for s in (10, 12)]
            lemma4, gradcheck = [], []
        self.lemma4_argv = ["verify", "lemma4", "--seed", str(seed)] + _sets(lemma4)
        # gradcheck keeps its default master seed.  On some others (6 and 12
        # among 0..20) a zero-floor case floors every anchor, so the true
        # gradient is exactly 0 and max_rel_err = round-off / 1e-12 ~ 1e-4
        # trips the 1e-5 gate: a false alarm of the metric, not of the gradient.
        self.gradcheck_argv = ["gradcheck"] + _sets(gradcheck)

    def steps(self, out: Path) -> list:
        oracle = [(f"oracle{i}", functools.partial(self._oracle, case,
                                                   out / "oracle" / f"{i}.json"))
                  for i, case in enumerate(self.oracle_cases)]
        return oracle + [
            ("lemma4", functools.partial(run_cli, self.lemma4_argv, out / "lemma4")),
            ("gradcheck", functools.partial(run_cli, self.gradcheck_argv, out / "gradcheck"))]

    @staticmethod
    def _oracle(case, path: Path) -> None:
        """One oracle certificate, its record (None if it raised) written to ``path``."""
        (emb, mix), n_neg = case
        try:
            record = verification.oracle_certificate(emb, mix, n_neg,
                                                     budget=ORACLE_BUDGET).to_record()
        except Exception:  # a crash is a failed operation, reported, not fatal
            traceback.print_exc()
            record = None
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    def _lemma4_expected(self, cfg: dict) -> int:
        k_list = [int(k) for k in cfg["k_list"].split(",")]
        factor = int(cfg["n_max_factor"])
        per_embedding = sum(factor * k - (k - 1) + 1
                            for k in (k_list[mi % len(k_list)] for mi in range(int(cfg["mixtures"]))))
        return per_embedding * int(cfg["embeddings"])

    def check(self, out: Path, codes: dict) -> Outcome:
        outcome = Outcome()
        for i in range(len(self.oracle_cases)):
            try:
                rec = _read_json(out / "oracle" / f"{i}.json")
            except (OSError, ValueError) as exc:
                outcome.lost(1, f"oracle {i}: unreadable record ({exc})")
                continue
            ok = (rec is not None and rec["passed"] is True and _finite(rec["lhs"])
                  and rec["lhs"] <= ORACLE_TOLERANCE)
            outcome.op(ok, f"oracle: relative error {rec and rec['lhs']}")
        try:
            cfg = _read_json(out / "lemma4" / "report.json")["config"]
            expected = self._lemma4_expected(cfg)
        except (OSError, ValueError, KeyError) as exc:
            outcome.lost(1, f"lemma4: unreadable report ({exc})")
        else:
            # lemma4 certificates are exact: stderr is 0, slack is fp_tol.
            _check_certificates(out / "lemma4", codes["lemma4"], expected, "lemma4",
                                outcome, fp_tol=LEMMA4_FP_TOL)
        try:
            cfg = _read_json(out / "gradcheck" / "report.json")["config"]
            rows = _read_csv(out / "gradcheck" / "gradcheck.csv")
            errors = [float(r["max_rel_err"]) for r in rows]
        except (OSError, ValueError, KeyError) as exc:
            outcome.lost(1, f"gradcheck: unreadable artifacts ({exc})")
            return outcome
        ok = (codes["gradcheck"] == 0 and len(rows) == int(cfg["cases"])
              and _finite(*errors) and max(errors) <= float(cfg["tolerance"]))
        outcome.op(ok, f"gradcheck: exit {codes['gradcheck']}, worst {max(errors, default=None)}")
        return outcome

    def work_counts(self, out: Path) -> dict:
        lemma4 = _read_json(out / "lemma4" / "report.json")
        gradcheck = _read_json(out / "gradcheck" / "report.json")
        return {"verification.oracle_certificate.calls": len(self.oracle_cases),
                "evaluation.lemma4_chain_check.calls": lemma4["certificates_total"],
                "autograd.finite_diff_check.calls": int(gradcheck["config"]["cases"])}


def _sets(items: list[str]) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


WORKLOADS = {cls.name: cls for cls in (Certify, Direction, Exact)}
