"""Command-line laboratory: train encoders, probe them, certify the bounds.

Subcommands: train, probe, verify {lemma1|thm3|rate|lemma4|oracle},
gradcheck, gen-data.  Every run writes CSV and JSON artifacts plus a
``report.json`` embedding the resolved config hash and seed, so any number
in any artifact is re-derivable.  Artifacts are byte-identical across
re-runs with the same config and seed; wall-clock metrics are therefore
written as 0 unless ``--timings`` is given.

Exit codes: 0 = success / all certificates pass, 1 = a certificate or
check failed, 2 = invalid configuration, including a parameter value the
library rejects with ``ValueError``.  A value outside its key's schema
bounds is refused by ``config.resolve``, before any command runs.  Each
command's ``--help`` ends with its config keys and their valid ranges.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import finite_diff_check
from .config import (
    SCHEMA_VERSION,
    TRAIN_RUN_KEYS,
    config_hash,
    key_listing,
    render_value,
    resolve,
)
from .encoder import ViewBatch, init_params
from .errors import ConfigError, ContrastLabError
from .evaluation import lemma4_chain_check, lemma4_terms
from .experiments import direction_probe_accuracy
from .geometry import unit_rows
from .losses import LOSS_KINDS, LossSpec
from .rng import substream
from .training import TrainConfig, checkpoint_payload, load_checkpoint, train
from .verification import (
    SweepSpec,
    lemma1_certificate,
    make_certificate,
    oracle_certificate,
    rate_fit,
    theorem3_certificate,
    theorem3_draws,
)
from .worldmodel import (
    DiscreteClassMixture,
    load_mixture,
    mixture_text,
    preset_mixture,
    preset_sphere,
    random_mixture,
)

VERIFY_CHECKS = ("lemma1", "thm3", "rate", "lemma4", "oracle")

TRAIN_LOG_HEADER = ("epoch", "loss", "wall_ms")
PROBE_HEADER = ("seed", "loss_kind", "tau_plus", "accuracy")
GRADCHECK_HEADER = ("case", "loss_kind", "tau_plus", "step", "max_rel_err", "excluded")


@dataclass
class RunReport:
    """Everything one command run produced.  :meth:`write` is the package's
    only file writer, and lists each artifact in ``report.json`` as it writes it."""

    command: str
    config: dict
    out_dir: Path
    timings: bool
    artifacts: list[str] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)
    started: float = field(default_factory=time.time)

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def write(self, name: str, text: str) -> Path:
        """Write one artifact into ``out_dir`` and list it."""
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8")
        self.artifacts.append(name)
        return path

    def csv(self, name: str, header: tuple[str, ...], rows: list[tuple]) -> Path:
        lines = [",".join(header)]
        lines += [",".join(render_value(v) for v in row) for row in rows]
        return self.write(name, "\n".join(lines) + "\n")

    def json(self, name: str, payload) -> Path:
        return self.write(name, json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def records(self, name: str, records: list[dict]) -> Path:
        """Write a JSON list of records, one sorted-key record per line.

        The same value as :meth:`json` writes, but without an indent, so the
        records go through ``json``'s C encoder instead of its Python one.
        """
        encode = json.JSONEncoder(sort_keys=True).encode
        return self.write(name, "[\n" + ",\n".join(map(encode, records)) + "\n]\n")

    def finish(self) -> int:
        failures = sum(1 for record in self.certificates if not record["passed"])
        payload = {
            "format_version": SCHEMA_VERSION,
            "command": self.command,
            "config": {k: render_value(v) for k, v in sorted(self.config.items())},
            "config_hash": self.hash,
            "seed": self.config.get("seed"),
            "artifacts": sorted(self.artifacts),
            "certificates_total": len(self.certificates),
            "certificates_failed": failures,
            "passed": failures == 0,
        }
        if self.timings:
            payload["elapsed_seconds"] = time.time() - self.started
        self.json("report.json", payload)
        return 1 if failures else 0


def _child_seed(seed: int, *path: int) -> int:
    """Independent integer seed for a sub-experiment."""
    return int(substream(seed, *path).integers(2 ** 62))


def _build_world(cfg: dict):
    if cfg["world"] == "sphere":
        return preset_sphere(cfg["preset"])
    if cfg["world"] == "discrete":
        if cfg["mixture_file"]:
            return load_mixture(cfg["mixture_file"])
        if cfg["preset"]:
            return preset_mixture(cfg["preset"])
        raise ConfigError("world = discrete needs key 'mixture_file' or 'preset'")
    raise ConfigError(f"unknown world {cfg['world']!r}; expected sphere | discrete")


def _eval_accuracy(weights: np.ndarray, seed: int, world, cfg: dict) -> float:
    """Linear-probe accuracy of the frozen encoder at the config's eval sizes."""
    return direction_probe_accuracy(
        weights, seed, world, fit_size=cfg["eval_train_size"],
        replicas=cfg["eval_replicas"], test_size=cfg["eval_test_size"])


def cmd_train(cfg: dict, report: RunReport) -> int:
    world = _build_world(cfg)
    seeds = cfg["seeds"] or (cfg["seed"],)
    # Every run's config is built, and so checked, before the first one
    # trains.  A run is labelled with the tau+ its kind computes with, and
    # dict.fromkeys keeps each distinct one once, in sweep order.
    runs = [TrainConfig(loss_kind=kind, tau_plus=tau, seed=run_seed,
                        **{key: cfg[key] for key in TRAIN_RUN_KEYS})
            for kind in cfg["loss_kinds"]
            for tau in dict.fromkeys(LossSpec(kind, tau).tau_plus for tau in cfg["tau_plus"])
            for run_seed in seeds]
    # A repeated tag would overwrite an earlier run's log and checkpoint.
    tags = [f"{run.loss_kind}_tau{run.tau_plus:g}_seed{run.seed}" for run in runs]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"two runs of the sweep share the artifact tag {tag}")
    probe_rows = []
    for run, tag in zip(runs, tags):
        weights, log = train(run, world)
        kind, tau, run_seed = run.loss_kind, run.tau_plus, run.seed
        rows = [(rec.epoch, rec.loss, rec.wall_ms if report.timings else 0) for rec in log]
        report.csv(f"train_log_{tag}.csv", TRAIN_LOG_HEADER, rows)
        report.json(f"checkpoint_{tag}.json", checkpoint_payload(
            weights, report.hash, {"loss_kind": kind, "tau_plus": tau, "seed": run_seed}))
        accuracy = _eval_accuracy(weights, run_seed, world, cfg)
        probe_rows.append((run_seed, kind, float(tau), accuracy))
        print(f"train {tag}: final_loss={log[-1].loss:.6f} accuracy={accuracy:.4f}")
    report.csv("probe.csv", PROBE_HEADER, probe_rows)
    return report.finish()


def cmd_probe(cfg: dict, report: RunReport) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("probe needs key 'checkpoint'")
    world = _build_world(cfg)
    weights, payload = load_checkpoint(cfg["checkpoint"])
    # The row is labelled with what the checkpoint was trained as.
    meta = payload.get("meta", {})
    missing = [key for key in ("loss_kind", "tau_plus") if key not in meta]
    if missing:
        raise ConfigError(f"checkpoint {cfg['checkpoint']} meta lacks {missing}")
    accuracy = _eval_accuracy(weights, cfg["seed"], world, cfg)
    report.csv("probe.csv", PROBE_HEADER,
               [(cfg["seed"], meta["loss_kind"], float(meta["tau_plus"]), accuracy)])
    print(f"probe: accuracy={accuracy:.4f}")
    return report.finish()


def _random_instance(rng: np.random.Generator, s_points: int, k_classes: int,
                     embed_dim: int) -> tuple[np.ndarray, DiscreteClassMixture]:
    mix = random_mixture(rng, s_points, k_classes)
    emb = unit_rows(rng.standard_normal((s_points, embed_dim)))
    return emb, mix


def cmd_verify(check: str, cfg: dict, report: RunReport) -> int:
    seed = cfg["seed"]

    if check == "lemma1":
        for inst in range(cfg["instances"]):
            emb, mix = _random_instance(substream(seed, 20, inst), cfg["s_points"],
                                        cfg["k_classes"], cfg["embed_dim"])
            for j, n_neg in enumerate(cfg["n_list"]):
                cert = lemma1_certificate(emb, mix, n_neg, cfg["trials"],
                                          _child_seed(seed, 21, inst, j))
                cert.meta["instance"] = inst
                report.certificates.append(cert.to_record())

    elif check == "thm3":
        for inst in range(cfg["instances"]):
            emb, mix = _random_instance(substream(seed, 30, inst), cfg["s_points"],
                                        cfg["k_classes"], cfg["embed_dim"])
            inst_seed = _child_seed(seed, 31, inst)
            draws = theorem3_draws(emb, mix, cfg["n_grid"], cfg["m_grid"], cfg["trials"],
                                   inst_seed)
            for tau in cfg["tau_list"]:
                for n_neg in cfg["n_grid"]:
                    for m_pos in cfg["m_grid"]:
                        cert = theorem3_certificate(emb, mix, n_neg, m_pos, tau,
                                                    cfg["trials"], inst_seed, draws=draws)
                        cert.meta["instance"] = inst
                        report.certificates.append(cert.to_record())

    elif check == "rate":
        if cfg["slope_min"] > cfg["slope_max"]:
            raise ConfigError(f"slope_min {cfg['slope_min']!r} > slope_max "
                              f"{cfg['slope_max']!r}: no fitted slope could pass")
        emb, mix = _random_instance(substream(seed, 40), cfg["s_points"],
                                    cfg["k_classes"], cfg["embed_dim"])
        tau = None if cfg["tau_plus"] < 0 else cfg["tau_plus"]
        sweep = SweepSpec(variable=cfg["sweep_variable"], grid=cfg["sweep_grid"],
                          other=cfg["other_size"], tau_plus=tau)
        fit = rate_fit(emb, mix, sweep, cfg["trials"], _child_seed(seed, 41))
        record = fit.to_record()
        record["passed"] = bool(fit.status == "ok"
                                and cfg["slope_min"] <= fit.slope <= cfg["slope_max"]
                                and fit.r2 >= cfg["r2_min"])
        report.certificates.append(record)
        report.json("ratefit.json", record)
        print(f"rate: slope={fit.slope:.4f} r2={fit.r2:.4f} status={fit.status}")

    elif check == "lemma4":
        for mi in range(cfg["mixtures"]):
            k = cfg["k_list"][mi % len(cfg["k_list"])]
            rng = substream(seed, 50, mi)
            mix = random_mixture(rng, max(cfg["s_points"], k), k)
            for ei in range(cfg["embeddings"]):
                emb = unit_rows(substream(seed, 51, mi, ei)
                                .standard_normal((mix.n_points, cfg["embed_dim"])))
                # The probe is fitted on each mixture's first embedding only.
                include_probe = ei == 0
                n_values = range(k - 1, cfg["n_max_factor"] * k + 1)
                terms = lemma4_terms(emb, mix, include_probe, n_values)
                for n_neg in n_values:
                    cert = lemma4_chain_check(terms, n_neg)
                    cert.meta.update({"mixture": mi, "embedding": ei})
                    report.certificates.append(cert.to_record())

    elif check == "oracle":
        for inst in range(cfg["instances"]):
            rng = substream(seed, 60, inst)
            k = int(rng.integers(2, 6))
            s_points = int(rng.integers(max(k, 4), cfg["s_max"] + 1))
            n_neg = int(rng.integers(1, cfg["n_max"] + 1))
            emb, mix = _random_instance(rng, s_points, k, cfg["embed_dim"])
            cert = oracle_certificate(emb, mix, n_neg, tolerance=cfg["tolerance"],
                                      budget=cfg["budget"])
            cert.meta["instance"] = inst
            report.certificates.append(cert.to_record())

    if not report.certificates:
        raise ConfigError(f"verify {check} checked nothing; its sizes yield no certificate")
    if check != "rate":
        report.records("certificates.json", report.certificates)
    passed = sum(1 for c in report.certificates if c.get("passed"))
    print(f"verify {check}: {passed}/{len(report.certificates)} certificates passed")
    return report.finish()


def cmd_gradcheck(cfg: dict, report: RunReport) -> int:
    taus = (0.0, 0.05, 0.1, 0.2)
    rows = []
    worst = 0.0
    for case in range(cfg["cases"]):
        rng = substream(cfg["seed"], 70, case)
        kind = LOSS_KINDS[case % len(LOSS_KINDS)]
        b = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        feat = int(rng.integers(3, 7))
        labels = np.concatenate(([0, 1], rng.integers(0, 3, size=b - 2)))
        batch = ViewBatch(features=rng.standard_normal(((m + 1) * b, feat)),
                          batch_size=b, m_positives=m, labels=labels)
        weights = init_params(rng, feat, d)
        spec = LossSpec(kind=kind, tau_plus=taus[case % len(taus)],
                        temperature=float(rng.uniform(0.2, 1.5)))
        rep = finite_diff_check(weights, batch, spec, step=cfg["step"])
        # Each row names the tau+ its kind computed with.
        rows.append((case, kind, spec.tau_plus, cfg["step"], rep.max_rel_err, len(rep.excluded)))
        worst = max(worst, rep.max_rel_err)
    report.csv("gradcheck.csv", GRADCHECK_HEADER, rows)
    report.certificates.append(make_certificate(
        "gradcheck", worst, cfg["tolerance"], 0.0, 0,
        {"cases": cfg["cases"], "step": cfg["step"]}).to_record())
    print(f"gradcheck: worst max_rel_err={worst:.3e} over {cfg['cases']} cases")
    return report.finish()


def cmd_gen_data(cfg: dict, report: RunReport) -> int:
    name = cfg["filename"]
    if name in ("", "..", "report.json") or Path(name).name != name:
        raise ConfigError(f"filename {name!r} must name one file in the out directory, "
                          "other than report.json")
    if cfg["preset"]:
        mix = preset_mixture(cfg["preset"])
    else:
        mix = random_mixture(substream(cfg["seed"], 80), cfg["s_points"],
                             cfg["k_classes"], cfg["feature_dim"])
    path = report.write(name, mixture_text(mix))
    print(f"gen-data: wrote {path}")
    return report.finish()


def _keys_epilog(schema_key: str) -> str:
    """The config keys of one schema, as a command's ``--help`` ends with them."""
    return (f"config keys of {schema_key.replace('.', ' ')} (--set KEY=VALUE):"
            f"{key_listing(schema_key)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrastlab",
        description="Contrastive-loss laboratory: training, probing, bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    raw = argparse.RawDescriptionHelpFormatter
    for name in ("train", "probe", "gradcheck", "gen-data"):
        sub.add_parser(name, epilog=_keys_epilog(name), formatter_class=raw)
    verify = sub.add_parser("verify", formatter_class=raw, epilog="\n\n".join(
        _keys_epilog(f"verify.{check}") for check in VERIFY_CHECKS))
    verify.add_argument("check", choices=VERIFY_CHECKS)
    for _, p in sub.choices.items():
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default="contrastlab-out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override; repeatable, later wins")
        p.add_argument("--timings", action="store_true",
                       help="record wall-clock metrics (artifacts stop being byte-reproducible)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    out_dir = Path(args.out)
    # The directories this run creates, deepest first: a refused run removes
    # those it left empty, and never one that existed before it.
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    code = _run(args, out_dir)
    if code == 2:
        for path in created:
            try:
                path.rmdir()
            except OSError:  # not empty, or never made
                break
    return code


def _run(args, out_dir: Path) -> int:
    schema_key = args.command if args.command != "verify" else f"verify.{args.check}"
    try:
        cfg = resolve(schema_key, args.config, args.set, args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = RunReport(command=schema_key, config=cfg, out_dir=out_dir,
                           timings=args.timings)
        if args.command == "train":
            return cmd_train(cfg, report)
        if args.command == "probe":
            return cmd_probe(cfg, report)
        if args.command == "verify":
            return cmd_verify(args.check, cfg, report)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, report)
        return cmd_gen_data(cfg, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ContrastLabError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
