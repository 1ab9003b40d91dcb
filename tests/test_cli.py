"""CLI contract: exit codes, artifact schemas, and byte-level determinism."""

import copy
import importlib
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import contrastlab.cli as cli
from contrastlab.cli import _child_seed, _random_instance, main
from contrastlab.config import (
    SCHEMA_VERSION,
    SCHEMAS,
    _rule,
    config_hash,
    render_value,
    resolve,
)
from contrastlab.errors import ConfigError
from contrastlab.rng import substream
from contrastlab.training import TrainConfig, train
from contrastlab.verification import make_certificate, theorem3_certificate, theorem3_draws
from contrastlab.worldmodel import load_mixture

FAST_TRAIN = [
    "--set", "epochs=2", "--set", "batch_size=8", "--set", "dataset_size=16",
    "--set", "embed_dim=4", "--set", "eval_train_size=64",
    "--set", "eval_test_size=64",
]

# Values each library layer rejects with ValueError or a typed error, plus
# values outside a key's schema bounds, which the config rejects: every one
# is an invalid configuration.  An override after FAST_TRAIN wins over its
# value.
INVALID_VALUES = {
    "negative-seed": ["verify", "oracle", "--seed", "-1"],
    "negative-run-seed": ["train", "--set", "seeds=1,-2"] + FAST_TRAIN,
    "thm3-trials": ["verify", "thm3", "--set", "trials=10"],
    "lemma1-trials": ["verify", "lemma1", "--set", "trials=10"],
    "thm3-tau": ["verify", "thm3", "--set", "instances=1", "--set", "trials=1000",
                 "--set", "tau_list=1.5"],
    # Above the class prior 1/K = 0.2 some anchor's asymptotic inner
    # expectation is <= 0, so the run certifies nothing.
    "thm3-tau-above-prior": ["verify", "thm3", "--set", "instances=1", "--set", "trials=1000",
                             "--set", "n_grid=4", "--set", "m_grid=4", "--set", "tau_list=0.6"],
    "loss-kind": ["train", "--set", "loss_kinds=foo"] + FAST_TRAIN,
    "train-tau": ["train", "--set", "tau_plus=1.5"] + FAST_TRAIN,
    "gradcheck-step": ["gradcheck", "--set", "step=1"],
    "rate-trials": ["verify", "rate", "--set", "trials=10"],
    # Rejected before the sweep draws: out of range, and above the class prior
    # (the inner expectation goes nonpositive).
    "rate-tau-range": ["verify", "rate", "--set", "tau_plus=1.5"],
    "rate-tau-above-prior": ["verify", "rate", "--set", "tau_plus=0.5"],
    "embed-dim": ["train"] + FAST_TRAIN + ["--set", "embed_dim=1"],
    # The weights overflow, and their representations' norms with them.
    "train-overflow": ["train"] + FAST_TRAIN + ["--set", "learning_rate=1e300"],
    "eval-replicas": ["train"] + FAST_TRAIN + ["--set", "eval_replicas=0"],
    "eval-test-size": ["train"] + FAST_TRAIN + ["--set", "eval_test_size=0"],
    "eval-train-size": ["train"] + FAST_TRAIN + ["--set", "eval_train_size=0"],
    # One fit sample can never hold the two classes a probe needs.
    "eval-train-size-1": ["train"] + FAST_TRAIN + ["--set", "eval_train_size=1"],
    # A run that yields no certificate checks nothing, so it cannot pass.
    "lemma1-empty": ["verify", "lemma1", "--set", "instances=0"],
    "thm3-empty": ["verify", "thm3", "--set", "instances=0"],
    "oracle-empty": ["verify", "oracle", "--set", "instances=0"],
    "lemma4-no-embeddings": ["verify", "lemma4", "--set", "embeddings=0"],
    "lemma4-no-mixtures": ["verify", "lemma4", "--set", "mixtures=0"],
    "lemma4-no-n": ["verify", "lemma4", "--set", "n_max_factor=0"],
    "gradcheck-no-cases": ["gradcheck", "--set", "cases=0"],
    "train-no-kinds": ["train", "--set", "loss_kinds="] + FAST_TRAIN,
    "train-no-tau": ["train", "--set", "tau_plus="] + FAST_TRAIN,
    # Refused before the first mixture: no class count, or one below 2.
    "lemma4-no-k": ["verify", "lemma4", "--set", "k_list="],
    "lemma4-k-below-2": ["verify", "lemma4", "--set", "k_list=2,1", "--set", "embeddings=3"],
    # Refused before the first instance: no N to draw, or room for fewer
    # points than the largest K (5) an instance draws.
    "oracle-n-max": ["verify", "oracle", "--set", "n_max=0"],
    "oracle-s-max": ["verify", "oracle", "--set", "s_max=4"],
    # Refused before the first mixture: no dimension for the embeddings.
    "lemma4-embed-dim": ["verify", "lemma4", "--set", "embed_dim=0"],
    "oracle-embed-dim": ["verify", "oracle", "--set", "embed_dim=0"],
    # A mixture no train run could use: one class, or points of no dimension.
    "gen-data-one-class": ["gen-data", "--set", "k_classes=1"],
    "gen-data-no-features": ["gen-data", "--set", "feature_dim=0"],
    # The mixture is one plain file of the out directory, beside report.json.
    "gen-data-filename-report": ["gen-data", "--set", "filename=report.json"],
    "gen-data-filename-parent": ["gen-data", "--set", "filename=../mixture.txt"],
    "gen-data-filename-empty": ["gen-data", "--set", "filename="],
    "gen-data-filename-subdir": ["gen-data", "--set", "filename=sub/mixture.txt"],
    # NaN fails every bound, so none of these runs with a threshold it ignores.
    "gradcheck-nan-tolerance": ["gradcheck", "--set", "tolerance=nan"],
    "oracle-nan-budget": ["verify", "oracle", "--set", "budget=nan"],
    "oracle-nan-tolerance": ["verify", "oracle", "--set", "tolerance=nan"],
}

# Input files that do not exist, one per kind of file the commands read.
MISSING_FILES = {
    "config": ["train", "--config", "no-such-dir/nope.txt"] + FAST_TRAIN,
    "mixture": ["train", "--set", "world=discrete",
                "--set", "mixture_file=no-such-dir/nope.txt"] + FAST_TRAIN,
    "checkpoint": ["probe", "--set", "checkpoint=no-such-dir/nope.json"],
}

# A Monte Carlo sample size below 1 in each certificate that draws, one
# after a valid size, each empty list of thm3, and a tau+ out of range after
# a valid one on an instance grid: (argv, the error's text).
SIZES_BELOW_ONE = {
    "lemma1-n": (["verify", "lemma1", "--set", "n_list=0"],
                 "n_list must be non-empty, >= 1; got '0'"),
    "thm3-n": (["verify", "thm3", "--set", "n_grid=0"],
               "n_grid must be non-empty, >= 1; got '0'"),
    "thm3-m": (["verify", "thm3", "--set", "m_grid=0"],
               "m_grid must be non-empty, >= 1; got '0'"),
    "rate-grid": (["verify", "rate", "--set", "sweep_grid=0,1,2,3", "--set", "other_size=100"],
                  "sample sizes must be >= 1"),
    "lemma1-n-after-valid": (["verify", "lemma1", "--set", "n_list=4,0"],
                             "n_list must be non-empty, >= 1; got '4,0'"),
    "thm3-no-tau": (["verify", "thm3", "--set", "tau_list="],
                    "tau_list must be non-empty, >= 0, < 1; got ''"),
    "thm3-no-n": (["verify", "thm3", "--set", "n_grid="],
                  "n_grid must be non-empty, >= 1; got ''"),
    "thm3-no-m": (["verify", "thm3", "--set", "m_grid="],
                  "m_grid must be non-empty, >= 1; got ''"),
    "thm3-tau-after-valid": (["verify", "thm3", "--set", "instances=3",
                              "--set", "tau_list=0.05,1.5"],
                             "tau_list must be non-empty, >= 0, < 1; got '0.05,1.5'"),
}

# verify rate gates that no fitted slope or r^2 could pass: (argv, the
# error's text).
RATE_GATES = {
    "rate-nan-slope-min": (["verify", "rate", "--set", "slope_min=nan"],
                           "slope_min must be < 0; got 'nan'"),
    "rate-nan-r2-min": (["verify", "rate", "--set", "r2_min=nan"],
                        "r2_min must be >= 0, < 1; got 'nan'"),
    "rate-slope-min-above-max": (["verify", "rate", "--set", "slope_min=-0.3"],
                                 "slope_min -0.3 > slope_max -0.35"),
    "rate-nan-tau-plus": (["verify", "rate", "--set", "tau_plus=nan"],
                          "tau_plus must be < 1; got 'nan'"),
}

# Runs that exit 2, whether refused by the config, the command or the library.
REFUSED_RUNS = {
    "gen-data-too-few-points": ["gen-data", "--set", "s_points=2"],
    "rate-slope-min-above-max": RATE_GATES["rate-slope-min-above-max"][0],
    "rate-nan-tau-plus": RATE_GATES["rate-nan-tau-plus"][0],
    "thm3-tau-above-prior": INVALID_VALUES["thm3-tau-above-prior"],
}

# The command that reads each config file shipped in configs/.
CONFIG_COMMANDS = {"direction.txt": "train"}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"

# Every CSV header the commands write; README's artifact section quotes each.
CSV_HEADERS = {"train_log": cli.TRAIN_LOG_HEADER, "probe": cli.PROBE_HEADER,
               "gradcheck": cli.GRADCHECK_HEADER}


def _outside(field):
    """A value just outside each closed side of a key's bounds, zero below an
    integer bound above one, and the empty list where the key needs an item,
    each rendered as --set writes it."""
    low, high = field.bounds
    is_int = field.kind.startswith("int")
    values = []
    if low is not None:
        values.append(low - 1 if is_int else math.nextafter(low, -math.inf))
        if is_int and low > 1:
            # Zero, the empty count, stays refused where the bound sits higher.
            values.append(0)
    if high is not None:
        values.append(high)
    rendered = [render_value(value) for value in values]
    if field.kind.endswith("_list") and field.default:
        rendered.append("")
    return rendered


# (command, key, value) for every value of every key that its schema refuses.
OUT_OF_RANGE = [(command, key, value) for command, schema in SCHEMAS.items()
                for key, field in schema.items() for value in _outside(field)]


def read_artifacts(out_dir):
    report = json.loads((out_dir / "report.json").read_text())
    blobs = {name: (out_dir / name).read_bytes() for name in report["artifacts"]}
    blobs["report.json"] = (out_dir / "report.json").read_bytes()
    return report, blobs


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve("train", None, [], None)
        assert cfg["format_version"] == SCHEMA_VERSION
        assert cfg["loss_kinds"] == ("debiased",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve("train", None, ["bogus=1"], None)

    def test_unknown_key_error_lists_valid_keys(self, tmp_path, capsys):
        assert main(["verify", "oracle", "--out", str(tmp_path), "--set", "nmax=3"]) == 2
        err = capsys.readouterr().err
        assert "['nmax']" in err
        assert "n_max = 6  (largest negative sample size N)" in err
        for key, field in SCHEMAS["verify.oracle"].items():
            assert f"{key} = {render_value(field.default)}  ({field.help})" in err

    def test_unknown_key_error_lists_each_range(self, tmp_path, capsys):
        assert main(["verify", "thm3", "--out", str(tmp_path), "--set", "nx=1"]) == 2
        err = capsys.readouterr().err
        assert "seed = 0  (master seed)  valid: >= 0\n" in err
        assert "tau_list = 0.05,0.1,0.2  (override tau+ values)  valid: non-empty, >= 0, < 1" in err
        assert "instances = 10  (random (embedding, mixture) instances)\n" in err

    def test_file_then_set_later_wins(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("epochs = 7\nseed = 3\n")
        cfg = resolve("train", str(path), ["epochs=9"], None)
        assert cfg["epochs"] == 9
        assert cfg["seed"] == 3

    def test_seed_flag_wins(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 3\n")
        cfg = resolve("train", str(path), [], 42)
        assert cfg["seed"] == 42

    def test_version_tag_must_match(self):
        with pytest.raises(ConfigError, match="format_version"):
            resolve("train", None, ["format_version=99"], None)

    def test_bad_value_diagnostic_names_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            resolve("train", None, ["epochs=three"], None)

    def test_every_default_lies_inside_its_bounds(self):
        for schema in SCHEMAS.values():
            for key, field in schema.items():
                low, high = field.bounds
                values = field.default if field.kind.endswith("_list") else (field.default,)
                for value in values:
                    assert low is None or value >= low, key
                    assert high is None or value < high, key

    @pytest.mark.parametrize(("command", "key", "value"), OUT_OF_RANGE,
                             ids=[f"{c}-{k}={v}" for c, k, v in OUT_OF_RANGE])
    def test_out_of_range_is_refused_before_any_command(self, tmp_path, capsys, monkeypatch,
                                                        command, key, value):
        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(name))
        out = tmp_path / "out"
        argv = command.replace(".", " ").split() + ["--set", f"{key}={value}", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "probe", "verify", "gradcheck", "gen-data"])
    def test_help_lists_every_key_with_its_range(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        schemas = [name for name in SCHEMAS if name.split(".")[0] == command]
        assert schemas
        for name in schemas:
            # The keys after this schema's heading, up to the next blank line.
            section = out.split(f"config keys of {name.replace('.', ' ')} ")[1].split("\n\n")[0]
            lines = {line.split(" = ")[0].strip(): line for line in section.splitlines()[1:]}
            assert list(lines) == list(SCHEMAS[name])
            for key, field in SCHEMAS[name].items():
                rule = _rule(field)
                assert lines[key].startswith(f"  {key} = {render_value(field.default)}")
                assert lines[key].endswith(f"  valid: {rule}") if rule else "valid:" not in lines[key]

    def test_every_shipped_config_resolves(self):
        assert sorted(path.name for path in CONFIGS.glob("*.txt")) == sorted(CONFIG_COMMANDS)
        for name, command in CONFIG_COMMANDS.items():
            resolve(command, str(CONFIGS / name), [], None)

    def test_hash_stable_and_sensitive(self):
        a = resolve("train", None, [], None)
        b = resolve("train", None, ["epochs=9"], None)
        assert config_hash(a) == config_hash(resolve("train", None, [], None))
        assert config_hash(a) != config_hash(b)


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path), "--set", "bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_dataset_key_exits_2(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path), "--set", "world=discrete",
                     "--set", "preset="] + FAST_TRAIN)
        assert code == 2
        err = capsys.readouterr().err
        assert "mixture_file" in err or "preset" in err

    def test_bad_subcommand_exits_2(self):
        assert main(["no-such-command"]) == 2

    def test_verify_pass_exits_0(self, tmp_path):
        code = main(["verify", "oracle", "--out", str(tmp_path), "--seed", "1",
                     "--set", "instances=2", "--set", "s_max=6", "--set", "n_max=3"])
        assert code == 0

    def test_corrupted_bound_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "oracle_certificate",
                            lambda *args, **kwargs: make_certificate("oracle", 1.0, 0.0,
                                                                     0.0, 0, {}))
        code = main(["verify", "oracle", "--out", str(tmp_path), "--seed", "1",
                     "--set", "instances=2", "--set", "s_max=6", "--set", "n_max=3"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False

    @pytest.mark.parametrize("argv", list(INVALID_VALUES.values()), ids=list(INVALID_VALUES))
    def test_invalid_value_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(("case", "key"), [("lemma4-no-k", "k_list"),
                                               ("lemma4-k-below-2", "k_list"),
                                               ("oracle-n-max", "n_max"),
                                               ("oracle-s-max", "s_max"),
                                               ("lemma4-embed-dim", "embed_dim"),
                                               ("oracle-embed-dim", "embed_dim")])
    def test_bad_size_is_named_before_any_mixture(self, tmp_path, capsys, monkeypatch,
                                                  case, key):
        monkeypatch.setattr(cli, "random_mixture",
                            lambda *args: pytest.fail("a mixture was drawn"))
        assert main(INVALID_VALUES[case] + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")

    def test_train_overflow_is_a_non_finite_vector(self, tmp_path, capsys):
        assert main(INVALID_VALUES["train-overflow"] + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("NonFiniteVector: ")

    def test_thm3_tau_above_the_prior_is_a_negative_denominator(self, tmp_path, capsys):
        assert main(INVALID_VALUES["thm3-tau-above-prior"] + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("NegativeDenominator: ")

    @pytest.mark.parametrize("argv", list(MISSING_FILES.values()), ids=list(MISSING_FILES))
    def test_missing_input_file_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "no-such-dir/nope." in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(("argv", "message"), list(SIZES_BELOW_ONE.values()),
                             ids=list(SIZES_BELOW_ONE))
    def test_sample_size_below_one_exits_2_before_drawing(self, tmp_path, capsys,
                                                           monkeypatch, argv, message):
        _assert_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize(("argv", "message"), list(RATE_GATES.values()),
                             ids=list(RATE_GATES))
    def test_unpassable_rate_gate_exits_2_before_drawing(self, tmp_path, capsys,
                                                         monkeypatch, argv, message):
        _assert_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("argv", list(REFUSED_RUNS.values()), ids=list(REFUSED_RUNS))
    def test_refused_run_removes_the_out_directories_it_made(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "runs" / "out")]) == 2
        assert not (tmp_path / "runs").exists()

    def test_refused_run_keeps_an_existing_out_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(REFUSED_RUNS["gen-data-too-few-points"] + ["--out", str(out)]) == 2
        assert out.is_dir()


def _assert_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv, message):
    import contrastlab.verification as verification

    streams = []
    real = verification.substream
    monkeypatch.setattr(verification, "substream",
                        lambda *path: streams.append(path) or real(*path))
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not streams
    assert not list(tmp_path.iterdir())


class TestTrainCommand:
    # A valid non-default value for every TrainConfig field the command reads
    # from its config rather than sweeping.
    RUN_VALUES = {"temperature": 0.7, "m_positives": 2,
                  "batch_size": 4, "epochs": 3, "learning_rate": 0.01,
                  "dataset_size": 12, "embed_dim": 3, "anchor_mode": "instance",
                  "view_noise": 0.3, "tail_average": 1}

    def test_every_run_key_reaches_train(self, tmp_path, monkeypatch):
        swept = {"loss_kind", "tau_plus", "seed"}
        assert set(self.RUN_VALUES) == {f.name for f in fields(TrainConfig)} - swept
        seen = []

        def recording_train(config, world):
            seen.append(config)
            return train(config, world)

        monkeypatch.setattr(cli, "train", recording_train)
        sets = [arg for key, value in self.RUN_VALUES.items()
                for arg in ("--set", f"{key}={value}")]
        code = main(["train", "--out", str(tmp_path), "--seed", "2",
                     "--set", "eval_train_size=64", "--set", "eval_test_size=64"] + sets)
        assert code == 0
        [config] = seen
        for key, value in self.RUN_VALUES.items():
            assert getattr(TrainConfig(), key) != value, key
            assert getattr(config, key) == value, key
        assert (config.loss_kind, config.tau_plus, config.seed) == ("debiased", 0.1, 2)

    @pytest.mark.parametrize("sets", [["loss_kinds=debiased,foo"],
                                      ["loss_kinds=debiased", "tau_plus=0.1,1.5"],
                                      ["loss_kinds=biased", "tau_plus=1.5"],
                                      ["eval_train_size=0"],
                                      ["seeds=1,1"],
                                      ["loss_kinds=biased,biased"],
                                      ["loss_kinds=debiased", "tau_plus=0.1,0.1000001"]],
                             ids=["bad-kind", "bad-tau", "bad-tau-biased", "bad-eval-size",
                                  "repeated-seed", "repeated-kind", "same-tau-tag"])
    def test_invalid_sweep_writes_nothing(self, tmp_path, sets):
        # The sweep's first run is valid; it must not train before the bad one
        # is rejected.  Runs whose artifact tags coincide would overwrite each
        # other's log and checkpoint.
        overrides = [arg for item in sets for arg in ("--set", item)]
        assert main(["train", "--out", str(tmp_path)] + FAST_TRAIN + overrides) == 2
        assert not list(tmp_path.glob("train_log_*"))
        assert not list(tmp_path.glob("checkpoint_*"))

    def test_nan_learning_rate_is_refused_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("a run trained"))
        code = main(["train", "--out", str(tmp_path), "--set", "learning_rate=nan"] + FAST_TRAIN)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: learning_rate")

    def test_dataset_below_batch_is_refused_before_drawing(self, tmp_path, capsys,
                                                           monkeypatch):
        import contrastlab.training as training

        monkeypatch.setattr(training, "build_dataset",
                            lambda *args, **kwargs: pytest.fail("a dataset was drawn"))
        code = main(["train", "--out", str(tmp_path), "--set", "dataset_size=3",
                     "--set", "epochs=1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: dataset_size")

    def test_emits_expected_artifacts(self, tmp_path):
        code = main(["train", "--out", str(tmp_path), "--seed", "2"] + FAST_TRAIN)
        assert code == 0
        report, blobs = read_artifacts(tmp_path)
        assert report["passed"] is True
        assert "probe.csv" in blobs
        assert any(name.startswith("train_log_") for name in blobs)
        assert any(name.startswith("checkpoint_") for name in blobs)

    def test_csv_headers_golden(self, tmp_path):
        main(["train", "--out", str(tmp_path), "--seed", "2"] + FAST_TRAIN)
        probe = (tmp_path / "probe.csv").read_text().splitlines()
        assert probe[0] == "seed,loss_kind,tau_plus,accuracy"
        log = next(tmp_path.glob("train_log_*.csv")).read_text().splitlines()
        assert log[0] == "epoch,loss,wall_ms"

    def test_sweep_row_count(self, tmp_path):
        code = main(["train", "--out", str(tmp_path), "--seed", "2",
                     "--set", "tau_plus=0,0.05,0.1", "--set", "seeds=1,2"] + FAST_TRAIN)
        assert code == 0
        rows = (tmp_path / "probe.csv").read_text().splitlines()[1:]
        assert len(rows) == 6  # one accuracy row per (seed, tau)

    def test_non_debiased_kinds_train_once_at_tau_zero(self, tmp_path):
        # Only the debiased loss reads tau+: a sweep trains biased once, as tau+ = 0.
        code = main(["train", "--out", str(tmp_path), "--seed", "1",
                     "--set", "loss_kinds=biased,debiased",
                     "--set", "tau_plus=0.05,0.1"] + FAST_TRAIN)
        assert code == 0
        rows = (tmp_path / "probe.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [
            ["1", "biased", "0.0"], ["1", "debiased", "0.05"], ["1", "debiased", "0.1"]]
        assert (tmp_path / "train_log_biased_tau0_seed1.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["train", "--seed", "2"] + FAST_TRAIN
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        _, blobs1 = read_artifacts(out1)
        _, blobs2 = read_artifacts(out2)
        assert blobs1.keys() == blobs2.keys()
        for name in blobs1:
            assert blobs1[name] == blobs2[name], name

    def test_report_embeds_hash_and_seed(self, tmp_path):
        main(["train", "--out", str(tmp_path), "--seed", "2"] + FAST_TRAIN)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 2
        assert len(report["config_hash"]) == 64
        assert report["command"] == "train"


class TestProbeCommand:
    def test_probe_checkpoint(self, tmp_path):
        # The row is labelled from the checkpoint's meta, not from defaults.
        train_out = tmp_path / "t"
        main(["train", "--out", str(train_out), "--seed", "2",
              "--set", "loss_kinds=biased"] + FAST_TRAIN)
        ckpt = train_out / "checkpoint_biased_tau0_seed2.json"
        probe_out = tmp_path / "p"
        code = main(["probe", "--out", str(probe_out), "--seed", "2",
                     "--set", f"checkpoint={ckpt}"])
        assert code == 0
        rows = (probe_out / "probe.csv").read_text().splitlines()
        assert rows[0] == "seed,loss_kind,tau_plus,accuracy"
        assert len(rows) == 2
        assert rows[1].split(",")[:3] == ["2", "biased", "0.0"]

    def test_checkpoint_without_labels_exits_2(self, tmp_path, capsys):
        train_out = tmp_path / "t"
        main(["train", "--out", str(train_out), "--seed", "2"] + FAST_TRAIN)
        ckpt = next(train_out.glob("checkpoint_*.json"))
        payload = json.loads(ckpt.read_text())
        del payload["meta"]["tau_plus"]
        ckpt.write_text(json.dumps(payload))
        code = main(["probe", "--out", str(tmp_path / "p"), "--set", f"checkpoint={ckpt}"])
        assert code == 2
        assert "tau_plus" in capsys.readouterr().err

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        train_out = tmp_path / "t"
        main(["train", "--out", str(train_out), "--seed", "2"] + FAST_TRAIN)
        ckpt = next(train_out.glob("checkpoint_*.json"))
        payload = json.loads(ckpt.read_text())
        assert payload["format_version"] == 2
        payload.update(format_version=1, hidden_weights=None)
        ckpt.write_text(json.dumps(payload))
        code = main(["probe", "--out", str(tmp_path / "p"), "--set", f"checkpoint={ckpt}"])
        assert code == 2
        assert "checkpoint version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["non-finite", "one-d", "one-row", "not-an-object"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, bad):
        train_out = tmp_path / "t"
        main(["train", "--out", str(train_out), "--seed", "2"] + FAST_TRAIN)
        ckpt = next(train_out.glob("checkpoint_*.json"))
        payload = json.loads(ckpt.read_text())
        if bad == "non-finite":
            payload["weights"][1][2] = float("nan")
        elif bad == "one-d":
            payload["weights"] = payload["weights"][0]
        elif bad == "one-row":
            payload["weights"] = payload["weights"][:1]
        else:
            payload = payload["weights"]
        ckpt.write_text(json.dumps(payload))
        code = main(["probe", "--out", str(tmp_path / "p"), "--set", f"checkpoint={ckpt}"])
        assert code == 2
        err = capsys.readouterr().err
        assert ("checkpoint version None" if bad == "not-an-object" else "weights") in err

    def test_label_keys_are_not_config(self, tmp_path, capsys):
        for key in ("loss_kind", "tau_plus"):
            assert main(["probe", "--out", str(tmp_path), "--set", f"{key}=0"]) == 2
            assert f"unknown config keys for 'probe': ['{key}']" in capsys.readouterr().err

    def test_missing_checkpoint_key(self, tmp_path, capsys):
        assert main(["probe", "--out", str(tmp_path)]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestVerifyCommand:
    def test_thm3_grid_cell_count(self, tmp_path):
        code = main(["verify", "thm3", "--out", str(tmp_path), "--seed", "3",
                     "--set", "instances=1", "--set", "trials=2000",
                     "--set", "n_grid=4,16", "--set", "m_grid=4,16",
                     "--set", "tau_list=0.1"])
        assert code == 0
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert len(certs) == 4  # one record per (N, M) cell
        for cert in certs:
            assert set(cert) >= {"check", "lhs", "rhs", "stderr", "trials",
                                 "passed", "meta"}

    THM3_2X2X2 = ["verify", "thm3", "--seed", "8", "--set", "instances=2",
                  "--set", "trials=1000", "--set", "n_grid=4,16",
                  "--set", "m_grid=4,16", "--set", "tau_list=0.05,0.1"]

    def test_thm3_grid_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.THM3_2X2X2 + ["--out", str(out1)]) == 0
        assert main(self.THM3_2X2X2 + ["--out", str(out2)]) == 0
        _, blobs1 = read_artifacts(out1)
        _, blobs2 = read_artifacts(out2)
        assert blobs1 == blobs2

    def test_thm3_records_rederive_from_instance_draws(self, tmp_path):
        # Every record of an instance carries the instance's seed; re-running
        # the instance's grid with draws from that seed gives the record.
        assert main(self.THM3_2X2X2 + ["--out", str(tmp_path)]) == 0
        records = json.loads((tmp_path / "certificates.json").read_text())
        assert len(records) == 16
        for inst in range(2):
            emb, mix = _random_instance(substream(8, 30, inst), 8, 5, 8)
            inst_seed = _child_seed(8, 31, inst)
            draws = theorem3_draws(emb, mix, (4, 16), (4, 16), 1000, inst_seed)
            mine = [rec for rec in records if rec["meta"]["instance"] == inst]
            expected = []
            for tau in (0.05, 0.1):
                for n_neg in (4, 16):
                    for m_pos in (4, 16):
                        cert = theorem3_certificate(emb, mix, n_neg, m_pos, tau, 1000,
                                                    inst_seed, draws=draws)
                        cert.meta["instance"] = inst
                        expected.append(json.loads(json.dumps(cert.to_record())))
            assert mine == expected
            assert {rec["meta"]["seed"] for rec in mine} == {inst_seed}

    def test_thm3_draws_once_per_n_and_per_m(self, tmp_path, monkeypatch):
        # One draw set for the instance, with |N| + |M| = 4 means; one per
        # (tau+, N, M) cell and side would be 16.
        import contrastlab.verification as verification

        keys = []
        real = verification._draw_monte_carlo

        def counting(*args, **kwargs):
            draws = real(*args, **kwargs)
            keys.extend(draws.means)
            return draws

        monkeypatch.setattr(verification, "_draw_monte_carlo", counting)
        code = main(["verify", "thm3", "--out", str(tmp_path), "--set", "instances=1",
                     "--set", "trials=1000", "--set", "n_grid=4,16",
                     "--set", "m_grid=4,16", "--set", "tau_list=0.05,0.1"])
        assert code == 0
        assert sorted(keys) == [("marginal", 4), ("marginal", 16),
                                ("positive", 4), ("positive", 16)]

    def test_lemma1_runs(self, tmp_path):
        code = main(["verify", "lemma1", "--out", str(tmp_path), "--seed", "3",
                     "--set", "instances=2", "--set", "trials=2000",
                     "--set", "n_list=1,4"])
        assert code == 0
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert len(certs) == 4

    def test_lemma4_runs(self, tmp_path):
        code = main(["verify", "lemma4", "--out", str(tmp_path), "--seed", "3",
                     "--set", "embeddings=2", "--set", "mixtures=1",
                     "--set", "k_list=3", "--set", "s_points=6"])
        assert code == 0

    def test_lemma4_builds_n_free_terms_once_per_embedding(self, tmp_path, monkeypatch):
        # Only the rhs depends on N: the mean classifier runs once per
        # (mixture, embedding) and the probe once per mixture, on its first
        # embedding.
        import contrastlab.evaluation as evaluation

        calls = {"linear_probe": 0, "mean_classifier_loss": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(evaluation, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        code = main(["verify", "lemma4", "--out", str(tmp_path), "--set", "embeddings=3"])
        assert code == 0
        certs = json.loads((tmp_path / "certificates.json").read_text())
        # N = K-1 .. 4K at the default K = 2, 3, 5: 8 + 11 + 17 per embedding.
        assert len(certs) == 3 * 36
        assert calls == {"linear_probe": 3, "mean_classifier_loss": 9}

    def test_certificates_file_holds_one_record_per_line(self, tmp_path, monkeypatch):
        written = []
        real = cli.RunReport.records

        def keep(report, name, records):
            written.extend(copy.deepcopy(records))
            return real(report, name, records)

        monkeypatch.setattr(cli.RunReport, "records", keep)
        assert main(["verify", "lemma4", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "certificates.json").read_text()
        lines = text.splitlines()
        assert len(lines) == len(written) + 2 and (lines[0], lines[-1]) == ("[", "]")
        assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == written
        assert json.loads(text) == written
        # At K = 5 the sampled sub-tasks are keyed by class tuples like "0,1,3".
        subtasks = [r["meta"]["subtask_mean_classifier_losses"] for r in written
                    if r["meta"]["k_classes"] == 5]
        assert subtasks and all(key.count(",") == 2 for s in subtasks for key in s)
        report = (tmp_path / "report.json").read_text()
        assert report == json.dumps(json.loads(report), sort_keys=True, indent=1) + "\n"

    def test_certificates_file_is_written_record_by_record(self, tmp_path, monkeypatch):
        # lemma4's 3600 records make a 1.3 MB file; written record by
        # record, the writer holds one encoding and a file buffer, about
        # 25 kB, where the whole text and its UTF-8 copy would be 2.8 MB.
        written = []
        real = cli.RunReport.records

        def keep(report, name, records):
            written.extend(records)
            return real(report, name, records)

        monkeypatch.setattr(cli.RunReport, "records", keep)
        assert main(["verify", "lemma4", "--out", str(tmp_path / "cli")]) == 0
        monkeypatch.undo()
        report = cli.RunReport(command="verify.lemma4", config={}, out_dir=tmp_path,
                               timings=False)
        tracemalloc.start()
        try:
            path = report.records("certificates.json", written)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current <= 64_000
        text = "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in written) + "\n]\n"
        assert len(text) > 1_000_000
        assert path.read_bytes() == text.encode()
        assert (tmp_path / "cli" / "certificates.json").read_bytes() == text.encode()
        assert report.records("empty.json", []).read_bytes() == b"[\n\n]\n"
        assert report.artifacts == ["certificates.json", "empty.json"]

    def test_rate_emits_fit_record(self, tmp_path):
        code = main(["verify", "rate", "--out", str(tmp_path), "--seed", "3",
                     "--set", "trials=20000"])
        assert code == 0
        record = json.loads((tmp_path / "ratefit.json").read_text())
        assert record["status"] == "ok"
        assert len(record["grid"]) == 5

    def test_verify_rerun_byte_identical(self, tmp_path):
        args = ["verify", "lemma1", "--seed", "5", "--set", "instances=1",
                "--set", "trials=2000", "--set", "n_list=4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "certificates.json").read_bytes() == \
            (out2 / "certificates.json").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestGradcheckCommand:
    def test_default_small_run(self, tmp_path):
        code = main(["gradcheck", "--out", str(tmp_path), "--seed", "4",
                     "--set", "cases=12"])
        assert code == 0
        rows = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert rows[0] == "case,loss_kind,tau_plus,step,max_rel_err,excluded"
        assert len(rows) == 13
        assert all(float(r.split(",")[4]) <= 1e-6 for r in rows[1:])

    def test_rows_name_what_each_kind_computed_with(self, tmp_path):
        # Only the debiased loss reads tau+; the others compute at tau+ = 0,
        # and their rows must say so.
        assert main(["gradcheck", "--out", str(tmp_path), "--set", "cases=12"]) == 0
        rows = [r.split(",") for r in (tmp_path / "gradcheck.csv").read_text().splitlines()[1:]]
        others = [row[2] for row in rows if row[1] != "debiased"]
        assert len(others) == 8
        assert all(cell == "0.0" for cell in others)
        assert {row[2] for row in rows if row[1] == "debiased"} == {"0.0", "0.05", "0.1", "0.2"}

    @pytest.mark.parametrize("seed,cases", [(6, 158), (12, 50)])
    def test_zero_loss_cases_pass(self, tmp_path, seed, cases):
        # The last case of each run is a debiased batch with every role
        # floored at e^(-1/t) and a loss within 0.004 of 0: its gradient
        # flows through the positive pairs only, and must still pass.
        code = main(["gradcheck", "--out", str(tmp_path), "--seed", str(seed),
                     "--set", f"cases={cases}"])
        assert code == 0

class TestGenDataCommand:
    def test_preset_roundtrip(self, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path),
                     "--set", "preset=two-point"])
        assert code == 0
        mix = load_mixture(tmp_path / "mixture.txt")
        assert mix.n_points == 2

    def test_random_mixture_deterministic(self, tmp_path):
        args = ["gen-data", "--seed", "6", "--set", "s_points=6",
                "--set", "k_classes=3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/mixture.txt").read_bytes() == \
            (tmp_path / "b/mixture.txt").read_bytes()

    def test_generated_file_usable_for_training(self, tmp_path):
        main(["gen-data", "--out", str(tmp_path), "--set", "preset=paper-uniform"])
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "2",
                     "--set", "world=discrete", "--set", "preset=",
                     "--set", f"mixture_file={tmp_path / 'mixture.txt'}",
                     "--set", "temperature=1.0"] + FAST_TRAIN)
        assert code == 0

    def test_nan_in_mixture_file_exits_2(self, tmp_path, capsys):
        main(["gen-data", "--out", str(tmp_path), "--set", "preset=paper-uniform"])
        path = tmp_path / "mixture.txt"
        path.write_text(re.sub(r"^points = \S+", "points = nan", path.read_text(), flags=re.M))
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "2",
                     "--set", "world=discrete", "--set", "preset=",
                     "--set", f"mixture_file={path}", "--set", "temperature=1.0"] + FAST_TRAIN)
        assert code == 2
        assert "InvalidTable" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("train_log_*"))

    def test_empty_prior_in_mixture_file_exits_2(self, tmp_path, capsys):
        main(["gen-data", "--out", str(tmp_path), "--set", "preset=paper-uniform"])
        path = tmp_path / "mixture.txt"
        path.write_text(re.sub(r"^prior = .*$", "prior =", path.read_text(), flags=re.M))
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "2",
                     "--set", "world=discrete", "--set", "preset=",
                     "--set", f"mixture_file={path}", "--set", "temperature=1.0"] + FAST_TRAIN)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'prior'" in err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("header", list(CSV_HEADERS.values()), ids=list(CSV_HEADERS))
def test_readme_quotes_each_csv_header(header):
    assert ",".join(header) in README.read_text(encoding="utf-8")


def test_readme_module_references_resolve():
    # Every inline `module.name` that README quotes from a package module
    # names something the module defines.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    refs = {(m[1], m[2]) for span in re.findall(r"`([^`\n]+)`", text)
            if (m := re.match(r"(?:contrastlab\.)?(\w+)\.(\w+)", span)) and m[1] in modules}
    assert refs, "README quotes no module.name; is the pattern right?"
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"contrastlab.{module}"), name)]
    assert not missing, f"README names what no module defines: {missing}"
