"""Flat ``key = value`` experiment configs with typed schemas and hashing.

A config is a text file of ``key = value`` lines plus command-line
overrides (later wins).  Unknown keys are rejected, and the error lists
every valid key with its default, help and valid range, as the command's
``--help`` does (:func:`key_listing`).  Each key's valid
range is its schema entry's ``bounds``; ``resolve`` checks every key of
the command against it, so a bad value is refused before any command
runs.  The ``format_version`` tag must match the schema version built into
the binary, and every run report embeds the hash of the resolved config so
any emitted number can be re-derived.

The ``train`` schema's per-run keys are the fields of ``TrainConfig``, with
its types and defaults, so a train default is written in one place; the
``verify rate`` sweep keys likewise take their defaults from ``SweepSpec``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .errors import ConfigError
from .losses import ORACLE_MAX_N
from .training import TrainConfig
from .verification import MIN_TRIALS, SweepSpec

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | int_list | float_list | str_list
    default: object
    help: str = ""
    # (low, high): low <= v < high for the value, or for each item of a list;
    # None leaves a side open.  A list whose default is not empty needs an item.
    bounds: tuple = (None, None)


_COMMON = {
    "format_version": Field("str", SCHEMA_VERSION, "config schema version tag"),
    "seed": Field("int", 0, "master seed", (0, None)),
}

_WORLD = {
    "world": Field("str", "sphere", "sphere | discrete"),
    "preset": Field("str", "sphere-k10", "named world preset"),
    "mixture_file": Field("str", "", "mixture definition file (world = discrete)"),
}

_EVAL = {
    "eval_train_size": Field("int", 2048, "probe fitting samples", (2, None)),
    "eval_test_size": Field("int", 2048, "probe accuracy samples", (1, None)),
    "eval_replicas": Field("int", 1, "average accuracy over fresh eval sets", (1, None)),
}

# The TrainConfig fields that the train command sweeps rather than reads.
_SWEPT = ("loss_kind", "tau_plus", "seed")

# One train key per remaining TrainConfig field; its annotation ("int",
# "float" or "str") is the key's kind.
TRAIN_RUN_KEYS = {f.name: Field(f.type, f.default) for f in fields(TrainConfig)
                  if f.name not in _SWEPT}

SCHEMAS: dict[str, dict[str, Field]] = {
    "train": _COMMON | _WORLD | {
        "seeds": Field("int_list", (), "run seeds; empty means [seed]", (0, None)),
        "loss_kinds": Field("str_list", (TrainConfig.loss_kind,),
                            "biased | debiased | unbiased"),
        "tau_plus": Field("float_list", (TrainConfig.tau_plus,),
                          "class-prior hyperparameter sweep", (0, 1)),
    } | TRAIN_RUN_KEYS | _EVAL,
    "probe": _COMMON | _WORLD | {
        "checkpoint": Field("str", "", "encoder checkpoint to evaluate"),
    } | _EVAL,
    "verify.lemma1": _COMMON | {
        "instances": Field("int", 20, "random (embedding, mixture) instances"),
        "trials": Field("int", 100000, "Monte Carlo trials", (MIN_TRIALS, None)),
        "n_list": Field("int_list", (1, 4, 16), "negative sample sizes", (1, None)),
        "s_points": Field("int", 8, "points per random mixture"),
        "k_classes": Field("int", 4, "classes per random mixture", (2, None)),
        "embed_dim": Field("int", 8, "dimension of the random unit embeddings", (1, None)),
    },
    "verify.thm3": _COMMON | {
        "instances": Field("int", 10, "random (embedding, mixture) instances"),
        "trials": Field("int", 100000, "Monte Carlo trials", (MIN_TRIALS, None)),
        "n_grid": Field("int_list", (4, 16, 64, 256), "negative sample sizes N", (1, None)),
        "m_grid": Field("int_list", (4, 16, 64, 256), "positive sample sizes M", (1, None)),
        "tau_list": Field("float_list", (0.05, 0.1, 0.2), "override tau+ values", (0, 1)),
        "s_points": Field("int", 8, "points per random mixture"),
        "k_classes": Field("int", 5, "true tau+ = 1/K should dominate tau_list", (2, None)),
        "embed_dim": Field("int", 8, "dimension of the random unit embeddings", (1, None)),
    },
    "verify.rate": _COMMON | {
        "trials": Field("int", 100000, "Monte Carlo trials", (MIN_TRIALS, None)),
        "sweep_variable": Field("str", SweepSpec.variable, "N | M"),
        "sweep_grid": Field("int_list", SweepSpec.grid,
                            "swept sizes, spanning two decades or more"),
        "other_size": Field("int", SweepSpec.other, "non-swept sample size"),
        "tau_plus": Field("float", -1.0, "negative means the mixture's own", (None, 1)),
        "s_points": Field("int", 8, "points per random mixture"),
        "k_classes": Field("int", 5, "classes per random mixture", (2, None)),
        "embed_dim": Field("int", 8, "dimension of the random unit embeddings", (1, None)),
        # A decaying gap fits a negative slope; slope_min <= slope_max is
        # checked by the command, before the sweep draws.
        "slope_min": Field("float", -0.65, "lowest passing fitted slope", (None, 0)),
        "slope_max": Field("float", -0.35, "highest passing fitted slope", (None, 0)),
        "r2_min": Field("float", 0.9, "lowest passing fit r^2", (0, 1)),
    },
    "verify.lemma4": _COMMON | {
        "embeddings": Field("int", 100, "random embeddings per mixture"),
        "mixtures": Field("int", 3, "random mixtures"),
        "k_list": Field("int_list", (2, 3, 5), "class counts cycled over mixtures", (2, None)),
        "s_points": Field("int", 10, "points per random mixture"),
        "embed_dim": Field("int", 8, "dimension of the random unit embeddings", (1, None)),
        "n_max_factor": Field("int", 4, "sweep N = K-1 .. factor*K", (1, None)),
    },
    "verify.oracle": _COMMON | {
        "instances": Field("int", 50, "random (embedding, mixture, N) instances"),
        # An instance draws K in 2..5 and then S in max(K, 4)..s_max.
        "s_max": Field("int", 10, "largest number of points", (5, None)),
        "n_max": Field("int", 6, "largest negative sample size N", (1, ORACLE_MAX_N + 1)),
        "budget": Field("float", 1e9, "enumeration budget: rows evaluated, summed over anchors",
                        (1, None)),
        "tolerance": Field("float", 1e-9, "relative error threshold", (0, None)),
        "embed_dim": Field("int", 8, "dimension of the random unit embeddings", (1, None)),
    },
    "gradcheck": _COMMON | {
        "cases": Field("int", 200, "random configurations", (1, None)),
        "step": Field("float", 1e-6, "central difference step"),
        "tolerance": Field("float", 1e-5, "exit-1 threshold on max_rel_err", (0, None)),
    },
    "gen-data": _COMMON | {
        "preset": Field("str", "", "named mixture preset; empty = random"),
        "s_points": Field("int", 8, "points per random mixture"),
        "k_classes": Field("int", 4, "classes per random mixture", (2, None)),
        "feature_dim": Field("int", 4, "dimension of the mixture points", (1, None)),
        "filename": Field("str", "mixture.txt", "output file in the out directory"),
    },
}


def _parse_value(key: str, field: Field, raw: str):
    try:
        if field.kind == "int":
            return int(raw)
        if field.kind == "float":
            return float(raw)
        if field.kind == "str":
            return raw
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if field.kind == "int_list":
            return tuple(int(x) for x in items)
        if field.kind == "float_list":
            return tuple(float(x) for x in items)
        if field.kind == "str_list":
            return tuple(items)
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from exc
    raise ConfigError(f"unknown field kind {field.kind!r} for key {key!r}")


def _rule(field: Field) -> str:
    """A key's valid values, as its error and the unknown-key help state them."""
    low, high = field.bounds
    parts = ["non-empty"] if field.kind.endswith("_list") and field.default else []
    if low is not None:
        parts.append(f">= {low}")
    if high is not None:
        parts.append(f"< {high}")
    return ", ".join(parts)


def key_listing(command: str) -> str:
    """Every key of ``command``'s schema, one line each, with its default,
    help and valid range: the unknown-key error and ``--help`` both list it."""
    return "".join(f"\n  {key} = {render_value(field.default)}"
                   + (f"  ({field.help})" if field.help else "")
                   + (f"  valid: {rule}" if (rule := _rule(field)) else "")
                   for key, field in SCHEMAS[command].items())


def _check(key: str, field: Field, value) -> None:
    low, high = field.bounds
    values = value if field.kind.endswith("_list") else (value,)
    # Each comparison is written so that NaN fails it.
    if (field.default and not values) or not all(
            (low is None or v >= low) and (high is None or v < high) for v in values):
        raise ConfigError(f"{key} must be {_rule(field)}; got {render_value(value)!r}")


def load_config_file(path) -> dict[str, str]:
    """The ``key = value`` entries of a config or mixture file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def resolve(command: str, config_path: str | None, overrides: list[str],
            seed: int | None = None) -> dict:
    """Typed config for a command: defaults < file < --set (later wins) < --seed."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = SCHEMAS[command]
    raw: dict[str, str] = {}
    if config_path:
        raw.update(load_config_file(config_path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()

    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {sorted(unknown)}; "
                          f"valid keys and defaults:{key_listing(command)}")
    resolved = {key: field.default for key, field in schema.items()}
    for key, value in raw.items():
        resolved[key] = _parse_value(key, schema[key], value)
    if seed is not None:
        resolved["seed"] = int(seed)
    for key, field in schema.items():
        _check(key, field, resolved[key])
    if resolved["format_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config format_version {resolved['format_version']!r} != {SCHEMA_VERSION!r}"
        )
    return resolved


def render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_hash(resolved: dict) -> str:
    """sha256 over the canonical sorted ``key = value`` rendering."""
    lines = [f"{key} = {render_value(resolved[key])}" for key in sorted(resolved)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
