"""In-memory span tracer over contrastlab's layers.

Each module of the package is a layer.  ``Tracer.install`` wraps every
public function a layer defines and rebinds the wrapper under every name
that any contrastlab module holds for it, so call sites that did
``from .losses import batch_terms`` are traced as well.  The ``cli`` layer
is traced at its entry ``main`` only, so main's self time covers config
resolution, the command loops, artifact writing and the report.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time its child spans cover.  Work counters are computed from each traced
call's inputs (or, for the probe, its returned iteration count), so they
repeat exactly for the same seed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from contrastlab.worldmodel import marginal, negative_dist, positive_dist

LAYERS = ("autograd", "cli", "encoder", "evaluation", "experiments", "geometry",
          "losses", "rng", "training", "verification", "worldmodel")
ENTRY_ONLY = {"cli": ("main",)}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _support(dist: np.ndarray) -> int:
    return int(np.count_nonzero(dist > 0.0))


def _count_theorem3(counts, args, kwargs, result):
    n_neg = _arg(args, kwargs, 2, "n_neg")
    m_pos = _arg(args, kwargs, 3, "m_pos")
    trials = _arg(args, kwargs, 5, "trials")
    counts["verification.mc_trials"] += trials
    counts["verification.mc_draws"] += trials * (n_neg + m_pos)


def _count_rate_fit(counts, args, kwargs, result):
    sweep = _arg(args, kwargs, 2, "sweep")
    trials = _arg(args, kwargs, 3, "trials")
    for size in sweep.grid:
        counts["verification.mc_trials"] += trials
        counts["verification.mc_draws"] += trials * (int(size) + sweep.other)


def _count_batch_terms(counts, args, kwargs, result):
    v, d = np.shape(_arg(args, kwargs, 0, "f"))
    counts["losses.batch_terms.gram_gflop"] += 2.0 * v * v * d / 1e9


def _count_train(counts, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    counts["training.steps"] += config.epochs * (config.dataset_size // config.batch_size)


def _count_make_batches(counts, args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    batch_size = _arg(args, kwargs, 1, "batch_size")
    m_positives = _arg(args, kwargs, 2, "m_positives")
    pool = _arg(args, kwargs, 4, "negative_pool", 0)
    per_batch = (m_positives + 1) * batch_size + pool
    counts["training.views_drawn"] += (dataset.size // batch_size) * per_batch


def _count_linear_probe(counts, args, kwargs, result):
    counts["evaluation.linear_probe.newton_iters"] += result.iterations


def _count_unbiased_exact(counts, args, kwargs, result):
    """Multiset rows enumerated: C(s + N - 1, N) per anchor, s = negative support."""
    mix = _arg(args, kwargs, 1, "mix")
    n_neg = _arg(args, kwargs, 2, "n_neg")
    marg = marginal(mix)
    for a in range(mix.n_points):
        if marg[a] > 0.0:
            s = _support(negative_dist(mix, a))
            counts["losses.enum_rows"] += math.comb(s + n_neg - 1, n_neg)


def _count_binomial_oracle(counts, args, kwargs, result):
    """Rows of the joint (k positives, N-k marginal draws) grids per anchor."""
    mix = _arg(args, kwargs, 1, "mix")
    n_neg = _arg(args, kwargs, 2, "n_neg")
    marg = marginal(mix)
    s_marg = _support(marg)
    for a in range(mix.n_points):
        if marg[a] > 0.0:
            s_pos = _support(positive_dist(mix, a))
            for k in range(n_neg + 1):
                counts["losses.enum_rows"] += (math.comb(s_pos + k - 1, k)
                                               * math.comb(s_marg + n_neg - k - 1, n_neg - k))


COUNTERS = {
    "verification.theorem3_certificate": _count_theorem3,
    "verification.rate_fit": _count_rate_fit,
    "losses.batch_terms": _count_batch_terms,
    "training.train": _count_train,
    "training.make_batches": _count_make_batches,
    "evaluation.linear_probe": _count_linear_probe,
    "losses.unbiased_loss_exact": _count_unbiased_exact,
    "losses.binomial_oracle": _count_binomial_oracle,
}


class Tracer:
    """Records one span per call of each wrapped public function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self.counts: defaultdict[str, float] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "contrastlab" or name.startswith("contrastlab."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"contrastlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer in ENTRY_ONLY and attr not in ENTRY_ONLY[layer]:
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: number of calls and summed self time (s)."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        covered = np.zeros(duration.size)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        self_time = np.bincount(ids, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_time[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every span (name id, start, end, parent) plus the name table."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_ids, dtype=np.int32),
                 start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
                 parent=np.frombuffer(self.parents, dtype=np.int32))
