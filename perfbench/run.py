"""contrastlab benchmark: one workload in one process, one result line.

    python3 perfbench/run.py --workload {certify,direction,exact} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from anywhere inside a contrastlab checkout; the package is imported
from the checkout's ``src``.  The workload (see ``workloads.py``) is built
from ``--seed`` and run in passes, each writing fresh artifacts under
``.perfbench-work/``, until ``--seconds`` are spent.  The first pass warms
caches and lazy imports and is not timed.  Every pass is checked
for correct outputs, byte-identical artifacts and identical work counts
across the run's passes.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of start-up, imports and workload construction, up to
the first timed call), ``wall_s`` (median pass time), ``ops_per_s``
(operations per second of a pass, median) and ``peak_rss_mb``.  Each
pass's details also give the time of each of its steps.

``--trace 1`` alternates untraced and traced passes after the warm-up (at
least two of each).
Traced passes record a span per call of each layer's public functions (see
``spans.py``) and report per-layer calls, self time and work counts; the
spans of the last traced pass are written to ``.perfbench-work``.  Traced
passes must produce the same artifacts and work counts as untraced ones.

The last stdout line is the JSON result; the line before it holds machine
metadata and per-pass details.  Exit status is 0 only if every check held.
"""

from __future__ import annotations

import os
import sys

# BLAS threading is the harness's setting, never the library's; it must be
# in the environment before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
# glibc mallopt parameters.  Kept fixed, the heap stops returning the
# workloads' half-megabyte arrays to the kernel after each free, so passes
# do not differ in page faults; without this, direction passes varied by
# +-15% and the first pass ran 40% slow.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 256 << 20), "M_TOP_PAD": (-2, 64 << 20),
                   "M_MMAP_THRESHOLD": (-3, 64 << 20)}
SETUP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

TRACED_FUNCTIONS = (
    "verification.theorem3_certificate", "verification.rate_fit",
    "losses.batch_terms", "autograd.loss_and_grad",
    "encoder.encoder_forward", "encoder.encoder_backward",
    "training.train", "training.make_batches", "worldmodel.sample_views",
    "evaluation.linear_probe", "experiments.direction_probe_accuracy",
    "losses.binomial_oracle", "losses.unbiased_loss_exact",
    "verification.oracle_certificate", "losses.asymptotic_debiased_exact",
    "losses.mean_classifier_loss", "evaluation.lemma4_chain_check",
    "autograd.finite_diff_check", "autograd.batch_loss_terms",
    "cli.main", "rng.substream",
)
WORK_COUNTS = {
    "verification.mc_trials": "count",
    "verification.mc_draws": "count",
    "losses.batch_terms.gram_gflop": "GFLOP",
    "training.steps": "count",
    "training.views_drawn": "count",
    "evaluation.linear_probe.newton_iters": "count",
    "losses.enum_rows": "count",
}
PER_LAYER = ({f"{fn}.{stat}": unit for fn in TRACED_FUNCTIONS
              for stat, unit in (("calls", "count"), ("self_s", "s"))}
             | WORK_COUNTS | {"trace.overhead_frac": "ratio"})


def _import_library():
    """Put the checkout's ``src`` first on the path and import the harness."""
    missing = [p for p in ("src/contrastlab/__init__.py", "configs/direction.txt")
               if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: {ROOT} is not a contrastlab checkout; missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    import contrastlab
    if Path(contrastlab.__file__).resolve().parent != ROOT / "src" / "contrastlab":
        raise SystemExit(f"perfbench: imported contrastlab from {contrastlab.__file__}")
    import spans
    import workloads
    return spans, workloads


def steady_allocator() -> dict:
    """Apply MALLOC_SETTINGS to this process; returns what was applied."""
    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None:
        return {}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return {key: value for key, (param, value) in MALLOC_SETTINGS.items()
            if mallopt(param, value) == 1}


def machine_metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class Run:
    """The passes of one benchmark run and everything they must agree on."""

    def __init__(self, workload, spans_mod, run_dir: Path) -> None:
        self.workload = workload
        self.spans = spans_mod
        self.run_dir = run_dir
        self.passes: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] | None = None
        self.reference_counts: dict | None = None
        self.traced_stats: list[dict] = []
        self.last_tracer = None

    def one_pass(self, traced: bool, warmup: bool = False) -> float:
        out = self.run_dir / f"pass{len(self.passes)}"
        tracer = self.spans.Tracer() if traced else None
        codes, steps = {}, {}
        with tracer or contextlib.nullcontext():
            for name, step in self.workload.steps(out):
                start = time.perf_counter()
                codes[name] = step()
                steps[name] = time.perf_counter() - start
        wall = sum(steps.values())

        outcome = self.workload.check(out, codes)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        artifacts = read_artifacts(out)
        counts = self.workload.work_counts(out) if outcome.failed == 0 else {}
        if self.reference is None:
            self.reference, self.reference_counts = artifacts, counts
        else:
            if artifacts != self.reference:
                changed = sorted(k for k in artifacts.keys() | self.reference.keys()
                                 if artifacts.get(k) != self.reference.get(k))
                self.problems.append(f"pass {len(self.passes)}: artifacts differ: {changed[:5]}")
            if counts != self.reference_counts:
                self.problems.append(f"pass {len(self.passes)}: work counts differ: "
                                     f"{counts} vs {self.reference_counts}")
        shutil.rmtree(out)

        if tracer is not None:
            self._check_trace(tracer, counts)
        ok_ops = outcome.attempted - outcome.failed
        self.passes.append({"warmup": warmup, "traced": traced, "wall_s": wall,
                            "steps_s": steps, "ops": ok_ops, "failed": outcome.failed})
        return wall

    def _check_trace(self, tracer, counts: dict) -> None:
        stats = tracer.layer_stats()
        layer = {name: {"calls": stats.get(name, {}).get("calls", 0),
                        "self_s": stats.get(name, {}).get("self_s", 0.0)}
                 for name in TRACED_FUNCTIONS}
        work = {name: tracer.counts.get(name, 0) for name in WORK_COUNTS}
        for key, value in counts.items():
            name, _, stat = key.rpartition(".")
            traced = layer[name]["calls"] if stat == "calls" else work[key]
            if traced != value:
                self.problems.append(f"traced {key} = {traced}, artifacts give {value}")
        for name in self.workload.layers:
            if layer[name]["calls"] == 0:
                self.problems.append(f"traced pass never called {name}")
        if self.traced_stats:
            first = self.traced_stats[0]
            repeat = {k: v["calls"] for k, v in layer.items()} | work
            before = {k: v["calls"] for k, v in first["layer"].items()} | first["work"]
            if repeat != before:
                diff = sorted(k for k in repeat if repeat[k] != before[k])
                self.problems.append(f"same-seed traced passes differ in counts: {diff}")
        self.traced_stats.append({"layer": layer, "work": work})
        self.last_tracer = tracer

    def timed(self, traced: bool) -> list[dict]:
        return [p for p in self.passes if not p["warmup"] and p["traced"] == traced]

    def median_wall(self, traced: bool) -> float:
        return statistics.median(p["wall_s"] for p in self.timed(traced))

    def end_to_end(self, setup: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup),
            "wall_s": self.median_wall(False),
            "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in self.timed(False)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        last = self.traced_stats[-1]
        values = {}
        for name in TRACED_FUNCTIONS:
            values[f"{name}.calls"] = last["layer"][name]["calls"]
            values[f"{name}.self_s"] = statistics.median(
                s["layer"][name]["self_s"] for s in self.traced_stats)
        values |= last["work"]
        values["trace.overhead_frac"] = self.median_wall(True) / self.median_wall(False) - 1.0
        return values


def measure(args, spans_mod, workloads_mod) -> tuple[Run, list[float]]:
    workload = workloads_mod.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    setup = [] if args.trace else measure_setup(args)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = Run(workload, spans_mod, run_dir)
    min_passes = 5 if args.trace else 2
    try:
        started = time.perf_counter()
        run.one_pass(traced=False, warmup=True)
        while True:
            # Traced runs alternate: untraced, traced, untraced, traced, ...
            wall = run.one_pass(traced=bool(args.trace) and len(run.passes) % 2 == 0)
            spent = time.perf_counter() - started
            if len(run.passes) >= min_passes and spent + wall > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.last_tracer is not None:
        run.last_tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.npz")
    return run, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "direction", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurement)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spans_mod, workloads_mod = _import_library()
    if args.setup_probe:
        workloads_mod.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        print(time.monotonic())
        return 0

    allocator = steady_allocator()
    run, setup = measure(args, spans_mod, workloads_mod)
    if args.trace:
        metrics = run.per_layer()
        units = PER_LAYER
    else:
        metrics = run.end_to_end(setup)
        units = END_TO_END
    correct = run.failed == 0 and not run.problems
    details = {
        "meta": machine_metadata() | {"mallopt": allocator},
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "passes": run.passes, "setup_samples_s": setup,
        "ops_failed_frac": run.failed / max(run.attempted, 1),
        "work_counts": run.reference_counts,
        "work_per_s": {k: v / run.median_wall(False)
                       for k, v in (run.reference_counts or {}).items()},
        "problems": run.problems[:20],
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
