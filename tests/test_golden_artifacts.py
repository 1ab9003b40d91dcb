"""Golden artifacts: byte-identity across changes is a check, not a claim.

Eleven small CLI runs write their artifacts and stdout; the sha256 digest of
each file, of stdout and the exit code must equal the committed manifest,
``golden_artifacts.json``.  A multiset table's probabilities
(``losses._multiset_table``) are numpy row sums, not a BLAS product, so they
do not depend on the BLAS thread count: ``verify oracle`` is also run in a
fresh interpreter at two OpenBLAS threads against the same digests.  The
manifest records the numpy version it was made under; a mismatch under
another numpy is a finding to report, not a reason to skip.

A change that moves a digest on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden_artifacts.py

and says in ``CHANGES.md`` which artifacts moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from contrastlab.cli import main

from conftest import run_python

MANIFEST = Path(__file__).with_name("golden_artifacts.json")
DIRECTION_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "direction.txt"

_SMALL_TRAIN = ["--set", "epochs=2", "--set", "dataset_size=64", "--set", "batch_size=16",
                "--set", "loss_kinds=biased,debiased,unbiased",
                "--set", "eval_train_size=256", "--set", "eval_test_size=256"]

RUNS = {
    "verify-lemma4": ["verify", "lemma4"],
    "verify-thm3": ["verify", "thm3", "--set", "instances=1"],
    "verify-oracle": ["verify", "oracle"],
    "verify-lemma1": ["verify", "lemma1", "--set", "instances=2"],
    "verify-rate": ["verify", "rate"],
    "gradcheck": ["gradcheck"],
    # mixture_text's bytes, as RunReport.write writes them: a random mixture and a preset.
    "gen-data-random": ["gen-data", "--seed", "6", "--set", "s_points=6",
                        "--set", "k_classes=3"],
    "gen-data-preset": ["gen-data", "--set", "preset=paper-uniform"],
    # Every loss kind, instance mode with the true-negative pool, tail averaging.
    "train": ["train", "--config", str(DIRECTION_CONFIG), "--set", "seeds=1",
              "--set", "epochs=4", "--set", "tail_average=2",
              "--set", "eval_replicas=1", "--set", "eval_test_size=512"],
    # The class-mode and discrete draws of the dataset and the true-negative pool.
    "train-class": ["train", *_SMALL_TRAIN],
    "train-discrete": ["train", "--set", "world=discrete", "--set", "preset=paper-uniform",
                       *_SMALL_TRAIN],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(code: int, stdout: str, out: Path) -> dict:
    files = {str(p.relative_to(out)): _sha256(p.read_bytes())
             for p in sorted(out.rglob("*")) if p.is_file()}
    # gen-data prints the path it wrote; the run's directory is not its output.
    stdout = stdout.replace(str(out), "<out>")
    return {"exit": code, "stdout": _sha256(stdout.encode()), "files": files}


def run_digests(argv: list[str], out: Path) -> dict:
    """Exit code, stdout digest and per-file digests of one in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--out", str(out)])
    return _digests(code, buf.getvalue(), out)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_golden_digests(name, manifest, tmp_path):
    got = run_digests(RUNS[name], tmp_path / name)
    want = manifest["runs"][name]
    moved = sorted(f for f in got["files"].keys() | want["files"].keys()
                   if got["files"].get(f) != want["files"].get(f))
    where = f"numpy {np.__version__}, manifest made under numpy {manifest['numpy']}"
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), \
        f"{name}: exit code or stdout moved ({where})"
    assert not moved, f"{name}: artifacts moved: {moved} ({where})"


def test_oracle_matches_its_golden_digests_at_two_blas_threads(manifest, tmp_path):
    # The oracle's values must not depend on how BLAS splits work between
    # threads.  run_python checks that the exit code is 0, as recorded.
    out = tmp_path / "verify-oracle"
    proc = run_python(["-m", "contrastlab.cli", *RUNS["verify-oracle"], "--out", str(out)], 2)
    assert _digests(proc.returncode, proc.stdout, out) == manifest["runs"]["verify-oracle"]


def test_manifest_covers_every_run(manifest):
    assert sorted(manifest["runs"]) == sorted(RUNS)
    assert all(entry["files"] for entry in manifest["runs"].values())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(argv, Path(tmp) / name) for name, argv in RUNS.items()}
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "runs": runs},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
