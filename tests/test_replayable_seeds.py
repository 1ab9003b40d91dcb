"""Replayable tests: no test file calls the builtin ``hash``.

Python salts the hash of ``str`` and ``bytes`` per process
(``PYTHONHASHSEED``), so a seed derived from ``hash(...)`` differs from run
to run and a failing case cannot be replayed.  Derive seeds from a stable
key instead, such as ``zlib.crc32`` of the case's repr.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _hash_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.relative_to(TESTS)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "hash"]


def test_no_test_calls_builtin_hash():
    files = sorted(TESTS.rglob("*.py"))
    assert len(files) > 1, "scan found no test files; is the tests path right?"
    calls = [site for path in files for site in _hash_calls(path)]
    assert not calls, f"builtin hash() is salted per process; use a stable key: {calls}"
