"""Unit-sphere embeddings: row-wise projection onto the unit sphere.

Embeddings are stored unit-norm and the temperature enters as a 1/t factor
on inner products, so every exponent downstream has the form exp((a.b)/t).
All values are float64.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteVector, ZeroVector

_MIN_NORM = 1e-300


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise normalization x / ||x|| over the last axis, so a stack of
    matrices is normalized matrix by matrix.

    Raises :class:`NonFiniteVector` when a row's norm is not finite (x / inf
    would be a zero row) and :class:`ZeroVector` when it is below 1e-300.
    """
    x = np.asarray(x, dtype=np.float64)
    return x / _row_norms(x)[..., None]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The norms :func:`unit_rows` divides by, with its checks, for a caller
    that needs them again (the unit projection's Jacobian).  The sum is the
    one ``np.linalg.norm(x, axis=-1)`` takes for real rows, bit for bit,
    without its copy of x."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-1))
    if not np.isfinite(norms).all():
        raise NonFiniteVector("cannot normalize rows whose norm is not finite")
    if (norms < _MIN_NORM).any():
        raise ZeroVector("cannot normalize rows with zero norm")
    return norms
