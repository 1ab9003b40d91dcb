"""Unit-sphere geometry: the row projection, its Jacobian, and the similarity
scores the batch loss computes from projected rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastlab.errors import NonFiniteVector, ZeroVector
from contrastlab.geometry import unit_rows
from contrastlab.losses import LossSpec

from conftest import random_orthogonal

finite_vectors = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=16,
).filter(lambda v: np.linalg.norm(v) > 1e-6)


def unit(v) -> np.ndarray:
    """``v`` projected onto the unit sphere by :func:`unit_rows`."""
    return unit_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


def projection_jacobian_numeric(v, step=1e-6) -> np.ndarray:
    """Central-difference Jacobian of :func:`unit` at ``v``."""
    dim = v.shape[0]
    numeric = np.empty((dim, dim))
    for j in range(dim):
        bump = np.zeros(dim)
        bump[j] = step
        numeric[:, j] = (unit(v + bump) - unit(v - bump)) / (2 * step)
    return numeric


def similarities(rows, t) -> np.ndarray:
    """Similarity matrix f f^T / t of the projected rows, at a temperature
    that ``LossSpec`` accepts.  ``batch_terms`` scores a batch the same way;
    the batch-loss tests that compare it with ``biased_loss_point`` check
    that to 1e-12."""
    f = unit_rows(np.asarray(rows, dtype=np.float64))
    return f @ f.T / LossSpec(temperature=t).temperature


def similarity(a, b, t) -> float:
    return float(similarities([a, b], t)[0, 1])


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(unit([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=0)

    def test_identity_on_unit_vector(self):
        np.testing.assert_array_equal(unit([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_diagonal(self):
        np.testing.assert_allclose(unit([1.0, 1.0]), [0.7071067811865475] * 2, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            unit_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVector):
            unit_rows(np.array([[1e-301, 0.0]]))

    def test_non_finite_norm_rejected(self):
        # The norm of [1e300, 1e300] overflows, and x / inf would be a zero row.
        for row in ([1e300, 1e300], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(NonFiniteVector):
                unit_rows(np.array([[1.0, 2.0], row]))

    def test_idempotent(self, rng):
        once = unit_rows(rng.standard_normal((4, 8)))
        np.testing.assert_allclose(unit_rows(once), once, atol=1e-15)

    @given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, v, c):
        np.testing.assert_allclose(unit(np.asarray(v) * c), unit(v), atol=1e-12)

    def test_unit_embedding_invariants(self, rng):
        # Every projected row is unit-norm to 1e-12, whatever the input scale.
        x = rng.standard_normal((50, 6)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        np.testing.assert_allclose(np.linalg.norm(unit_rows(x), axis=1), 1.0, rtol=0, atol=1e-12)


class TestNormalizeJacobian:
    """The projection's Jacobian (I - u u^T) / ||v||, u = v/||v||, is what the
    analytic gradient applies through ``unit_rows``; check it numerically."""

    def test_radial_null_space(self):
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(projection_jacobian_numeric(v) @ v, [0.0, 0.0], atol=1e-9)

    def test_direct_formula(self):
        jac = projection_jacobian_numeric(np.array([2.0, 0.0]))
        np.testing.assert_allclose(jac, [[0.0, 0.0], [0.0, 0.5]], atol=1e-9)

    def test_symmetry_and_null_space_random(self, rng):
        for _ in range(20):
            v = rng.standard_normal(5) * rng.uniform(0.1, 10)
            jac = projection_jacobian_numeric(v)
            scale = np.abs(jac).max()
            np.testing.assert_allclose(jac, jac.T, atol=1e-8 * scale)
            np.testing.assert_allclose(jac @ v, np.zeros(5), atol=1e-8 * scale * np.linalg.norm(v))

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_matches_finite_differences(self, dim, rng):
        # Central-difference oracle, step 1e-6, 100 random vectors per dim.
        for _ in range(100):
            v = rng.standard_normal(dim) * rng.uniform(0.5, 2.0)
            n = np.linalg.norm(v)
            u = v / n
            jac = (np.eye(dim) - np.outer(u, u)) / n
            numeric = projection_jacobian_numeric(v)
            scale = np.abs(numeric).max()
            assert np.abs(jac - numeric).max() / scale <= 1e-6


class TestSimilarity:
    def test_self_similarity(self):
        a = [1.0, 2.0, 2.0]
        assert similarity(a, a, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_with_temperature(self):
        assert similarity([1.0, 0.0], [-1.0, 0.0], 0.5) == pytest.approx(-2.0, abs=1e-12)

    def test_orthogonal(self):
        assert similarity([1.0, 0.0], [0.0, 1.0], 1.0) == 0.0

    def test_symmetric(self, rng):
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        assert similarity(a, b, 0.7) == pytest.approx(similarity(b, a, 0.7), abs=1e-15)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            similarity([1.0, 0.0], [1.0, 0.0], 0.0)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            similarity([1.0, 0.0], [1.0, 0.0], float("nan"))

    def test_bounded_by_inverse_temperature(self, rng):
        for t in (0.05, 0.5, 2.0):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            assert abs(similarity(a, b, t)) <= 1.0 / t + 1e-12

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_rotation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 10))
        rot = random_orthogonal(gen, d)
        a = unit(gen.standard_normal(d))
        b = unit(gen.standard_normal(d))
        t = float(gen.uniform(0.1, 2.0))
        before = similarity(a, b, t)
        after = similarity(rot @ a, rot @ b, t)
        assert after == pytest.approx(before, abs=1e-12)


class TestBatchHelpers:
    def test_unit_rows_matches_normalize(self, rng):
        x = rng.standard_normal((5, 4))
        rows = unit_rows(x)
        for i in range(5):
            np.testing.assert_allclose(rows[i], x[i] / np.linalg.norm(x[i]), atol=1e-15)

    def test_similarity_matrix_symmetric_unit_diag(self, rng):
        sims = similarities(rng.standard_normal((6, 5)), 0.5)
        np.testing.assert_allclose(sims, sims.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(sims), 2.0, atol=1e-12)
