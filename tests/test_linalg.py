"""Unit tests for the small dense linear-algebra helpers: the SPD factor
(oscint.linalg), the 2x2 spectral radius (oscint.analysis) and the test-side
symmetric-matrix check (tests/variational.py)."""
import numpy as np
import pytest

from oscint.analysis import spectral_radius_2x2
from oscint.linalg import NotPositiveDefinite, spd_factor
from variational import sym_matrix


class TestMatrixValidators:
    def test_sym_matrix_accepts_symmetric(self):
        a = sym_matrix([[2.0, 1.0], [1.0, 3.0]])
        assert a.dtype == np.float64
        assert np.array_equal(a, a.T)

    def test_sym_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_matrix(np.zeros((2, 3)))

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_matrix([[0.0, 1.0], [1.0 + 1e-15, 0.0]])

    def test_sym_matrix_rejects_non_finite(self):
        # a NaN entry also fails the symmetry test; the finiteness message wins
        for bad in ([[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="entries must be finite"):
                sym_matrix(bad)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spd_factor(np.eye(3)).solve(b), b)

    def test_scalar(self):
        assert spd_factor([[4.0]]).solve([2.0]) == pytest.approx([0.5])

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 17))
            b_mat = rng.standard_normal((d, d))
            a = b_mat.T @ b_mat + np.eye(d)
            b = rng.standard_normal(d)
            x = spd_factor(a).solve(b)
            resid = np.max(np.abs(a @ x - b))
            assert resid <= 1e-12 * (1.0 + np.max(np.abs(b)))

    def test_factor_reuse(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        factor = spd_factor(a)
        for b in ([1.0, 0.0], [0.0, 1.0], [3.0, -4.0]):
            assert factor.solve(b) == pytest.approx(np.linalg.solve(a, b), rel=1e-12)

    def test_indefinite_raises(self):
        # eigenvalues -1 and 3
        with pytest.raises(NotPositiveDefinite):
            spd_factor([[1.0, 2.0], [2.0, 1.0]]).solve([1.0, 1.0])

    def test_semidefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factor([[0.0]])


class TestSpectralRadius2x2:
    def test_identity(self):
        assert spectral_radius_2x2(np.eye(2)) == 1.0

    def test_pure_rotation(self):
        assert spectral_radius_2x2([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal(self):
        assert spectral_radius_2x2([[2.0, 0.0], [0.0, 0.5]]) == 2.0

    def test_agrees_with_eigvals(self):
        # generic draws sit far from the defective set, where both routes are
        # well conditioned; near-defective inputs are legitimately inexact
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-10.0, 10.0, size=(2, 2))
            want = float(np.max(np.abs(np.linalg.eigvals(p))))
            assert abs(spectral_radius_2x2(p) - want) <= 1e-12 * (1.0 + want)
