"""Small dense linear algebra: SPD factorization, matrix validation, 2x2 spectra.

The steppers' stiff flow is per-axis and needs none of this; the SPD
factorization serves the discrete Lagrangians' mass check, sized for a
handful of degrees of freedom.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPositiveDefinite(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""


def sym_matrix(entries) -> np.ndarray:
    """Validate and return an exactly symmetric float64 matrix."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix entries are not exactly symmetric")
    return a


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Reusable Cholesky factorization A = L L' of a symmetric positive definite matrix."""

    lower: np.ndarray

    def solve(self, b) -> np.ndarray:
        y = np.linalg.solve(self.lower, np.asarray(b, dtype=float))
        return np.linalg.solve(self.lower.T, y)


def spd_factor(a) -> SpdFactor:
    """Factor a symmetric positive definite matrix once for repeated solves."""
    a = np.asarray(a, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return SpdFactor(lower)


def spectral_radius_2x2(p) -> float:
    """Largest eigenvalue modulus of a real 2x2 matrix via the quadratic formula."""
    (a, b), (c, d) = np.asarray(p, dtype=float)
    tr = a + d
    det = a * d - b * c
    # scimath.sqrt goes complex for a conjugate (rotation-like) pair
    root = np.lib.scimath.sqrt(tr * tr - 4.0 * det)
    return float(max(abs(0.5 * (tr + root)), abs(0.5 * (tr - root))))
