"""A reusable Cholesky factorization of a small symmetric positive definite matrix.

No command imports this module: the steppers' stiff flow is per-axis and
solves nothing.  The tests factor a mass matrix with it (the discrete
Lagrangians' mass check and Stormer-Verlet with a modified mass), and
perfbench's tracer names spd_factor and SpdFactor.solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPositiveDefinite(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""


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

