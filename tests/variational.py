"""The variational reading of the steppers, which the tests check and no
command runs.

A discrete Lagrangian on a position pair is the kinetic term
(h/2) v' M v with v = (q1 - q0)/h, less a quadrature of the potential.
Three quadrature choices share that kinetic term:

  TRAPEZOIDAL  endpoint average of the full potential (slow + fast),
  MIDPOINT     full potential at the interval midpoint,
  IMEX         endpoint average of the slow potential, midpoint fast term.

Their discrete Euler-Lagrange equations generate Stormer-Verlet, the
implicit midpoint rule and the IMEX splitting.  The IMEX variant with unit
mass equals the trapezoidal one carrying the modified mass
M~ = I + (h^2/4) Omega^2 (modified_mass), which is how the splitting reads
as Verlet with a modified mass.  The discrete Euler-Lagrange residual and
the two discrete Legendre transforms are assembled from the analytic
partials.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from oscint.linalg import spd_factor
from oscint.systems import OscillatorySystem


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


def modified_mass(h: float, omega2) -> np.ndarray:
    """M~ = I + (h^2/4) Omega^2, the mass that makes the endpoint-quadrature
    step reproduce the midpoint treatment of the fast force."""
    omega2 = sym_matrix(omega2)
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    return np.eye(omega2.shape[0]) + 0.25 * h * h * omega2


class Quadrature(enum.Enum):
    TRAPEZOIDAL = "trapezoidal"
    MIDPOINT = "midpoint"
    IMEX = "imex"


@dataclass(frozen=True, eq=False)
class DiscreteLagrangian:
    """A quadrature variant bound to a system, step size and mass matrix.

    mass=None means the identity; a symmetric positive definite override is
    accepted (checked once here via a factorization probe).
    """

    system: OscillatorySystem
    h: float
    variant: Quadrature
    mass: np.ndarray | None = None

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        if self.mass is not None:
            mass = sym_matrix(self.mass)
            if mass.shape != (self.system.d, self.system.d):
                raise ValueError("mass shape does not match the system")
            spd_factor(mass)
            object.__setattr__(self, "mass", mass)


def _mass_apply(ld: DiscreteLagrangian, v: np.ndarray) -> np.ndarray:
    if ld.mass is None:
        return v
    return ld.mass @ v


def _grad_slow(sys: OscillatorySystem, q: np.ndarray) -> np.ndarray:
    return -np.asarray(sys.slow_force(q), dtype=float)


def ld_value(ld: DiscreteLagrangian, q0, q1) -> float:
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    h, sys = ld.h, ld.system
    v = (q1 - q0) / h
    kinetic = 0.5 * h * float(v @ _mass_apply(ld, v))
    mid = 0.5 * (q0 + q1)
    if ld.variant is Quadrature.TRAPEZOIDAL:
        pot = 0.5 * h * (
            sys.slow_potential(q0) + sys.fast_potential(q0)
            + sys.slow_potential(q1) + sys.fast_potential(q1)
        )
    elif ld.variant is Quadrature.MIDPOINT:
        pot = h * (sys.slow_potential(mid) + sys.fast_potential(mid))
    else:
        pot = 0.5 * h * (sys.slow_potential(q0) + sys.slow_potential(q1))
        pot += h * sys.fast_potential(mid)
    return kinetic - pot


def _partial_terms(ld: DiscreteLagrangian, q0, q1, at_q1: bool):
    """M v and the potential gradient that the partial with respect to q0
    (at_q1 false) or q1 (at_q1 true) weighs by h/2."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    sys = ld.system
    mv = _mass_apply(ld, (q1 - q0) / ld.h)
    mid = 0.5 * (q0 + q1)
    end = q1 if at_q1 else q0
    if ld.variant is Quadrature.TRAPEZOIDAL:
        return mv, _grad_slow(sys, end) + sys.w2 * end
    if ld.variant is Quadrature.MIDPOINT:
        return mv, _grad_slow(sys, mid) + sys.w2 * mid
    return mv, _grad_slow(sys, end) + sys.w2 * mid


def ld_d1(ld: DiscreteLagrangian, q0, q1) -> np.ndarray:
    """Exact gradient of ld_value with respect to the first endpoint."""
    mv, grad = _partial_terms(ld, q0, q1, at_q1=False)
    return -mv - 0.5 * ld.h * grad


def ld_d2(ld: DiscreteLagrangian, q0, q1) -> np.ndarray:
    """Exact gradient of ld_value with respect to the second endpoint."""
    mv, grad = _partial_terms(ld, q0, q1, at_q1=True)
    return mv - 0.5 * ld.h * grad


def del_residual(ld: DiscreteLagrangian, q_prev, q, q_next) -> np.ndarray:
    """Discrete Euler-Lagrange residual D1(q, q_next) + D2(q_prev, q)."""
    return ld_d1(ld, q, q_next) + ld_d2(ld, q_prev, q)


def legendre_minus(ld: DiscreteLagrangian, q0, q1) -> np.ndarray:
    """Momentum at the left endpoint: p0 = -D1(q0, q1)."""
    return -ld_d1(ld, q0, q1)


def legendre_plus(ld: DiscreteLagrangian, q0, q1) -> np.ndarray:
    """Momentum at the right endpoint: p1 = D2(q0, q1)."""
    return ld_d2(ld, q0, q1)
