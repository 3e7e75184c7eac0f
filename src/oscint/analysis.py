"""Diagnostics: modified frequencies, linear stability, energy errors.

The stability tools build one-step propagation matrices by stepping the
method's kernel once on a block of basis states, bound by the entry
integrate binds through (steppers._kernel, on the method's statements),
so they exercise production code rather than re-derived formulas.  The
modified mass and the discrete Lagrangians, which read the IMEX step as a
variational integrator, are proof code and live beside the tests
(tests/variational.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .steppers import BLOWUP, Method, StepperSpec, Trajectory, _STATEMENTS, _step_once
from .systems import coupled_oscillator_build

ENERGY_ERROR_CAP = 1e12
STABILITY_TOL = 1e-12


class DegenerateInput(ValueError):
    """Input leaves the requested quantity undefined."""


def modified_frequency(h: float, omega: float) -> float:
    """Frequency w~ with tan(w~*h/2) = omega*h/2, in [0, pi/h).

    Evaluated as 2*atan(omega*h/2)/h, which stays accurate for large
    omega*h; the equivalent arccos form loses digits there.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive and finite")
    if not (omega >= 0.0 and math.isfinite(omega)):
        raise ValueError("omega must be finite and nonnegative")
    return 2.0 * math.atan(0.5 * h * omega) / h


def propagation_matrix(spec: StepperSpec, omega) -> np.ndarray:
    """One-step matrix of the method on the model problem: (2, 2) for a
    scalar omega, (d, 2, 2), one per axis, for a vector of d.

    The method's kernel is bound to the basis states q = [1, 0], p = [0, 1]
    of every axis and stepped once.  The kernels act elementwise, so each
    axis steps as it would alone; not so midpoint-full, whose stopping rule
    takes the max norm over the whole block, so that its matrices can differ
    in the last bits from per-axis steps (no library path asks for them).
    """
    sys = coupled_oscillator_build(omega)
    # block[0] is q and block[1] is p, each of shape (2 basis states, d)
    block = np.repeat(np.eye(2)[..., np.newaxis], sys.d, axis=-1)
    _step_once(sys, _STATEMENTS[spec.method], spec.h, *block, spec.substeps)
    mats = np.moveaxis(block, -1, 0)
    return mats if np.ndim(omega) else mats[0]


def spectral_radius_2x2(p) -> float:
    """Largest eigenvalue modulus of a real 2x2 matrix via the quadratic formula."""
    (a, b), (c, d) = np.asarray(p, dtype=float)
    tr = a + d
    det = a * d - b * c
    # scimath.sqrt goes complex for a conjugate (rotation-like) pair
    root = np.lib.scimath.sqrt(tr * tr - 4.0 * det)
    return float(max(abs(0.5 * (tr + root)), abs(0.5 * (tr - root))))


@dataclass(frozen=True)
class StabilityReport:
    method: str
    h: float
    omega: float
    spectral_radius: float
    stable: bool


def imex_stability(h: float, omega: float) -> StabilityReport:
    """Linear stability of the IMEX step on the model problem; stable means
    spectral radius <= 1 + STABILITY_TOL."""
    rho = spectral_radius_2x2(propagation_matrix(StepperSpec(Method.IMEX, h), omega))
    return StabilityReport("imex", h, omega, rho, rho <= 1.0 + STABILITY_TOL)


def max_energy_error(traj: Trajectory) -> float:
    """Largest |H - H0| over the recorded samples, capped at ENERGY_ERROR_CAP;
    a blown-up run reports the cap."""
    if traj.status == BLOWUP:
        return ENERGY_ERROR_CAP
    err = float(np.max(np.abs(traj.energies - traj.energies[0])))
    if not math.isfinite(err):
        return ENERGY_ERROR_CAP
    return min(err, ENERGY_ERROR_CAP)


def windowed_mean(times, values, window: float) -> np.ndarray:
    """Mean over a centered window [t - w/2, t + w/2], truncated at the ends.

    Returns the averaged values at the input times.  Windows narrower than
    the sample spacing reduce to the identity.
    """
    if not (window > 0.0 and math.isfinite(window)):
        raise ValueError("window must be positive and finite")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError("times and values must be equal-length vectors")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    lo = np.searchsorted(t, t - 0.5 * window, side="left")
    hi = np.searchsorted(t, t + 0.5 * window, side="right")
    csum = np.concatenate([[0.0], np.cumsum(v)])
    return (csum[hi] - csum[lo]) / (hi - lo)


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log error against log step size."""
    if len(errors) < 2:
        raise ValueError("need at least two (h, error) pairs")
    h = np.array([e[0] for e in errors], dtype=float)
    err = np.array([e[1] for e in errors], dtype=float)
    if np.any(~np.isfinite(err)) or np.any(err <= 0.0):
        raise DegenerateInput("errors must be finite and positive")
    slope, _ = np.polyfit(np.log(h), np.log(err), 1)
    return float(slope)
