"""One-step maps for fast/slow systems and the trajectory driver.

The central method is an implicit-explicit splitting: a half kick from the
slow force, one implicit midpoint step of the fast quadratic part, and a
closing half kick.  Omega is diagonal, so the implicit midpoint "solve" is
one division per axis.  Baselines for comparison: plain Stormer-Verlet
(optionally with a modified mass matrix), a fully implicit midpoint step on
the whole potential, the multiple time-stepping impulse method (r-RESPA),
and an impulse variant whose fast rotation uses per-axis modified
frequencies.

Each method is an array kernel (q, p, k) -> (q1, p1, k1): k is the half
kick at q, (h/2) times the force the method kicks with (None to have the
kernel compute it), and k1 the half kick at q1.  Step n's closing kick and
step n+1's opening kick are one increment, so a run evaluates the slow
force once per step (first same as last) and scales it once.  integrate
loops over kernels on raw arrays; the public step_* functions are State
wrappers over the same kernels.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import spd_factor
from .systems import OscillatorySystem, State, stiff_energy_rows

BLOWUP_NORM_CAP = 1e8
# Work bound of one integrate run, each RESPA substep counted as a step;
# checked before anything is allocated.  At ~20 us per lattice step it is
# over half an hour of stepping.
MAX_STEPS = 10 ** 8

COMPLETED = "completed"
BLOWUP = "blowup"

# (q, p, half kick at q or None) -> (q1, p1, half kick at q1 or None)
Kernel = Callable[
    [np.ndarray, np.ndarray, np.ndarray | None],
    tuple[np.ndarray, np.ndarray, np.ndarray | None],
]
FastMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class NoConvergence(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, iterations: int):
        super().__init__(f"fixed point not converged after {iterations} iterations")
        self.iterations = iterations


class Method(enum.Enum):
    SV = "sv"
    IMEX = "imex"
    RESPA = "respa"
    MIDPOINT_FULL = "midpoint-full"
    MODIFIED_IMPULSE = "modified-impulse"


@dataclass(frozen=True)
class StepperSpec:
    """Method selection plus the knobs the method actually reads."""

    method: Method
    h: float
    substeps: int = 1
    mass_override: np.ndarray | None = None
    fp_tol: float = 1e-12
    fp_max_iter: int = 200

    def __post_init__(self) -> None:
        # accept the enum's string value so callers can say method="imex"
        object.__setattr__(self, "method", Method(self.method))
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if not self.fp_tol > 0.0 or self.fp_max_iter < 1:
            raise ValueError("fp_tol must be positive and fp_max_iter >= 1")


def _fast_midpoint(w2: np.ndarray, h: float) -> FastMap:
    """Implicit midpoint on q'' = -w2 q, per axis.

    Solves (1 + (h^2/4) w2) q1 = (1 - (h^2/4) w2) q0 + h p0, then
    p1 = p0 - (h/2) w2 (q0 + q1); exactly conserves the fast energy.
    """
    half, quarter_h2 = 0.5 * h, 0.25 * h * h
    denom = 1.0 + quarter_h2 * w2

    def fast(q, p):
        w2q = w2 * q
        q1 = (q + h * p - quarter_h2 * w2q) / denom
        return q1, p - half * (w2q + w2 * q1)

    return fast


def _fast_rotation(omega: np.ndarray, h: float) -> FastMap:
    """Rotation of each axis by its modified frequency.

    With a = h*omega_i/2 the rotation angle w~*h satisfies tan(w~*h/2) = a,
    so cos(w~*h) = (1 - a^2)/(1 + a^2) and the fast map per axis is

        [[c, (h/2)(1 + c)], [-(2/h)(1 - c), c]],  c = cos(w~*h).

    The entries are evaluated over the common denominator 1 + a^2, which is
    the same matrix with one rounding fewer per entry:
    (h/2)(1 + c) = h/(1 + a^2) and (2/h)(1 - c) = h*omega_i^2/(1 + a^2).
    Axes with omega_i = 0 reduce exactly to the free drift q + h p.
    """
    a2 = (0.5 * h * omega) ** 2
    h_w2 = h * omega ** 2
    cos_num = 1.0 - a2
    denom = 1.0 + a2

    def fast(q, p):
        return (cos_num * q + h * p) / denom, (cos_num * p - h_w2 * q) / denom

    return fast


def _fast_verlet(w2: np.ndarray, h: float, substeps: int) -> FastMap:
    """`substeps` Stormer-Verlet steps of the fast-only system across h."""
    dt = h / substeps
    half_dt = 0.5 * dt

    def fast(q, p):
        for _ in range(substeps):
            p = p - half_dt * (w2 * q)
            q = q + dt * p
            p = p - half_dt * (w2 * q)
        return q, p

    return fast


def _splitting_kernel(force, fast: FastMap, h: float) -> Kernel:
    """Half slow kick, the fast map across h, half slow kick; the carried
    half kick is (h/2) g(q)."""
    half = 0.5 * h

    def kernel(q, p, k):
        if k is None:
            k = half * force(q)
        q1, p1 = fast(q, p + k)
        k1 = half * force(q1)
        return q1, p1 + k1, k1

    return kernel


def _verlet_kernel(sys: OscillatorySystem, h: float, mass_override=None) -> Kernel:
    """Kick-drift-kick on the full force; drift uses M^(-1) when a mass is
    given.  The carried half kick is (h/2)(g(q) - Omega^2 q)."""
    force, w2 = sys.slow_force, sys.w2
    half = 0.5 * h
    solve = None if mass_override is None else spd_factor(mass_override).solve

    def kernel(q, p, k):
        if k is None:
            k = half * (force(q) - w2 * q)
        p = p + k
        q1 = q + h * (p if solve is None else solve(p))
        k1 = half * (force(q1) - w2 * q1)
        return q1, p + k1, k1

    return kernel


def _midpoint_full_kernel(
    sys: OscillatorySystem, h: float, fp_tol: float, fp_max_iter: int
) -> Kernel:
    """Implicit midpoint on the full potential, solved by fixed-point iteration.

    Iterates on the interval midpoint m = q + (h/2) p + (h^2/4) f(m) with
    f = g - Omega^2 q until successive iterates differ by <= fp_tol in the
    max norm.  Contracts only while (h^2/4) Lip(f) < 1, so this is a
    small-step baseline.  It evaluates the slow force at midpoints only, so
    it ignores the carried kick and returns None in its place.
    """
    force, w2 = sys.slow_force, sys.w2
    quarter_h2 = 0.25 * h * h

    def total_force(m):
        return force(m) - w2 * m

    def kernel(q, p, k):
        base = q + 0.5 * h * p
        m = base
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(fp_max_iter):
                m_next = base + quarter_h2 * total_force(m)
                if not np.isfinite(m_next).all():
                    raise NoConvergence(k + 1)
                done = float(np.max(np.abs(m_next - m))) <= fp_tol
                m = m_next
                if done:
                    break
            else:
                raise NoConvergence(fp_max_iter)
        return 2.0 * m - q, p + h * total_force(m), None

    return kernel


def _kernel(sys: OscillatorySystem, spec: StepperSpec) -> Kernel:
    h = spec.h
    if spec.method is Method.SV:
        return _verlet_kernel(sys, h, spec.mass_override)
    if spec.method is Method.MIDPOINT_FULL:
        return _midpoint_full_kernel(sys, h, spec.fp_tol, spec.fp_max_iter)
    if spec.method is Method.IMEX:
        fast = _fast_midpoint(sys.w2, h)
    elif spec.method is Method.RESPA:
        fast = _fast_verlet(sys.w2, h, spec.substeps)
    else:
        fast = _fast_rotation(sys.omega, h)
    return _splitting_kernel(sys.slow_force, fast, h)


def _state_step(kernel: Kernel, state: State, h: float) -> State:
    q1, p1, _ = kernel(state.q, state.p, None)
    return State(state.t + h, q1, p1)


def _split_step(sys: OscillatorySystem, fast: FastMap, state: State, h: float) -> State:
    return _state_step(_splitting_kernel(sys.slow_force, fast, h), state, h)


def kick_slow(sys: OscillatorySystem, state: State, dt: float) -> State:
    """Exact flow of the slow potential alone: momentum kick, no displacement."""
    return State(state.t, state.q, state.p + dt * sys.slow_force(state.q))


def step_midpoint_fast(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint step of the fast quadratic part only (see _fast_midpoint)."""
    q1, p1 = _fast_midpoint(sys.w2, h)(state.q, state.p)
    return State(state.t + h, q1, p1)


def step_imex(sys: OscillatorySystem, state: State, h: float) -> State:
    """Half slow kick, implicit midpoint on the fast part, half slow kick."""
    return _split_step(sys, _fast_midpoint(sys.w2, h), state, h)


def step_stormer_verlet(
    sys: OscillatorySystem,
    state: State,
    h: float,
    mass_override: np.ndarray | None = None,
) -> State:
    """Kick-drift-kick on the full force; drift uses M^(-1) when a mass is given."""
    return _state_step(_verlet_kernel(sys, h, mass_override), state, h)


def step_respa(sys: OscillatorySystem, state: State, h: float, substeps: int) -> State:
    """Impulse multiple time stepping: outer half kicks of the slow force
    around `substeps` Stormer-Verlet substeps of the fast-only system."""
    return _split_step(sys, _fast_verlet(sys.w2, h, substeps), state, h)


def step_modified_impulse(sys: OscillatorySystem, state: State, h: float) -> State:
    """Impulse method whose fast step rotates each axis by its modified
    frequency (see _fast_rotation)."""
    return _split_step(sys, _fast_rotation(sys.omega, h), state, h)


def step_midpoint_full(
    sys: OscillatorySystem,
    state: State,
    h: float,
    fp_tol: float = 1e-12,
    fp_max_iter: int = 200,
) -> State:
    """Implicit midpoint on the full potential (see _midpoint_full_kernel)."""
    return _state_step(_midpoint_full_kernel(sys, h, fp_tol, fp_max_iter), state, h)


def make_stepper(sys: OscillatorySystem, spec: StepperSpec) -> Callable[[State], State]:
    """Bind a spec to a system as a State -> State map."""
    kernel = _kernel(sys, spec)
    return lambda s: _state_step(kernel, s, spec.h)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of a run plus its outcome.

    Samples sit at integer step multiples of the recording stride; stiff
    per-spring energies are carried for lattice systems (columns I_1..I_ell
    followed by their sum).  final_state is the last computed state even
    when the stride did not record it.
    """

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    energies: np.ndarray
    stiff: np.ndarray | None
    status: str
    t_blowup: float | None
    blowup_cause: str | None
    h: float
    method: str
    system: str
    final_state: State

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    def state(self, i: int) -> State:
        return State(float(self.times[i]), self.qs[i].copy(), self.ps[i].copy())


def step_count(spec: StepperSpec, t0: float, t_end: float) -> int:
    """Steps integrate takes from t0 to t_end: ceil((t_end - t0)/h), at least one.

    Rejects a non-finite or empty span and a run of more than MAX_STEPS
    steps (RESPA's substeps counted), before any work is done.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError("t_end and the initial time must be finite")
    if not t_end > t0:
        raise ValueError("t_end must exceed the initial time")
    steps = (t_end - t0) / spec.h
    per_step = spec.substeps if spec.method is Method.RESPA else 1
    if per_step > MAX_STEPS or not steps * per_step <= MAX_STEPS:
        raise ValueError(
            f"a run from t={t0:g} to {t_end:g} at h={spec.h:g} takes more than "
            f"{MAX_STEPS:.0e} steps"
        )
    # at least one step: the quotient can underflow to 0 for a tiny span
    return max(1, math.ceil(steps))


def integrate(
    sys: OscillatorySystem,
    spec: StepperSpec,
    state0: State,
    t_end: float,
    stride: int = 1,
) -> Trajectory:
    """Run step_count(spec, t0, t_end) steps, recording every stride-th state.

    Sample times are computed as t0 + n*h from the integer step count.  A
    non-finite state or one exceeding BLOWUP_NORM_CAP in the max norm stops
    the run with BLOWUP status and records the offending sample; stepper
    failures (for example fixed-point stagnation) are reported the same way
    with a NaN sample and the cause retained.  Energies are evaluated once,
    over the recorded block.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    t0 = state0.t
    n_steps = step_count(spec, t0, t_end)
    if not (np.isfinite(state0.q).all() and np.isfinite(state0.p).all()):
        raise ValueError("the initial state must be finite")
    kernel = _kernel(sys, spec)
    # the start, every stride-th state, and a possible blow-up sample
    n_rows = n_steps // stride + 2
    qs = np.empty((n_rows, sys.d))
    ps = np.empty((n_rows, sys.d))
    steps = np.empty(n_rows, dtype=np.int64)
    q, p, k = state0.q, state0.p, None
    qs[0], ps[0], steps[0] = q, p, 0
    rows = 1
    n = 0
    cap2 = BLOWUP_NORM_CAP * BLOWUP_NORM_CAP
    status, t_blowup, cause = COMPLETED, None, None
    for n in range(1, n_steps + 1):
        try:
            q, p, k = kernel(q, p, k)
        except NoConvergence as exc:
            q = p = np.full(sys.d, np.nan)
            cause = str(exc)
        else:
            # q.q + p.p <= cap^2 bounds every component by the cap (NaN and
            # overflow fail it); only a failing state pays for the exact test
            if q @ q + p @ p <= cap2 or (
                np.abs(q).max() <= BLOWUP_NORM_CAP and np.abs(p).max() <= BLOWUP_NORM_CAP
            ):
                if n % stride == 0:
                    qs[rows], ps[rows], steps[rows] = q, p, n
                    rows += 1
                continue
            cause = "state norm cap exceeded"
        qs[rows], ps[rows], steps[rows] = q, p, n
        rows += 1
        status, t_blowup = BLOWUP, t0 + n * spec.h
        break

    qs, ps = qs[:rows], ps[:rows]
    with np.errstate(over="ignore", invalid="ignore"):
        energies = sys.total_energy(qs, ps)
        stiff = None
        if sys.ell is not None:
            per_spring = stiff_energy_rows(sys, qs, ps)
            stiff = np.column_stack([per_spring, per_spring.sum(axis=1)])
    return Trajectory(
        times=t0 + steps[:rows] * spec.h,
        qs=qs,
        ps=ps,
        energies=energies,
        stiff=stiff,
        status=status,
        t_blowup=t_blowup,
        blowup_cause=cause,
        h=spec.h,
        method=spec.method.value,
        system=sys.label,
        final_state=State(t0 + n * spec.h, q, p),
    )
