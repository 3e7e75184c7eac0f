"""One-step maps for fast/slow systems and the trajectory driver.

Every method but one is a kick-drift-kick (_kick_drift_kick): a half kick
from one force, an inner map across h, and a closing half kick.  The
central method, an implicit-explicit splitting (IMEX), kicks with the slow
force around one implicit midpoint step of the fast quadratic part; Omega
is diagonal, so that "solve" is one division per axis.  The baselines:
Stormer-Verlet kicks with the full force around a drift; the impulse
method (r-RESPA) kicks with the slow force around `substeps` Verlet
substeps of the stiff force, each a kick-drift-kick itself; the modified
impulse method, around a rotation of each axis by its modified frequency.
The fully implicit midpoint step on the whole potential stands apart.

Each method is a kernel bound to one run's state buffers q and p: built
once, with the views, scratch and bound forces it needs, it advances q and
p by one step in place at each call, and allocates nothing when the slow
force is a SlowForce.  A kick-drift-kick carries its half kick, (h/2) F(q),
from the end of one step to the start of the next, so a run of n steps
evaluates the slow force n + 1 times.  _kernel is the one map from a
method to its kernel.  integrate holds the state in one buffer
z = [q | p] and records copies of it; the public step_* functions copy
their input state into fresh buffers, bind, step once and return a fresh
State.

On a short state a numpy call costs far more than its arithmetic, so the
per-step calls are written lean: each ufunc is looked up once, through a
module-level name such as _add, and its output buffer is passed
positionally, _add(p, k, p) rather than np.add(p, k, out=p), which skips
the keyword parsing and the attribute lookup on every call.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .systems import OscillatorySystem, State, bind_slow_force, stiff_energies

BLOWUP_NORM_CAP = 1e8
# midpoint-full's fixed-point stopping rule: max-norm change and iteration cap
FP_TOL = 1e-12
FP_MAX_ITER = 200
# Work bound of one integrate run, each RESPA substep counted as a step;
# checked before anything is allocated.  At ~20 us per lattice step it is
# over half an hour of stepping.
MAX_STEPS = 10 ** 8

# the ufuncs of the per-step calls (see the module docstring)
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_absolute, _isfinite, _max = np.absolute, np.isfinite, np.maximum.reduce

COMPLETED = "completed"
BLOWUP = "blowup"

# A kernel is bound to one run's buffers q and p and advances them in place
# each time it is called: by a whole step, or by an inner map of one (a
# drift, a fast flow, RESPA's substeps).
Kernel = Callable[[], None]


def _scratch(like: np.ndarray, n: int) -> list[np.ndarray]:
    """n scratch buffers shaped like the state.

    Each kernel call passes one of them as its positional output, as in
    _multiply(h, p, t1).  The kernels never write a ufunc's result over
    one of its inputs, except where a step accumulates into q or p: numpy
    treats an in-place operation on a one-element array as a possible
    reduction and takes its slow buffered path (about 1 us a call), which
    the d = 1 model system would pay on every such operation.
    """
    return [np.empty(like.shape) for _ in range(n)]


def _operand(value: float, like: np.ndarray) -> np.ndarray:
    """value repeated over like's shape.  As a ufunc operand it gives the
    products a scalar gives, without numpy's per-call scalar conversion,
    which costs more than the arithmetic on a short state vector."""
    return np.full(like.shape, value)


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


def _check_substeps(substeps) -> None:
    """Require RESPA's substeps to be an int >= 1, as range() takes: 2.0 and NaN fail."""
    if not isinstance(substeps, numbers.Integral):
        raise ValueError("substeps must be an integer")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")


@dataclass(frozen=True)
class StepperSpec:
    """Method, step size and, for RESPA, the substeps per step."""

    method: Method
    h: float
    substeps: int = 1

    def __post_init__(self) -> None:
        # accept the enum's string value so callers can say method="imex"
        object.__setattr__(self, "method", Method(self.method))
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        _check_substeps(self.substeps)


def _fast_midpoint(w2: np.ndarray, h: float, q: np.ndarray, p: np.ndarray) -> Kernel:
    """Implicit midpoint on q'' = -w2 q, per axis.

    Solves (1 + (h^2/4) w2) q1 = (1 - (h^2/4) w2) q0 + h p0, then
    p1 = p0 - (h/2) w2 (q0 + q1); exactly conserves the fast energy.
    Evaluated as (q0 + h p0 - (h^2/4)(w2 q0)) / (1 + (h^2/4) w2).
    """
    half, quarter_h2 = 0.5 * h, 0.25 * h * h
    denom = 1.0 + quarter_h2 * w2
    h, half, quarter_h2 = (_operand(c, q) for c in (h, half, quarter_h2))
    w2q, t1, t2, t3 = _scratch(q, 4)

    def fast():
        _multiply(w2, q, w2q)
        _multiply(h, p, t1)
        _add(q, t1, t2)
        _multiply(quarter_h2, w2q, t1)
        _subtract(t2, t1, t3)
        _divide(t3, denom, q)
        _multiply(w2, q, t1)
        _add(w2q, t1, t2)
        _multiply(half, t2, t1)
        _subtract(p, t1, p)

    return fast


def _fast_rotation(omega: np.ndarray, h: float, q: np.ndarray, p: np.ndarray) -> Kernel:
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
    h = _operand(h, q)
    t1, t2, t3, t4 = _scratch(q, 4)

    def fast():
        _multiply(cos_num, q, t1)
        _multiply(h, p, t2)
        _add(t1, t2, t3)
        _multiply(cos_num, p, t1)
        _multiply(h_w2, q, t2)
        _subtract(t1, t2, t4)
        _divide(t4, denom, p)
        _divide(t3, denom, q)

    return fast


def _drift(h: float, q: np.ndarray, p: np.ndarray) -> Kernel:
    """The free flight q += h p."""
    h = _operand(h, q)
    (hp,) = _scratch(q, 1)

    def drift():
        _multiply(h, p, hp)
        _add(q, hp, q)

    return drift


def _bind_total_force(sys: OscillatorySystem, x: np.ndarray, out: np.ndarray) -> Kernel:
    """A call that writes the full force g(x) - w2 x into out."""
    w2 = sys.w2
    g, w2x = _scratch(x, 2)
    slow_at_x = bind_slow_force(sys.slow_force, x, g)

    def total_force():
        slow_at_x()
        _multiply(w2, x, w2x)
        _subtract(g, w2x, out)

    return total_force


def _kick_drift_kick(bind_force, inner: Kernel, h: float, q: np.ndarray, p: np.ndarray) -> Kernel:
    """Half kick, the inner map across h (bound to q and p), half kick.

    bind_force(x, out) returns a call that writes the force F(x) into out.
    The half kick (h/2) F(q) is evaluated here, at the start state, and a
    step's closing kick is the next step's opening kick.  That holds while
    only the inner map moves q, so a kick-drift-kick nested in another,
    whose kicks move only p, carries its kick across the outer steps too.
    """
    half = _operand(0.5 * h, q)
    k, f = _scratch(q, 2)
    force_at_q = bind_force(q, f)
    force_at_q()
    _multiply(half, f, k)

    def kernel():
        _add(p, k, p)
        inner()
        force_at_q()
        _multiply(half, f, k)
        _add(p, k, p)

    return kernel


def _fast_verlet(w2: np.ndarray, h: float, substeps: int, q: np.ndarray, p: np.ndarray) -> Kernel:
    """`substeps` Stormer-Verlet steps of the fast-only system across h.

    The stiff force is (-w2) x with -w2 negated once: its half kick is
    exactly -(dt/2)(w2 x), and p + (-k) rounds as p - k, signed zeros too.
    """
    dt, neg_w2 = h / substeps, -w2
    substep = _kick_drift_kick(
        lambda x, out: partial(_multiply, neg_w2, x, out), _drift(dt, q, p), dt, q, p)

    def fast():
        for _ in range(substeps):
            substep()

    return fast


def _midpoint_full_kernel(
    sys: OscillatorySystem, h: float, fp_tol: float, fp_max_iter: int,
    q: np.ndarray, p: np.ndarray,
) -> Kernel:
    """Implicit midpoint on the full potential, solved by fixed-point iteration.

    Iterates on the interval midpoint m = q + (h/2) p + (h^2/4) f(m) with
    f = g - Omega^2 q until successive iterates differ by <= fp_tol in the
    max norm.  Contracts only while (h^2/4) Lip(f) < 1, so this is a
    small-step baseline.  It evaluates the slow force at midpoints only and
    carries no kick.  On NoConvergence q and p are left as they were.

    The iterates ping-pong between two buffers, each with its own bound
    total force, so no iterate is written over its predecessor.  A finite
    change <= fp_tol implies a finite iterate, and a non-finite iterate
    makes the change NaN or inf, so finiteness is checked only when the
    test fails.  A diverging iteration overflows on the way; the kernel
    enters no np.errstate, its callers silence it (integrate once per run,
    step_midpoint_full once per step).
    """
    h, half_h, quarter_h2, two = (_operand(c, q) for c in (h, 0.5 * h, 0.25 * h * h, 2.0))
    ma, mb, base, f, t1, diff, delta = _scratch(q, 7)
    # the max norm of the change reduces over every axis of a block too
    delta_flat = delta.reshape(-1)
    finite = np.empty(q.shape, dtype=bool)
    force_a = _bind_total_force(sys, ma, f)
    force_b = _bind_total_force(sys, mb, f)

    def kernel():
        _multiply(half_h, p, t1)
        _add(q, t1, base)
        np.copyto(ma, base)
        m, force_m, m_next, force_next = ma, force_a, mb, force_b
        for i in range(fp_max_iter):
            force_m()
            _multiply(quarter_h2, f, t1)
            _add(base, t1, m_next)
            _subtract(m_next, m, diff)
            _absolute(diff, delta)
            done = _max(delta_flat) <= fp_tol
            if not done and not _isfinite(m_next, finite).all():
                raise NoConvergence(i + 1)
            m, force_m, m_next, force_next = m_next, force_next, m, force_m
            if done:
                break
        else:
            raise NoConvergence(fp_max_iter)
        force_m()
        _multiply(h, f, t1)
        _add(p, t1, p)
        _multiply(two, m, t1)
        _subtract(t1, q, q)

    return kernel


def _kernel(
    sys: OscillatorySystem, method: Method, h: float, q: np.ndarray, p: np.ndarray,
    substeps: int = 1,
) -> Kernel:
    """The method's kernel bound to q and p; substeps is read by RESPA only."""
    if method is Method.MIDPOINT_FULL:
        return _midpoint_full_kernel(sys, h, FP_TOL, FP_MAX_ITER, q, p)
    if method is Method.SV:
        return _kick_drift_kick(partial(_bind_total_force, sys), _drift(h, q, p), h, q, p)
    if method is Method.IMEX:
        inner = _fast_midpoint(sys.w2, h, q, p)
    elif method is Method.RESPA:
        inner = _fast_verlet(sys.w2, h, substeps, q, p)
    else:
        inner = _fast_rotation(sys.omega, h, q, p)
    return _kick_drift_kick(partial(bind_slow_force, sys.slow_force), inner, h, q, p)


def _state_buffers(state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fresh contiguous z = [q | p] holding a copy of the state, and its
    q and p views."""
    z = np.concatenate((state.q, state.p))
    d = state.q.size
    return z, z[:d], z[d:]


def _state_step(bind: Callable[[np.ndarray, np.ndarray], Kernel], state: State, h: float) -> State:
    """One step of the kernel bind(q, p) makes, on a copy of the state."""
    _, q, p = _state_buffers(state)
    bind(q, p)()
    return State(state.t + h, q, p)


def _method_step(
    sys: OscillatorySystem, method: Method, state: State, h: float, substeps: int = 1
) -> State:
    """One step of the method's kernel on a copy of the state; h may be negative."""
    return _state_step(lambda q, p: _kernel(sys, method, h, q, p, substeps), state, h)


def kick_slow(sys: OscillatorySystem, state: State, dt: float) -> State:
    """Exact flow of the slow potential alone: momentum kick, no displacement."""
    return State(state.t, state.q.copy(), state.p + dt * sys.slow_force(state.q))


def step_midpoint_fast(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint step of the fast quadratic part only (see _fast_midpoint)."""
    return _state_step(partial(_fast_midpoint, sys.w2, h), state, h)


def step_imex(sys: OscillatorySystem, state: State, h: float) -> State:
    """Half slow kick, implicit midpoint on the fast part, half slow kick."""
    return _method_step(sys, Method.IMEX, state, h)


def step_stormer_verlet(sys: OscillatorySystem, state: State, h: float) -> State:
    """Kick-drift-kick on the full force."""
    return _method_step(sys, Method.SV, state, h)


def step_respa(sys: OscillatorySystem, state: State, h: float, substeps: int) -> State:
    """Impulse multiple time stepping: outer half kicks of the slow force
    around `substeps` Stormer-Verlet substeps of the fast-only system."""
    _check_substeps(substeps)
    return _method_step(sys, Method.RESPA, state, h, substeps)


def step_modified_impulse(sys: OscillatorySystem, state: State, h: float) -> State:
    """Impulse method whose fast step rotates each axis by its modified
    frequency (see _fast_rotation)."""
    return _method_step(sys, Method.MODIFIED_IMPULSE, state, h)


def step_midpoint_full(
    sys: OscillatorySystem,
    state: State,
    h: float,
    fp_tol: float = FP_TOL,
    fp_max_iter: int = FP_MAX_ITER,
) -> State:
    """Implicit midpoint on the full potential (see _midpoint_full_kernel)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _state_step(partial(_midpoint_full_kernel, sys, h, fp_tol, fp_max_iter), state, h)


def make_stepper(sys: OscillatorySystem, spec: StepperSpec) -> Callable[[State], State]:
    """Bind a spec to a system as a State -> State map."""
    return lambda s: _method_step(sys, spec.method, s, spec.h, spec.substeps)


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
    with a NaN sample and the cause retained.  The run steps its own copy of
    state0 in place; samples and final_state are copies.  Energies are
    evaluated once, over the recorded block.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    t0 = state0.t
    n_steps = step_count(spec, t0, t_end)
    if not (np.isfinite(state0.q).all() and np.isfinite(state0.p).all()):
        raise ValueError("the initial state must be finite")
    z, q, p = _state_buffers(state0)
    kernel = _kernel(sys, spec.method, spec.h, q, p, spec.substeps)
    # the start, every stride-th state, and a possible blow-up sample
    n_rows = n_steps // stride + 2
    qs = np.empty((n_rows, sys.d))
    ps = np.empty((n_rows, sys.d))
    steps = np.empty(n_rows, dtype=np.int64)
    qs[0], ps[0], steps[0] = q, p, 0
    rows = 1
    n = 0
    cap = BLOWUP_NORM_CAP
    cap2 = cap * cap
    zdot = z.dot
    status, t_blowup, cause = COMPLETED, None, None
    # a diverging run may overflow before the cap test stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            try:
                kernel()
            except NoConvergence as exc:
                z.fill(np.nan)
                cause = str(exc)
            else:
                # z.z <= cap^2 bounds every component by the cap (NaN and
                # overflow fail it); only a failing state pays for the exact test
                if zdot(z) <= cap2 or np.abs(z).max() <= cap:
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
        energies = sys.total_energy(qs, ps)
        stiff = None
        if sys.ell is not None:
            per_spring = stiff_energies(sys, qs, ps)
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
        final_state=State(t0 + n * spec.h, q.copy(), p.copy()),
    )
