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
z = [q | p] and records copies of it into one sample block.  Every single
step outside integrate (the public step_* functions and
analysis.propagation_matrix) goes through _step_once, which binds the
kernel, steps it once and silences the overflow of a diverging
midpoint-full iteration, as integrate does for a whole run.

On a short state a numpy call costs far more than its arithmetic, so the
per-step calls are written lean: each ufunc is looked up once, through a
module-level name such as _add, and its output buffer is passed
positionally, _add(p, k, p) rather than np.add(p, k, out=p), which skips
the keyword parsing and the attribute lookup on every call.

Even so a ufunc call costs ~0.3 us however short the state, and a step
makes 10-20 of them for a few dozen flops.  So a single state
(q.ndim == 1) of at most SCALAR_MAX_D axes whose slow force has scalar
source (SlowForce.scalar_source) steps in Python floats, in straight-line
code generated for the method, d and the force (_scalar_kernel): each
array operation written out axis by axis, in the array kernel's order.
Python rounds + - * / as numpy does, so every state is bit for bit the
array kernels' (but for a NaN's sign, which numpy too picks by array
size).  The lattice force's cube stays one np.power call, the one
operation floats cannot copy.  Only straight-line code pays: a float step
written with loops over the axes is slower than the arrays, and past
SCALAR_MAX_D axes (measured, tools/step_cost.py) the arrays win.  Blocks
(analysis.propagation_matrix), longer states and forces without scalar
source take the array kernels.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .systems import OscillatorySystem, State, _check_count, bind_slow_force, stiff_energies

BLOWUP_NORM_CAP = 1e8
# midpoint-full's fixed-point stopping rule: max-norm change and iteration cap
FP_TOL = 1e-12
FP_MAX_ITER = 200
# Work bound of one integrate run in steps times d, each RESPA substep
# counted as a step; checked before anything is allocated.  It bounds a
# stride-1 sample block to 1.6 GB, and the stepping to at most about 2
# minutes at d = 1 (0.3-1 us a step in generated float code, RESPA 0.1 us a
# substep) and seconds on the ell = 1e5 lattice (4-9 ms a step).
MAX_STEPS = 10 ** 8
# Longest single state that steps in generated float code (_scalar_kernel):
# the largest lattice d (of 2 to 16) at which it beat the array kernels in
# at least 9 of 10 repeats of tools/step_cost.py, for Stormer-Verlet and
# IMEX alike.
SCALAR_MAX_D = 16

# the ufuncs of the per-step calls (see the module docstring)
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_absolute, _isfinite, _max, _copyto = np.absolute, np.isfinite, np.maximum.reduce, np.copyto

COMPLETED = "completed"
BLOWUP = "blowup"

# A kernel is bound to one run's buffers q and p and advances them in place
# each time it is called: by a whole step, or by an inner map of one (a
# drift, a fast flow, RESPA's substeps).  It returns None, or, if it tests
# the new state itself (a generated scalar kernel, _scalar_kernel), whether
# every component lies within BLOWUP_NORM_CAP.
Kernel = Callable[[], bool | None]


def _scratch(like: np.ndarray, n: int) -> list[np.ndarray]:
    """n scratch buffers shaped like the state.

    Each kernel call passes one of them as its positional output, as in
    _multiply(h, p, t1).  The kernels never write a ufunc's result over
    one of its inputs, except where a step accumulates into q or p: numpy
    treats an in-place operation on a one-element array as a possible
    reduction and takes its slow buffered path (about 1 us a call), which
    only a one-axis state whose force has no scalar source still pays.
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
        _check_count("substeps", self.substeps)


def _rotation_constants(omega: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """The rotation's 1 - a^2, h omega^2 and 1 + a^2 (a = h omega/2), per
    axis (see _fast_rotation)."""
    a2 = (0.5 * h * omega) ** 2
    return 1.0 - a2, h * omega ** 2, 1.0 + a2


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
    cos_num, h_w2, denom = _rotation_constants(omega, h)
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


def _midpoint_full_kernel(sys: OscillatorySystem, h: float, q: np.ndarray, p: np.ndarray) -> Kernel:
    """Implicit midpoint on the full potential, solved by fixed-point iteration.

    Iterates on the interval midpoint m = q + (h/2) p + (h^2/4) f(m) with
    f = g - Omega^2 q until successive iterates differ by <= FP_TOL in the
    max norm, for at most FP_MAX_ITER iterations.  Contracts only while
    (h^2/4) Lip(f) < 1, so this is a small-step baseline.  It evaluates
    the slow force at midpoints only and carries no kick.  On NoConvergence
    q and p are left as they were.  FP_TOL and FP_MAX_ITER are read when
    the kernel is bound.

    A failed test raises NoConvergence when m_next is not finite.  A finite
    change needs no such check: m_next - m is finite only where both are,
    so only an inf or NaN change checks m_next with isfinite (a finite
    iterate whose change overflows goes on).  A diverging iteration
    overflows on the way; the kernel enters no np.errstate, its callers
    silence it (integrate once per run, _step_once once per step).
    """
    h, half_h, quarter_h2, two = (_operand(c, q) for c in (h, 0.5 * h, 0.25 * h * h, 2.0))
    m, m_next, base, f, t1, diff = _scratch(q, 6)
    # the change of a block of states is tested over every axis
    diff_flat = diff.reshape(-1)
    delta = np.empty(diff.size)
    tol, max_iter = FP_TOL, FP_MAX_ITER
    finite = np.empty(q.shape, dtype=bool)
    force_m = _bind_total_force(sys, m, f)

    def kernel():
        _multiply(half_h, p, t1)
        _add(q, t1, base)
        _add(q, t1, m)
        for i in range(max_iter):
            force_m()
            _multiply(quarter_h2, f, t1)
            _add(base, t1, m_next)
            _subtract(m_next, m, diff)
            change = _max(_absolute(diff_flat, delta))
            done = change <= tol
            if not done and not math.isfinite(change) and not _isfinite(m_next, finite).all():
                raise NoConvergence(i + 1)
            _copyto(m, m_next)
            if done:
                break
        else:
            raise NoConvergence(max_iter)
        force_m()
        _multiply(h, f, t1)
        _add(p, t1, p)
        _multiply(two, m, t1)
        _subtract(t1, q, q)

    return kernel


def _scalar_kernel(
    sys: OscillatorySystem, method: Method, h: float, q: np.ndarray, p: np.ndarray,
    substeps: int,
) -> Kernel | None:
    """The method's kernel on one state of d axes in Python floats, or None
    when the slow force has no scalar source (SlowForce.scalar_source).

    The kernel is straight-line code (_scalar_factory) that names every
    constant: h and its fractions, the per-axis w2 and denominators, the
    rotation constants, FP_TOL, FP_MAX_ITER and the cap are computed here
    as the array kernels compute them and passed in, so no user value
    enters the source and nothing is folded: an axis with w2_i = 0 still
    computes 0.0 * x and keeps its signed zero.
    """
    d, h = q.size, float(h)
    emit = getattr(sys.slow_force, "scalar_source", None)
    at = "m" if method is Method.MIDPOINT_FULL else "x"
    source = emit and emit([f"{at}{i}" for i in range(d)], [f"g{i}" for i in range(d)])
    if source is None:
        return None
    slow, operands = source
    quarter_h2 = 0.25 * h * h
    consts = {"cap": BLOWUP_NORM_CAP, "h": h, "half": 0.5 * h, "quarter_h2": quarter_h2,
              "w2": sys.w2.tolist()}
    if method is Method.MIDPOINT_FULL:
        consts.update(tol=float(FP_TOL), max_iter=FP_MAX_ITER)
    elif method is Method.IMEX:
        consts["den"] = (1.0 + quarter_h2 * sys.w2).tolist()
    elif method is Method.RESPA:
        dt = float(h / substeps)
        consts.update(substeps=substeps, dt=dt, half_dt=0.5 * dt, nw2=(-sys.w2).tolist())
    elif method is Method.MODIFIED_IMPULSE:
        rotation = _rotation_constants(sys.omega, h)
        consts.update(zip(("cos", "hw2", "den"), (c.tolist() for c in rotation)))
    factory = _scalar_factory(method, d, tuple(slow), tuple(consts), tuple(operands))
    return factory(q, p, **consts, **operands)


@lru_cache(maxsize=32)
def _scalar_factory(method: Method, d: int, slow: tuple[str, ...], consts: tuple[str, ...],
                    operands: tuple[str, ...]):
    """The compiled factory of the method's scalar kernel on d axes, slow
    being the slow force's statements (g_i at x_i, or at the midpoint m_i);
    consts and operands name the factory's keyword arguments.

    Each array operation is written out axis by axis, in the array
    kernel's order and on the same operands, so every state rounds as the
    array kernels' does (but for a NaN's sign, which numpy too picks by
    array size).  The floats x_i and v_i and the carried kicks live in the
    kernel's closure between calls, as the array kernels' live in their
    buffers; each call writes q and p and returns whether every component
    lies within the cap (False for a NaN), integrate's blow-up test made
    on the floats (see Kernel).
    """
    def each(*templates: str) -> list[str]:
        return [t.format(i=i) for i in range(d) for t in templates]

    def indent(lines) -> list[str]:
        return ["    " + line for line in lines]

    def unpack(names: str, value: str) -> str:
        return "".join(f"{names.format(i=i)}, " for i in range(d)) + f"= {value}"

    carried = ["x", "v"]
    setup = [unpack("w2_{i}", "w2")]
    if method is Method.MIDPOINT_FULL:
        # _midpoint_full_kernel's rules: a failed test raises NoConvergence
        # exactly when some n_i is not finite
        step = [
            *each("b{i} = x{i} + half * v{i}"), *each("m{i} = b{i}"),
            "for i in range(max_iter):",
            *indent(slow), *indent(each("n{i} = b{i} + quarter_h2 * (g{i} - w2_{i} * m{i})")),
            "    done = " + " and ".join(each("abs(n{i} - m{i}) <= tol")),
            "    if not done and not (" + " and ".join(each("isfinite(n{i})")) + "):",
            "        raise NoConvergence(i + 1)",
            *indent(each("m{i} = n{i}")),
            "    if done:",
            "        break",
            "else:",
            "    raise NoConvergence(max_iter)",
            *slow, *each("v{i} = v{i} + h * (g{i} - w2_{i} * m{i})", "x{i} = 2.0 * m{i} - x{i}"),
        ]
    else:
        # _kick_drift_kick, whose half kick k_i is carried from step to step
        carried.append("k")
        # Stormer-Verlet kicks with the full force, the others with g
        full = " - w2_{i} * x{i}" if method is Method.SV else ""
        force = [*slow, *each("k{i} = half * (g{i}" + full + ")")]
        if method is Method.SV:
            inner = each("x{i} = x{i} + h * v{i}")
        elif method is Method.IMEX:
            setup.append(unpack("den_{i}", "den"))
            inner = each("w2x = w2_{i} * x{i}",
                         "x{i} = (x{i} + h * v{i} - quarter_h2 * w2x) / den_{i}",
                         "v{i} = v{i} - half * (w2x + w2_{i} * x{i})")
        elif method is Method.RESPA:
            # _fast_verlet, a kick-drift-kick whose kick ks_i is carried too
            carried.append("ks")
            setup += [unpack("nw2_{i}", "nw2"), *each("ks{i} = half_dt * (nw2_{i} * x{i})")]
            inner = ["for _ in range(substeps):", *indent(each(
                "v{i} = v{i} + ks{i}", "x{i} = x{i} + dt * v{i}",
                "ks{i} = half_dt * (nw2_{i} * x{i})", "v{i} = v{i} + ks{i}"))]
        else:
            setup += [unpack(name + "_{i}", name) for name in ("cos", "hw2", "den")]
            inner = each("x{i}, v{i} = ((cos_{i} * x{i} + h * v{i}) / den_{i}, "
                         "(cos_{i} * v{i} - hw2_{i} * x{i}) / den_{i})")
        setup += force
        step = [*each("v{i} = v{i} + k{i}"), *inner, *force, *each("v{i} = v{i} + k{i}")]
    source = "\n".join([
        f"def _scalar_kernel(q, p, {', '.join(consts + operands)}):",
        *indent([
            # a memoryview takes an element faster than the array does
            "q, p = memoryview(q), memoryview(p)",
            unpack("x{i}", "q.tolist()"), unpack("v{i}", "p.tolist()"), *setup,
            "def kernel():",
            *indent([
                "nonlocal " + ", ".join(f"{name}{i}" for name in carried for i in range(d)),
                *step, *each("q[{i}] = x{i}", "p[{i}] = v{i}"),
                "return " + " and ".join(each("abs(x{i}) <= cap", "abs(v{i}) <= cap")),
            ]),
            "return kernel",
        ]),
    ])
    namespace = {"isfinite": math.isfinite, "NoConvergence": NoConvergence}
    exec(compile(source, f"<oscint scalar kernel: {method.value}, d={d}>", "exec"), namespace)
    return namespace["_scalar_kernel"]


def _kernel(
    sys: OscillatorySystem, method: Method, h: float, q: np.ndarray, p: np.ndarray,
    substeps: int = 1,
) -> Kernel:
    """The method's kernel bound to q and p; substeps is read by RESPA only."""
    if q.ndim == 1 and q.size <= SCALAR_MAX_D:
        kernel = _scalar_kernel(sys, method, h, q, p, substeps)
        if kernel is not None:
            return kernel
    if method is Method.MIDPOINT_FULL:
        return _midpoint_full_kernel(sys, h, q, p)
    if method is Method.SV:
        return _kick_drift_kick(partial(_bind_total_force, sys), _drift(h, q, p), h, q, p)
    if method is Method.IMEX:
        inner = _fast_midpoint(sys.w2, h, q, p)
    elif method is Method.RESPA:
        inner = _fast_verlet(sys.w2, h, substeps, q, p)
    else:
        inner = _fast_rotation(sys.omega, h, q, p)
    return _kick_drift_kick(partial(bind_slow_force, sys.slow_force), inner, h, q, p)


def _state_buffers(sys: OscillatorySystem, state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fresh contiguous z = [q | p] holding a copy of the state, and its
    q and p views; rejects a state whose length is not the system's d."""
    d = sys.d
    if state.q.size != d:
        raise ValueError(f"the initial state has length {state.q.size}, the system d={d}")
    z = np.concatenate((state.q, state.p))
    return z, z[:d], z[d:]


def _step_once(
    bind: Callable[[np.ndarray, np.ndarray], Kernel], q: np.ndarray, p: np.ndarray
) -> None:
    """Advance q and p in place by one step of the kernel bind(q, p) makes.

    A diverging midpoint-full iteration may overflow before it raises
    NoConvergence; that is silenced here, once per step, as integrate
    silences it once per run.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bind(q, p)()


def _state_step(
    sys: OscillatorySystem, bind: Callable[[np.ndarray, np.ndarray], Kernel], state: State, h: float
) -> State:
    """One step of bind(q, p)'s kernel on a copy of a state of sys; h may be negative."""
    _, q, p = _state_buffers(sys, state)
    _step_once(bind, q, p)
    return State(state.t + h, q, p)


def kick_slow(sys: OscillatorySystem, state: State, dt: float) -> State:
    """Exact flow of the slow potential alone: momentum kick, no displacement."""
    return State(state.t, state.q.copy(), state.p + dt * sys.slow_force(state.q))


def step_midpoint_fast(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint step of the fast quadratic part only (see _fast_midpoint)."""
    return _state_step(sys, partial(_fast_midpoint, sys.w2, h), state, h)


def step_imex(sys: OscillatorySystem, state: State, h: float) -> State:
    """Half slow kick, implicit midpoint on the fast part, half slow kick."""
    return _state_step(sys, partial(_kernel, sys, Method.IMEX, h), state, h)


def step_stormer_verlet(sys: OscillatorySystem, state: State, h: float) -> State:
    """Kick-drift-kick on the full force."""
    return _state_step(sys, partial(_kernel, sys, Method.SV, h), state, h)


def step_respa(sys: OscillatorySystem, state: State, h: float, substeps: int) -> State:
    """Impulse multiple time stepping: outer half kicks of the slow force
    around `substeps` Stormer-Verlet substeps of the fast-only system."""
    _check_count("substeps", substeps)
    return _state_step(sys, partial(_kernel, sys, Method.RESPA, h, substeps=substeps), state, h)


def step_modified_impulse(sys: OscillatorySystem, state: State, h: float) -> State:
    """Impulse method whose fast step rotates each axis by its modified
    frequency (see _fast_rotation)."""
    return _state_step(sys, partial(_kernel, sys, Method.MODIFIED_IMPULSE, h), state, h)


def step_midpoint_full(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint on the full potential (see _midpoint_full_kernel)."""
    return _state_step(sys, partial(_kernel, sys, Method.MIDPOINT_FULL, h), state, h)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of a run plus its outcome.

    Samples sit at integer step multiples of the recording stride.  qs and
    ps are the column views of one (rows, 2d) block of recorded states
    [q | p].  stiff carries, for lattice systems, the per-spring stiff
    energies I_1..I_ell of each sample (stiff_energies); a reader wanting
    their total sums the row.  final_state is the last computed state even
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


def step_count(spec: StepperSpec, t0: float, t_end: float, d: int) -> int:
    """Steps integrate takes from t0 to t_end: ceil((t_end - t0)/h), at least one.

    Rejects a non-finite or empty span and a run of more than MAX_STEPS
    steps times d (RESPA's substeps counted) on a system of d axes, before
    any work is done.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError("t_end and the initial time must be finite")
    if not t_end > t0:
        raise ValueError("t_end must exceed the initial time")
    steps = (t_end - t0) / spec.h
    per_step = d * (spec.substeps if spec.method is Method.RESPA else 1)
    if per_step > MAX_STEPS or not steps * per_step <= MAX_STEPS:
        raise ValueError(
            f"a run from t={t0:g} to {t_end:g} at h={spec.h:g} on d={d} takes more than "
            f"{MAX_STEPS:.0e} steps times d"
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
    """Run step_count(spec, t0, t_end, sys.d) steps, recording every stride-th state.

    Sample times are computed as t0 + n*h from the integer step count.  A
    non-finite state or one exceeding BLOWUP_NORM_CAP in the max norm stops
    the run with BLOWUP status and records the offending sample; stepper
    failures (for example fixed-point stagnation) are reported the same way
    with a NaN sample and the cause retained.  The run steps its own copy of
    state0 in place; samples and final_state are copies.  Energies are
    evaluated once, over the recorded block.
    """
    _check_count("stride", stride)
    t0 = state0.t
    n_steps = step_count(spec, t0, t_end, sys.d)
    z, q, p = _state_buffers(sys, state0)
    if not np.isfinite(z).all():
        raise ValueError("the initial state must be finite")
    d = sys.d
    # the start, every stride-th state, and a possible blow-up sample
    n_rows = n_steps // stride + 2
    zs = np.empty((n_rows, 2 * d))
    steps = np.empty(n_rows, dtype=np.int64)
    zs[0], steps[0] = z, 0
    rows = 1
    n = 0
    cap = BLOWUP_NORM_CAP
    cap2 = cap * cap
    zdot = z.dot
    status, t_blowup, cause = COMPLETED, None, None
    # a diverging run may overflow before the cap test stops it, as early
    # as in the force evaluation that binding the kernel makes
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernel(sys, spec.method, spec.h, q, p, spec.substeps)
        for n in range(1, n_steps + 1):
            try:
                within = kernel()
            except NoConvergence as exc:
                z.fill(np.nan)
                cause = str(exc)
            else:
                # a kernel that tests itself returns the decision; otherwise
                # z.z <= cap^2 bounds every component by the cap (NaN and
                # overflow fail it), and only a failing state pays for the
                # exact test
                if within is None:
                    within = zdot(z) <= cap2 or np.abs(z).max() <= cap
                if within:
                    if n % stride == 0:
                        zs[rows], steps[rows] = z, n
                        rows += 1
                    continue
                cause = "state norm cap exceeded"
            zs[rows], steps[rows] = z, n
            rows += 1
            status, t_blowup = BLOWUP, t0 + n * spec.h
            break

        qs, ps = zs[:rows, :d], zs[:rows, d:]
        energies = sys.total_energy(qs, ps)
        stiff = None if sys.ell is None else stiff_energies(sys, qs, ps)
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
