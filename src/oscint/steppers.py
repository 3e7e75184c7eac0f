"""One-step maps for fast/slow systems and the trajectory driver.

Each method is written once, as a few statements in the vector notation
of _Statements (_STATEMENTS).  Every method but one is a kick-drift-kick
(_splitting): a half kick from one force, an inner map across h, and a
closing half kick.  The central method, an implicit-explicit splitting
(IMEX), kicks with the slow force around one implicit midpoint step of the
fast quadratic part; Omega is diagonal, so that "solve" is one division
per axis.  The baselines: Stormer-Verlet kicks with the full force around
a drift; the impulse method (r-RESPA) kicks with the slow force around
`substeps` Verlet substeps of the stiff force; the modified impulse
method, around a rotation of each axis by its modified frequency.  The
fully implicit midpoint step on the whole potential stands apart.

A kernel, bound by _kernel to a method's statements and one run's
buffers q and p, advances them in place by up to n steps a call,
kernel(n), testing each new state against the blow-up cap and stopping at
the first that fails (see Kernel); it allocates nothing when the slow
force is a SlowForce.  integrate holds the state in one buffer z = [q | p]
and calls the kernel once per block of steps up to the next recorded
state; every single step outside it (step_*, analysis.propagation_matrix)
goes through _step_once, kernel(1), which silences a diverging
midpoint-full iteration's overflow, as integrate does for a whole run.

One template (_factory) renders the statements to a generator's source
in two dialects, on the constants each method declares beside them
(_constants); they differ only in how a statement, ALL and the cap test
are written and where the state lives within a call; _kernel picks one
in a single if.  On arrays each statement is one nested call of in-place
ufuncs (_lower), outputs passed positionally, which skips the keyword
parsing of out=; the source is the method's alone.
Every buffer it binds, the run's state z included, starts on a 64-byte
boundary (systems._aligned): numpy's own buffers are 16-byte aligned, and
its AVX-512 loops split every store into one that is not, which made a
wide state's step up to a fifth slower and its time depend on where the
buffers landed.
Even so a ufunc call costs ~0.3 us however short the state, and a step
makes 10-20 of them for a few dozen flops.  So a single state (q.ndim ==
1) of at most SCALAR_MAX_D axes whose slow force has scalar source
(SlowForce.scalar_source) steps in Python floats, each statement
written out axis by axis for the method, d and the force.
Python rounds + - * / as numpy does, so every state is bit for bit the
array kernels' (but for a NaN's sign, which numpy too picks by array
size).  The lattice force's cube stays one np.power call, the one
operation floats cannot copy.  Past SCALAR_MAX_D axes (measured,
tools/step_cost.py) the arrays win; blocks and forces without scalar
source take them too.
"""
from __future__ import annotations

import ast
import enum
import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, repeat
from types import CodeType
from typing import Callable

import numpy as np

from .systems import (OscillatorySystem, State, _aligned, _check_count, bind_slow_force,
                      stiff_energies)

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
# Longest single state that steps in generated float code (see _kernel):
# the largest lattice d (of 2 to 32) at which it beat the array kernels in
# at least 9 of 10 repeats of every run of tools/step_cost.py, for
# Stormer-Verlet and IMEX alike (d = 20 won 8 to 10 of 10).
SCALAR_MAX_D = 16

COMPLETED = "completed"
BLOWUP = "blowup"

# A kernel, called as kernel(n) with n >= 1, advances its bound buffers q
# and p in place by up to n steps.  After each step it tests every
# component of the new state against BLOWUP_NORM_CAP (a NaN fails) and
# stops right after the first state that fails.  It returns how many of its
# steps stayed within the cap: n, or k < n when step k + 1 left it, q and p
# then holding that state.  A NoConvergence raised in step k + 1 leaves q
# and p at the state before it, with k in its steps attribute.  A kernel
# is the send of a primed generator (_kernel), in floats or on arrays, from
# one template (_factory).  Between calls q and p belong to it: it keeps
# the half kick it computed from the state it left, and the float dialect
# also keeps its own copy of that state.  To restart from other values,
# bind again.  A kernel that raised is spent.
Kernel = Callable[[int], int]


class NoConvergence(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, iterations: int):
        super().__init__(f"fixed point not converged after {iterations} iterations")
        self.iterations = iterations
        # the steps a kernel took before the failing one (see Kernel)
        self.steps = 0


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


@dataclass(frozen=True)
class _Statements:
    """One method in vector notation.  consts, lines name = expression in
    the base constants (_base_constants) and earlier lines' names, runs when
    the kernel is bound; a constant is per-axis when its value is an
    array, else a float or an int.  Then setup runs once and step once per
    step; in them x and v stand for q and p, and any other name is a
    vector (n, cap, cap2, qdot, pdot, _b and s0, s1, ... are the kernel's
    own), keeping its value from step to step and call to call.
    g = SLOW(y) sets g to the slow force at y; ALL(e) holds when e holds
    on every axis.  Lines that begin with for, if, else, raise or break
    are Python as written, in both dialects."""

    name: str
    setup: tuple[str, ...]
    step: tuple[str, ...]
    consts: tuple[str, ...] = ()


def _splitting(name: str, inner: tuple[str, ...], kick: str = "k = half * g",
               setup: tuple[str, ...] = (), consts: tuple[str, ...] = ()) -> _Statements:
    """Half kick k = (h/2) F(x), the inner map across h, half kick.  The
    half kick is carried: setup evaluates it, and a step's closing kick is
    the next step's opening kick, so n steps evaluate the slow force n + 1
    times.  That holds while only the inner map moves x; RESPA's substeps,
    whose kicks move only v, carry their kick ks too."""
    force = ("g = SLOW(x)", kick)
    return _Statements(name, setup + force, ("v = v + k", *inner, *force, "v = v + k"), consts)


# Implicit midpoint on x'' = -w2 x, per axis: solves
# (1 + (h^2/4) w2) x1 = (1 - (h^2/4) w2) x0 + h v0, den = 1 + (h^2/4) w2,
# then v1 = v0 - (h/2) w2 (x0 + x1); it exactly conserves the fast energy.
_FAST_MIDPOINT = _Statements("midpoint-fast", (), (
    "w2x = w2 * x",
    "x = (x + h * v - quarter_h2 * w2x) / den",
    "v = v - half * (w2x + w2 * x)",
), ("den = 1.0 + quarter_h2 * w2",))
_STATEMENTS = {
    # Stormer-Verlet kicks with the full force g - w2 x around a drift
    Method.SV: _splitting("sv", ("x = x + h * v",), kick="k = half * (g - w2 * x)"),
    Method.IMEX: _splitting("imex", _FAST_MIDPOINT.step, consts=_FAST_MIDPOINT.consts),
    # `substeps` Stormer-Verlet steps of the stiff force alone across h, a
    # kick-drift-kick whose kick ks carries over too.  The stiff force is
    # nw2 x, nw2 = -w2 negated once: its half kick is exactly
    # -(dt/2)(w2 x), and v + (-ks) rounds as v - ks, signed zeros too.
    Method.RESPA: _splitting("respa", (
        "for _ in range(substeps):",
        "    v = v + ks",
        "    x = x + dt * v",
        "    ks = half_dt * (nw2 * x)",
        "    v = v + ks",
    ), setup=("ks = half_dt * (nw2 * x)",), consts=("dt = h / substeps", "half_dt = 0.5 * dt",
                                                  "nw2 = -w2")),
    # Rotation of each axis by its modified frequency: with a = h omega/2,
    # tan(w~ h/2) = a, c = cos(w~ h) = (1 - a^2)/(1 + a^2), and the map is
    # [[c, (h/2)(1 + c)], [-(2/h)(1 - c), c]].  Its entries are taken over
    # den = 1 + a^2, one rounding fewer each: cos = 1 - a^2, (h/2)(1 + c) =
    # h/den, (2/h)(1 - c) = hw2/den with hw2 = h omega^2; u holds x's new
    # numerator.  An axis with omega = 0 is exactly the drift x + h v.
    Method.MODIFIED_IMPULSE: _splitting("modified-impulse", (
        "u = cos * x + h * v",
        "v = (cos * v - hw2 * x) / den",
        "x = u / den",
    ), consts=("a2 = (0.5 * h * omega) ** 2", "cos = 1.0 - a2", "hw2 = h * omega ** 2",
               "den = 1.0 + a2")),
    # Implicit midpoint on the full potential: iterate m <- b + (h^2/4) f(m),
    # b = x + (h/2) v, f = g - w2 x, until successive iterates differ by at
    # most tol on every axis, at most max_iter times (FP_TOL, FP_MAX_ITER,
    # read at bind time).  It contracts only while (h^2/4) Lip(f) < 1: a
    # small-step baseline, with no carried kick.  A failed test raises
    # NoConvergence when some new is not finite (a finite iterate whose
    # change overflows goes on), leaving x and v as they were.  Overflow on
    # the way is silenced by the callers (integrate, _step_once).  x1 =
    # 2 m - x0 doubles m as m + m, exact as 2.0 * m is, with no literal.
    Method.MIDPOINT_FULL: _Statements("midpoint-full", (), (
        "b = x + half * v",
        "m = b",
        "for i in range(max_iter):",
        "    g = SLOW(m)",
        "    new = b + quarter_h2 * (g - w2 * m)",
        "    done = ALL(abs(new - m) <= tol)",
        "    if not done and not ALL(isfinite(new)):",
        "        raise NoConvergence(i + 1)",
        "    m = new",
        "    if done:",
        "        break",
        "else:",
        "    raise NoConvergence(max_iter)",
        "g = SLOW(m)",
        "v = v + h * (g - w2 * m)",
        "x = m + m - x",
    )),
}


_NAME = re.compile(r"\b[A-Za-z_]\w*")
_SLOW = re.compile(r"(\w+) = SLOW\((\w+)\)$")
# ALL(e), e nesting parentheses one deep
_ALL = re.compile(r"ALL\(((?:[^()]|\([^()]*\))*)\)")
_PYTHON = re.compile(r"(for|if|else|raise|break)\b")
# the numpy function of each operation, called _name in the array dialect
_UFUNCS = {ast.Add: "add", ast.Sub: "subtract", ast.Mult: "multiply", ast.Div: "divide",
           ast.LtE: "less_equal", "abs": "absolute", "isfinite": "isfinite"}
_NUMPY = {f"_{name}": getattr(np, name) for name in (*_UFUNCS.values(), "copyto")}


def _parsed(lines: tuple[str, ...]):
    """Each line's (indentation, kind, content): "slow" with (g, y) for
    g = SLOW(y), "python" for a Python line or an ALL, else "vector"."""
    for line in lines:
        text = line.lstrip()
        pad = line[:len(line) - len(text)]
        if match := _SLOW.match(text):
            yield pad, "slow", match.groups()
        else:
            yield pad, "python" if _PYTHON.match(text) or "ALL(" in text else "vector", text


def _base_constants(h: float, w2, omega, substeps) -> dict:
    """The constants every method may name: the floats h, half, quarter_h2
    and tol, the ints substeps and max_iter, and w2 and omega, per-axis
    arrays of shape (d,) when bound."""
    return {"h": h, "half": 0.5 * h, "quarter_h2": 0.25 * h * h, "w2": w2, "omega": omega,
            "substeps": substeps, "tol": float(FP_TOL), "max_iter": FP_MAX_ITER}


@lru_cache(maxsize=None)
def _names(statements: _Statements) -> tuple[tuple[str, ...], CodeType | None,
                                             tuple[str, str] | None]:
    """The constants setup and step name (base ones and the consts lines'),
    sorted; the consts lines compiled, or None if there are none; and the
    (g, y) of their g = SLOW(y), all alike, or None if there is none."""
    lines = statements.setup + statements.step
    slow = [text for _, kind, text in _parsed(lines) if kind == "slow"]
    base = _base_constants(1.0, None, None, 1)
    declared = {*base, *(_NAME.match(line).group() for line in statements.consts)}
    bound = tuple(sorted(declared.intersection(_NAME.findall("\n".join(lines)))))
    code = compile("\n".join(statements.consts), f"<oscint constants: {statements.name}>",
                   "exec") if statements.consts else None
    return bound, code, slow[0] if slow else None


def _constants(sys: OscillatorySystem, statements: _Statements, h: float, substeps: int) -> dict:
    """The constants setup and step name, in sorted order, for both
    dialects: of the base ones (_base_constants) and what the consts lines
    compute from them."""
    consts = _base_constants(float(h), sys.w2, sys.omega, substeps)
    bound, code, _ = _names(statements)
    if code is not None:
        exec(code, {}, consts)
    return {name: consts[name] for name in bound}


def _lower(node: ast.expr, names: dict, out: str | None = None, depth: int = -1) -> str:
    """The nested in-place ufunc call that evaluates node into the buffer
    out, or else the scratch slot s{depth}; names gathers the buffers it
    names, in the order the calls first name them.  Operand i goes to slot
    depth + 1 + i, so no call writes one of its operands: numpy takes a
    slow buffered path (about 1 us a call) for an in-place operation on a
    one-element array.  Only the outermost call writes out, so v = v + k
    accumulates in place, and Python evaluates the operands first, left to
    right, so the calls run innermost first."""
    if isinstance(node, ast.Name):
        names[node.id] = None
        return node.id
    if isinstance(node, ast.BinOp):
        ufunc, operands = _UFUNCS[type(node.op)], (node.left, node.right)
    elif isinstance(node, ast.Compare):
        ufunc, operands = _UFUNCS[type(node.ops[0])], (node.left, node.comparators[0])
    else:
        ufunc, operands = _UFUNCS[node.func.id], node.args
    args = [_lower(operand, names, None, depth + 1 + i) for i, operand in enumerate(operands)]
    out = out or f"s{depth}"
    names[out] = None
    return f"_{ufunc}({', '.join(args)}, {out})"


def _call(text: str, names: dict) -> str:
    """The array dialect's vector statement target = value, or ALL's e into _b."""
    target, _, value = text.rpartition(" = ")
    node = ast.parse(value, mode="eval").body
    if isinstance(node, ast.Name):
        names.update(dict.fromkeys((target, node.id)))
        return f"_copyto({target}, {node.id})"
    return _lower(node, names, target or "_b")


@lru_cache(maxsize=32)
def _factory(statements: _Statements, d: int | None, slow: tuple[str, ...],
             consts: tuple[str, ...], per_axis: tuple[str, ...], operands: tuple[str, ...]):
    """The compiled generator function of the statements' kernel (see
    Kernel) for _kernel, in the float dialect on d axes or, d None, the
    array dialect, named _scalar_kernel or _array_kernel.  slow is what
    g = SLOW(y) becomes, consts name the constants, per_axis the floats'
    per-axis ones, and operands the objects slow reads.  The generator
    runs setup and yields; sent n, it takes up to n steps and yields how
    many stayed within the cap, no yield inside the try.  Every name is a local of its frame, and
    Python lines are written as they are.

    Floats: each statement is written out axis by axis by name
    substitution: vector y becomes y0, y1, ..., per-axis constant c c_0,
    c_1, ..., and ALL(e) the conjunction of e on every axis.  The state
    lives in the floats x0, v0, ..., written to q and p once, when a call
    ends, however it ends.  After each step -cap <= y <= cap is tested on
    every component, which decides as abs(y) <= cap does (False for a NaN).

    Arrays: each statement is one nested in-place ufunc call (_lower) and
    ALL(e) e's call into the boolean buffer _b, then .all(); x and v are q
    and p, and every buffer and constant comes from buffer(name).  After
    each step x.x + v.v <= cap^2 bounds every component (NaN and overflow
    fail it), and only a failing state pays for the exact max test.
    """
    floats = d is not None
    # the array dialect's buffers, in the order binding makes them
    names = dict.fromkeys(("x", "v", "qdot", "pdot", *consts, *operands))

    def axis_name(match: re.Match) -> str:
        name = match.group()
        if name in per_axis:
            return name + "_{i}"
        return name if name in consts or name in ("abs", "isfinite") else name + "{i}"

    def each(text: str) -> list[str]:
        template = _NAME.sub(axis_name, text)
        return [template.format(i=i) for i in range(d)]

    def vector(text: str) -> list[str]:
        return each(text) if floats else [_call(text, names)]

    def every(match: re.Match) -> str:
        if floats:
            return f"({' and '.join(each(match.group(1)))})"
        return _call(match.group(1), names) + ".all()"

    def render(lines: tuple[str, ...]) -> list[str]:
        return [pad + line for pad, kind, text in _parsed(lines) for line in (
            slow if kind == "slow" else vector(text) if kind == "vector"
            else [_ALL.sub(every, text)])]

    def indent(lines) -> list[str]:
        return ["    " + line for line in lines]

    def unpack(name: str, value: str) -> str:
        return "".join(f"{name}{i}, " for i in range(d)) + f"= {value}"

    setup, step = render(statements.setup), render(statements.step)
    if floats:
        factory, label = "_scalar_kernel", f"scalar kernel: {statements.name}, d={d}"
        head = [
            f"def {factory}(q, p, cap, {', '.join(consts + operands)}):",
            # a memoryview takes an element faster than the array does
            "    q, p, ncap = memoryview(q), memoryview(p), -cap",
            "    " + unpack("x", "q.tolist()"), "    " + unpack("v", "p.tolist()"),
            *indent(unpack(c + "_", c) for c in per_axis),
        ]
        within = " and ".join(f"ncap <= {z}{i} <= cap" for i in range(d) for z in "xv")
        end = ["finally:", *indent(f"{b}[{i}] = {z}{i}" for b, z in ("qx", "pv") for i in range(d))]
    else:
        factory, label = "_array_kernel", f"array kernel: {statements.name}"
        head = [f"def {factory}(buffer, cap):",
                f"    {', '.join(names)}, = map(buffer, {tuple(names)!r})",
                "    cap2 = cap * cap"]
        end = []
        within = ("qdot(x) + pdot(v) <= cap2"
                  " or _absolute(x).max() <= cap and _absolute(v).max() <= cap")
    source = "\n".join([
        *head,
        *indent([
            *setup,
            "n = yield",
            "while True:",
            *indent([
                "try:",
                "    for _i in range(n):",
                *indent(indent([
                    *step,
                    f"if not ({within}):",
                    "    n = _i",
                    "    break",
                ])),
                "except NoConvergence as _exc:",
                "    _exc.steps = _i",
                "    raise",
                *end,
                "n = yield n",
            ]),
        ]),
    ])
    namespace = {"isfinite": math.isfinite, "NoConvergence": NoConvergence, **_NUMPY}
    exec(compile(source, f"<oscint {label}>", "exec"), namespace)
    return namespace[factory]


def _kernel(
    sys: OscillatorySystem, statements: _Statements, h: float, q: np.ndarray, p: np.ndarray,
    substeps: int = 1,
) -> Kernel:
    """The statements' kernel on their constants (_constants) bound to q
    and p: its generator's send, primed by running setup to the first
    yield; substeps is read by RESPA only.  In floats where it can be,
    every constant passed in by name, so no user value enters the source
    and nothing is folded: an axis with w2_i = 0 still computes 0.0 * x
    and keeps its signed zero.  On arrays every buffer, float and per-axis
    constant is shaped like q: a scalar costs numpy a conversion per call,
    and a call that broadcasts allocates a buffer the size of the block."""
    consts = _constants(sys, statements, h, substeps)
    slow = _names(statements)[2]
    g, y = slow or ("g", "x")
    emit = getattr(sys.slow_force, "scalar_source", None)
    d = q.size
    source = (q.ndim == 1 and d <= SCALAR_MAX_D and emit
              and emit([f"{y}{i}" for i in range(d)], [f"{g}{i}" for i in range(d)]))
    if source:
        lines, operands = source
        per_axis = tuple(name for name, value in consts.items() if isinstance(value, np.ndarray))
        values = dict(consts, **{name: consts[name].tolist() for name in per_axis})
        factory = _factory(statements, d, tuple(lines), tuple(consts), per_axis, tuple(operands))
        kernel = factory(q, p, BLOWUP_NORM_CAP, **values, **operands)
    else:
        shape = q.shape
        # x.x over every element of x, a block's too
        qdot, pdot = (q.dot, p.dot) if q.ndim == 1 else (partial(np.vdot, q), partial(np.vdot, p))
        buffers = {"x": q, "v": p, "qdot": qdot, "pdot": pdot}
        for name, value in consts.items():
            buffers[name] = value if isinstance(value, int) else _aligned(shape, value)

        def buffer(name: str) -> np.ndarray:
            if name not in buffers:  # a vector, a scratch slot or _b
                buffers[name] = _aligned(shape, dtype=bool if name == "_b" else float)
            return buffers[name]

        if slow is not None:
            buffers["SLOW"] = bind_slow_force(sys.slow_force, buffer(y), buffer(g))
        factory = _factory(statements, None, ("SLOW()",), tuple(consts), (),
                           ("SLOW",) if slow else ())
        kernel = factory(buffer, BLOWUP_NORM_CAP)
    next(kernel)
    return kernel.send


def _state_buffers(sys: OscillatorySystem, state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fresh contiguous z = [q | p] holding a copy of the state, and its
    q and p views; rejects a state whose length is not the system's d.  z
    starts on a 64-byte boundary (systems._aligned), and so does p when d
    is a multiple of 8, as on every lattice of ell divisible by 4."""
    d = sys.d
    if state.q.size != d:
        raise ValueError(f"the initial state has length {state.q.size}, the system d={d}")
    z = _aligned((2 * d,))
    z[:d], z[d:] = state.q, state.p
    return z, z[:d], z[d:]


def _step_once(
    sys: OscillatorySystem, statements: _Statements, h: float, q: np.ndarray, p: np.ndarray,
    substeps: int = 1,
) -> None:
    """Advance q and p in place by one step of the statements' kernel,
    kernel(1), whatever the state's norm.

    A diverging midpoint-full iteration may overflow before it raises
    NoConvergence; that is silenced here, once per step, as integrate
    silences it once per run.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _kernel(sys, statements, h, q, p, substeps)(1)


def _state_step(
    sys: OscillatorySystem, statements: _Statements, state: State, h: float, substeps: int = 1
) -> State:
    """One step of the statements' kernel on a copy of a state of sys; h may be negative."""
    _, q, p = _state_buffers(sys, state)
    _step_once(sys, statements, h, q, p, substeps)
    return State(state.t + h, q, p)


def kick_slow(sys: OscillatorySystem, state: State, dt: float) -> State:
    """Exact flow of the slow potential alone: momentum kick, no displacement."""
    return State(state.t, state.q.copy(), state.p + dt * sys.slow_force(state.q))


def step_midpoint_fast(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint step of the fast quadratic part only: IMEX's stiff
    flow (_FAST_MIDPOINT) alone."""
    return _state_step(sys, _FAST_MIDPOINT, state, h)


def step_imex(sys: OscillatorySystem, state: State, h: float) -> State:
    """Half slow kick, implicit midpoint on the fast part, half slow kick."""
    return _state_step(sys, _STATEMENTS[Method.IMEX], state, h)


def step_stormer_verlet(sys: OscillatorySystem, state: State, h: float) -> State:
    """Kick-drift-kick on the full force."""
    return _state_step(sys, _STATEMENTS[Method.SV], state, h)


def step_respa(sys: OscillatorySystem, state: State, h: float, substeps: int) -> State:
    """Impulse multiple time stepping: outer half kicks of the slow force
    around `substeps` Stormer-Verlet substeps of the fast-only system."""
    _check_count("substeps", substeps)
    return _state_step(sys, _STATEMENTS[Method.RESPA], state, h, substeps)


def step_modified_impulse(sys: OscillatorySystem, state: State, h: float) -> State:
    """Impulse method whose fast step rotates each axis by its modified
    frequency (see _STATEMENTS)."""
    return _state_step(sys, _STATEMENTS[Method.MODIFIED_IMPULSE], state, h)


def step_midpoint_full(sys: OscillatorySystem, state: State, h: float) -> State:
    """Implicit midpoint on the full potential (see _STATEMENTS)."""
    return _state_step(sys, _STATEMENTS[Method.MIDPOINT_FULL], state, h)


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
    state0 in place, one kernel call (see Kernel) per block of steps up to
    the next recorded one, the kernel testing each step's state; samples and
    final_state are copies.  Energies are evaluated once, over the recorded
    block.
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
    zs[0] = z
    rows = 1
    n = 0
    status, t_blowup, cause = COMPLETED, None, None
    # a diverging run may overflow before the cap test stops it, as early
    # as in the force evaluation that binding the kernel makes
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernel(sys, _STATEMENTS[spec.method], spec.h, q, p, spec.substeps)
        # one call a block of steps: stride steps up to each recorded
        # state, then any that are left
        blocks = repeat(stride, n_steps // stride)
        if n_steps % stride:
            blocks = chain(blocks, (n_steps % stride,))
        for block in blocks:
            try:
                within = kernel(block)
            except NoConvergence as exc:
                n += exc.steps + 1
                z.fill(np.nan)
                cause = str(exc)
            else:
                n += within
                if within == block:
                    if block == stride:
                        zs[rows] = z
                        rows += 1
                    continue
                n += 1
                cause = "state norm cap exceeded"
            zs[rows] = z
            rows += 1
            status, t_blowup = BLOWUP, t0 + n * spec.h
            break

        # the recorded steps: the multiples of the stride (a stride past
        # n_steps records the start alone), a blow-up's own step last
        steps = np.arange(rows, dtype=np.int64) * min(stride, n_steps)
        if status == BLOWUP:
            steps[-1] = n
        qs, ps = zs[:rows, :d], zs[:rows, d:]
        energies = sys.total_energy(qs, ps)
        stiff = None if sys.ell is None else stiff_energies(sys, qs, ps)
    return Trajectory(
        times=t0 + steps * spec.h,
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
