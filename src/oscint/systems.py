"""Mechanical systems with a stiff quadratic force and a soft anharmonic one.

A system is the data of q'' = -Omega^2 q + g(q) with unit mass matrix and a
diagonal Omega: per-axis stiff frequencies omega_i driving the fast
oscillation, and a slow potential U with analytic negative gradient g.  Two
concrete builders are provided: decoupled soft/stiff spring pairs (the
scalar model problem, or one axis per frequency of a sweep), and the
Fermi-Pasta-Ulam alternating spring lattice in averaged/extension
coordinates together with its energy diagnostics.

The built-in slow forces are SlowForce objects: besides g(x) they offer
bind(x, out), a call that writes g(x) into the fixed buffer out each time
it runs, so a run that steps its state in place evaluates the force
without allocating, and scalar_source, the same arithmetic as Python
statements on floats, which the steppers' float kernels for short states
inline.  bind_slow_force gives any other callable the same shape.  A
bound force looks each ufunc up once, through a module-level name, and
passes its output positionally, as the steppers' array kernels do.  Its
scratch, like every buffer the steppers' kernels bind, comes from
_aligned and starts on a 64-byte boundary: numpy aligns its own
buffers to 16 bytes only, and its AVX-512 loops split every store into a
buffer that is not 64-byte aligned.

The lattice force cubes its stretches with numpy's power, whose cost per
element depends on the base: numpy's vectorized loop sends a zero to a
scalar routine at about four times a positive base's cost.  The canonical
start leaves most springs of a wide lattice exactly unstretched for
hundreds of time units, so the bound lattice force cubes only the nonzero
stretches; every zero keeps its sign, as pow(+-0, 3) = +-0 would give it.
"""
from __future__ import annotations

import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)

# the ufuncs of the bound forces' calls
_add, _subtract, _negative, _power = np.add, np.subtract, np.negative, np.power
_not_equal = np.not_equal

# Alignment of the kernels' buffers (_aligned): one cache line, and the
# width of an AVX-512 vector.  np.add on 2000 doubles into a buffer so
# aligned took 0.64 us against 1.15 us into numpy's 16-byte alignment.
_ALIGN = 64

# Largest lattice fpu_build accepts, in stiff springs (2*MAX_ELL masses);
# checked before anything is allocated.  One IMEX step costs ~11 ms at
# ell = 1e5 and grows linearly in ell, so this is ~0.1 s per step.
MAX_ELL = 10 ** 6


def _check_count(name: str, value) -> None:
    """Require a count (a stride, RESPA's substeps, a lattice size) to be an
    int >= 1, as range() takes: 2.0, 2.5 and NaN fail."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _aligned(shape: tuple[int, ...], fill=None, dtype=float) -> np.ndarray:
    """A C-contiguous array whose data starts on an _ALIGN-byte boundary (a
    view into a buffer _ALIGN bytes longer, which numpy aligns to its
    itemsize), holding fill broadcast to the shape, as np.full(shape, fill)
    does, or uninitialised."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    raw = np.empty(size + _ALIGN // dtype.itemsize, dtype)
    # the address through ctypes, which numpy has loaded: a third of the
    # cost of raw.ctypes.data
    start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % _ALIGN // dtype.itemsize
    out = raw[start:start + size].reshape(shape)
    if fill is not None:
        out[...] = fill
    return out


@dataclass(frozen=True, eq=False)
class State:
    """Phase-space point: time, positions, momenta."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        if self.q.ndim != 1 or self.q.shape != self.p.shape:
            raise ValueError("q and p must be vectors of equal length")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class OscillatorySystem:
    """System q'' + Omega^2 q = g(q) with unit mass matrix and Omega = diag(omega).

    slow_force must be the negative gradient of slow_potential.  Both act
    on the last axis, so slow_potential also evaluates a block of states
    (shape (n, d)) in one call.  The steppers evaluate slow_force through
    bind_slow_force, in place when it is a SlowForce.  ell marks lattice
    systems that carry stiff-spring energy diagnostics.  Only the
    frequencies are stored and w2 holds their squares; omega2 builds the
    dense Omega^2 on access, which no library path does.
    """

    omega: np.ndarray
    slow_potential: Callable[[np.ndarray], float]
    slow_force: Callable[[np.ndarray], np.ndarray]
    label: str
    ell: int | None = None
    w2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.omega, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("omega must be a nonempty vector of per-axis frequencies")
        with np.errstate(over="ignore"):
            w2 = w * w
        if not (np.isfinite(w2).all() and (w >= 0.0).all()):
            raise ValueError("omega must be finite and nonnegative, with a finite square")
        object.__setattr__(self, "omega", _read_only(w))
        object.__setattr__(self, "w2", _read_only(w2))

    @property
    def d(self) -> int:
        return self.omega.size

    @property
    def omega2(self) -> np.ndarray:
        """Dense diag(omega^2), built on each access; read-only."""
        return _read_only(np.diag(self.w2))

    def fast_potential(self, q) -> float | np.ndarray:
        q = np.asarray(q, dtype=float)
        return 0.5 * np.sum(self.w2 * q * q, axis=-1)

    def total_energy(self, q, p) -> float | np.ndarray:
        """H(q, p); a block of states (shape (n, d)) gives n energies."""
        p = np.asarray(p, dtype=float)
        return 0.5 * np.sum(p * p, axis=-1) + self.fast_potential(q) + self.slow_potential(q)


@dataclass(frozen=True)
class FpuParams:
    """Lattice size (ell stiff springs, 2*ell masses) and stiff frequency."""

    ell: int
    omega: float

    def __post_init__(self):
        _check_count("ell", self.ell)
        if self.ell > MAX_ELL:
            raise ValueError(f"ell={self.ell} takes more than {MAX_ELL:.0e} stiff springs")
        # the canonical start puts 1/omega into the first stiff position
        if not (self.omega > 0.0 and math.isfinite(1.0 / float(self.omega))):
            raise ValueError("omega must be positive, with a finite reciprocal")


class SlowForce:
    """A slow force g that can be bound to fixed buffers.

    bind(x, out) returns a call that writes g(x) into out, reading x as it
    is when the call runs; views and scratch are set up once, at bind time.
    Calling the force allocates out, binds and runs, so both ways share one
    arithmetic.  x and out may carry leading axes (a block of states).  The
    steppers' array kernels evaluate a method's g = SLOW(y) through bind.

    scalar_source, if the force has one, is the same g = SLOW(y) in the
    float kernels that a short single state steps in
    (steppers._scalar_kernel).
    """

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        self.bind(x, out)()
        return out

    def bind(self, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        raise NotImplementedError

    def scalar_source(self, x: list[str], g: list[str]) -> tuple[list[str], dict] | None:
        """Python statements that set the float variables named g to g at
        the floats named x, with the objects they read by name, or None
        (the default): no scalar source.

        The statements do bind's operations, in its order, one axis at a
        time; Python rounds + - * / and sign flips as numpy does.  An
        operation that bind skips where its result is known may run
        here: the lattice force's source cubes every stretch, zeros too,
        since a short state's few stretches are nonzero after the first
        step and a mask would add a call to every step.  They
        depend on the names alone, never on a value, so a kernel's source
        is a function of the method, d and the force's class; the objects
        (buffers, ufuncs) are made fresh at each call.  Names of their own
        begin with an underscore.
        """
        return None


def bind_slow_force(force, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """A call that writes force(x) into out, x read as it is at each call.

    A force with a bind method (a SlowForce) binds itself; any other
    callable (a lambda, a wrapper) is called as force(x) and its result
    copied into out.
    """
    bind = getattr(force, "bind", None)
    if bind is not None:
        return bind(x, out)
    return lambda: np.copyto(out, force(x))


class _ModelSlowForce(SlowForce):
    """g(q) = -q: the unit soft spring of every model axis."""

    def bind(self, x, out):
        return functools.partial(_negative, x, out)

    def scalar_source(self, x, g):
        return [f"{gi} = -{xi}" for xi, gi in zip(x, g)], {}


def coupled_oscillator_build(omega) -> OscillatorySystem:
    """Model problem: a unit soft spring superposed with a stiff one per axis.

    Total potential is sum_i (1 + omega_i^2) q_i^2 / 2.  A scalar omega gives
    the scalar model problem; a vector gives one decoupled axis per
    frequency, so a frequency sweep steps as one system.  omega = 0
    degenerates to the plain unit harmonic oscillator, which is allowed for
    reduction checks.
    """

    def slow_potential(q):
        return 0.5 * np.sum(q * q, axis=-1)

    return OscillatorySystem(
        omega=np.atleast_1d(omega),
        slow_potential=slow_potential,
        slow_force=_ModelSlowForce(),
        label="model",
    )


def _bind_stretches(x: np.ndarray, ell: int, s: np.ndarray) -> Callable[[], None]:
    """A call writing the soft-spring elongations s_0..s_ell of x into s.

    s_i = (x0_i - x1_i) - (x0_{i-1} + x1_{i-1}) with wall terms x_{-1} =
    x_ell = 0; s_ell is the right-wall spring up to a sign, which the even
    potential and the odd cube in the force absorb.  The wall terms are the
    fixed zeros of two padded scratch rows a = [x0 - x1, 0] and
    b = [0, x0 + x1], and s = a - b.
    """
    x0, x1 = x[..., :ell], x[..., ell:]
    a, b = _aligned(s.shape, 0.0), _aligned(s.shape, 0.0)
    a_head, b_tail = a[..., :-1], b[..., 1:]

    def stretches():
        _subtract(x0, x1, a_head)
        _add(x0, x1, b_tail)
        _subtract(a, b, s)

    return stretches


def _fpu_slow_potential(ell: int) -> Callable[[np.ndarray], float]:
    def slow_potential(x):
        x = np.asarray(x, dtype=float)
        s = np.empty(x.shape[:-1] + (ell + 1,))
        _bind_stretches(x, ell, s)()
        return 0.25 * np.sum(s ** 4, axis=-1)

    return slow_potential


class _FpuSlowForce(SlowForce):
    """Lattice slow force from the cubed stretches c = s^3:
    (c_1..c_ell - c_0..c_{ell-1}, c_0..c_{ell-1} + c_1..c_ell)."""

    def __init__(self, ell: int):
        self.ell = ell

    def bind(self, x, out):
        ell = self.ell
        c = _aligned(x.shape[:-1] + (ell + 1,))
        # the exponent and zero as arrays, not the scalars 3 and 0: np.power
        # gives the same cubes (bit for bit, tests/test_oracle.py) without
        # numpy's per-call scalar conversion
        three, zero = _aligned(c.shape, 3.0), _aligned(c.shape, 0.0)
        nonzero = _aligned(c.shape, dtype=bool)
        stretches = _bind_stretches(x, ell, c)
        c_head, c_tail = c[..., :-1], c[..., 1:]
        g0, g1 = out[..., :ell], out[..., ell:]

        def force():
            stretches()
            # the nonzero stretches alone are cubed (see the module
            # docstring); a masked-out +-0 keeps its sign, as pow would
            _not_equal(c, zero, nonzero)
            _power(c, three, c, where=nonzero)
            _subtract(c_tail, c_head, g0)
            _add(c_head, c_tail, g1)

        return force

    def scalar_source(self, x, g):
        # bind's stretches, wall terms included, written into _c through its
        # memoryview _s; their cube, the one operation floats cannot copy
        # (numpy's vectorized pow rounds apart from the C library's); the
        # cubes' differences and sums
        ell = self.ell
        x0, x1, g0, g1 = x[:ell], x[ell:], g[:ell], g[ell:]
        a = [f"({u} - {w})" for u, w in zip(x0, x1)] + ["0.0"]
        b = ["0.0"] + [f"({u} + {w})" for u, w in zip(x0, x1)]
        cubes = [f"_c{i}" for i in range(ell + 1)]
        lines = [
            *(f"_s[{i}] = {ai} - {bi}" for i, (ai, bi) in enumerate(zip(a, b))),
            "_power(_c, _three, _c)",
            "".join(f"{c}, " for c in cubes) + "= _s.tolist()",
            *(f"{gi} = {tail} - {head}" for gi, head, tail in zip(g0, cubes, cubes[1:])),
            *(f"{gi} = {head} + {tail}" for gi, head, tail in zip(g1, cubes, cubes[1:])),
        ]
        c = np.empty(ell + 1)
        return lines, {"_c": c, "_s": memoryview(c), "_three": np.full(c.shape, 3.0),
                       "_power": _power}


def fpu_build(params: FpuParams) -> OscillatorySystem:
    """FPU lattice in averaged/extension coordinates.

    Positions are ordered (x_{0,1..ell}, x_{1,1..ell}): first the averaged
    (soft) block, then the extension (stiff) block, so the frequencies are
    (0,...,0, omega,...,omega).
    """
    ell, omega = params.ell, float(params.omega)
    return OscillatorySystem(
        omega=np.concatenate([np.zeros(ell), np.full(ell, omega)]),
        slow_potential=_fpu_slow_potential(ell),
        slow_force=_FpuSlowForce(ell),
        label="fpu",
        ell=ell,
    )


def fpu_transform(q, p) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal change from per-mass coordinates to averaged/extension ones.

    x_{0,i} = (q_{2i} + q_{2i-1}) / sqrt(2), x_{1,i} = (q_{2i} - q_{2i-1}) / sqrt(2)
    (1-based mass indices), and identically for momenta.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim != 1 or q.shape != p.shape or q.size % 2:
        raise ValueError("expected equal-length even-dimensional q and p")
    return _butterfly(q), _butterfly(p)


def _butterfly(v: np.ndarray) -> np.ndarray:
    """One vector per-mass -> averaged/extension (see fpu_transform)."""
    even, odd = v[0::2], v[1::2]
    return np.concatenate([(odd + even) / _SQRT2, (odd - even) / _SQRT2])


def fpu_inverse_transform(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of fpu_transform."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size % 2:
        raise ValueError("expected equal-length even-dimensional x and y")
    return _inverse_butterfly(x), _inverse_butterfly(y)


def _inverse_butterfly(v: np.ndarray) -> np.ndarray:
    """One vector averaged/extension -> per-mass, masses 2i-1 and 2i interleaved."""
    x0, x1 = np.split(v, 2)
    return np.column_stack([(x0 - x1) / _SQRT2, (x0 + x1) / _SQRT2]).ravel()


def stiff_energies(sys: OscillatorySystem, q, p) -> np.ndarray:
    """Per-spring stiff energies I_j = (y_{1,j}^2 + omega^2 x_{1,j}^2) / 2 of
    the state (q, p) or, row by row, of a block of states (shape (n, d));
    the caller sums them."""
    ell = sys.ell
    if ell is None:
        raise ValueError("stiff_energies needs a lattice system")
    w = sys.omega[ell:]
    x1 = np.asarray(q, dtype=float)[..., ell:]
    y1 = np.asarray(p, dtype=float)[..., ell:]
    return 0.5 * (y1 * y1 + (w * x1) ** 2)


def fpu_initial_state(sys: OscillatorySystem) -> State:
    """Canonical lattice start: unit energy in the first soft and first stiff mode."""
    if sys.ell is None:
        raise ValueError("fpu_initial_state needs a lattice system")
    ell = sys.ell
    omega = sys.omega[-1]
    q = np.zeros(2 * ell)
    p = np.zeros(2 * ell)
    q[0] = 1.0
    p[0] = 1.0
    q[ell] = 1.0 / omega
    p[ell] = 1.0
    return State(0.0, q, p)
