"""Experiment drivers: resonance sweep, lattice energy exchange, order study.

These produce plain data objects; CSV serialization lives in the CLI.

The resonance sweep iterates its 2x2 one-step matrices on all rows at once
(_linear_max_energy_errors), and every step, energy, maximum and cap of
that loop is per row.  So where os.fork exists and the process may run on
at least two CPUs (os.sched_getaffinity), the sweep forks one child that
runs the loop on the second half of the rows while the parent runs it on
the first half (_max_energy_errors); each row goes through the same
operations either way, so the errors are bit-identical.  It uses two
processes, not one per CPU: a ufunc call on 450 rows still pays most of
the fixed cost of one on 900, so a third part would save little.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import ENERGY_ERROR_CAP, convergence_order, propagation_matrix, windowed_mean
from .steppers import MAX_STEPS, Method, StepperSpec, Trajectory, integrate, step_count
from .systems import (FpuParams, State, _aligned, coupled_oscillator_build, fpu_build,
                      fpu_initial_state)

# Sweep initial condition: displacement 1/sqrt(1 + omega^2), zero momentum.
# The model spring constant is 1 + omega^2, so this puts the same energy 1/2
# into every grid point, which is what keeps the IMEX error curve flat across
# the sweep.  A displacement start (rather than a momentum start) matters for
# the impulse method: near integer omega*h/pi its propagation matrix is close
# to a shear that amplifies position seeds by ~100x but leaves a pure momentum
# start almost untouched, and the resonance spikes ride on that channel.
SWEEP_AMPLITUDE = 1.0

# Work bound of one resonance sweep, in row-steps: each of the 2n rows (RESPA
# and IMEX per grid point) costs t_end/h matrix steps, plus one RESPA step of
# `substeps` substeps on its two basis states to find its matrix.  The
# defaults take 9.2e6.  Checked before anything is allocated.
MAX_SWEEP_ROW_STEPS = 10 ** 9

# Steps per block of the sweep loop: the states of K steps are written into
# one (K + 1, n) block, and their energies evaluated by one call per term.
SWEEP_BLOCK = 16

# the ufuncs of the sweep's per-step and per-block calls
_add, _subtract, _multiply, _absolute, _fmax = np.add, np.subtract, np.multiply, np.absolute, np.fmax
_fmax_reduce, _copyto = np.fmax.reduce, np.copyto


@dataclass(frozen=True)
class SweepRow:
    omega_h_over_pi: float
    omega: float
    err_respa: float
    err_imex: float


def _linear_max_energy_errors(
    mats: np.ndarray,
    spring: np.ndarray,
    n_steps: int,
    q0: np.ndarray | float,
    p0: np.ndarray | float,
) -> np.ndarray:
    """Iterate a batch of 2x2 one-step matrices, tracking max |H - H0|.

    The model problem is linear, so iterating the one-step matrix of the
    production stepper reproduces its trajectory; energy is evaluated at
    every step.  Each step is x1 = a x0 + b y0, y1 = c x0 + d y0 on the four
    coefficient vectors of `mats`, six calls into preallocated rows, with the
    steppers' lean calls: ufuncs looked up once, outputs passed positionally.
    Every buffer starts on a 64-byte boundary, as the kernels' do
    (systems._aligned): on numpy's own buffers the loop's time moved by a
    few percent with where they landed.

    The energies are evaluated per block of K = SWEEP_BLOCK steps: the steps
    of a block write their states into rows 1..K of (K + 1, n) blocks x and
    y, whose row 0 holds the state the block starts from.  Once per block,
    |H - H0| = |(y y) 0.5 + (x x)(0.5 spring) - H0| is evaluated over rows
    1..K, err = fmax(err, fmax.reduce(rows)), and the last row becomes the
    next block's row 0; the last block may be shorter.  Each element goes
    through the same operations on the same operands in the same order as
    when the energy was evaluated after every step (0.5 spring and H0
    broadcast over the rows, which rounds nothing).  fmax returns one of its
    operands and skips a NaN, so the maximum it takes over the block and then
    against err is exact, reads the same in any order, and skips NaN
    energies as the per-step fmax did: the errors are bit-identical
    (tests/test_oracle.py pins them against the per-step loop).

    Errors are capped at ENERGY_ERROR_CAP, and a diverging row reads the cap
    with no per-step test or reset.  From a finite state the energy, a sum
    of nonnegative terms, is finite or +inf, and fmax keeps an inf.  A state
    that turns non-finite stays so (inf and NaN propagate through both rows
    of the product); fmax skips its NaN energies, and such rows are set to
    inf after the loop.  So a row reads inf exactly when some step's energy
    was non-finite, and the final minimum turns it into the cap.  In the
    sweeps the inf comes first: 0.5 x^2 overflows at |x| ~ 1e154, and with
    matrix entries below ~1e5 no single step carries the state from there
    to the inf - inf of products near 1e308.
    """
    n = mats.shape[0]
    a, b, c, d = (_aligned((n,), mats[:, i, j]) for i in (0, 1) for j in (0, 1))
    k = SWEEP_BLOCK
    xs, ys = _aligned((k + 1, n)), _aligned((k + 1, n))
    xs[0], ys[0] = q0, p0
    half_spring = 0.5 * spring
    h0 = 0.5 * ys[0] ** 2 + half_spring * xs[0] ** 2
    err, block_max, tmp = _aligned((n,), 0.0), _aligned((n,)), _aligned((n,))
    energy, term = _aligned((k, n)), _aligned((k, n))
    # (x0, y0, x1, y1) row views of each step of a block
    steps = list(zip(xs[:-1], ys[:-1], xs[1:], ys[1:]))

    def block(size):
        """The views one block of `size` steps runs on."""
        return (steps[:size], xs[1:size + 1], ys[1:size + 1], energy[:size], term[:size],
                xs[size], ys[size])

    full, last = divmod(n_steps, k)
    blocks = itertools.chain(itertools.repeat(block(k), full), [block(last)] if last else [])
    with np.errstate(over="ignore", invalid="ignore"):
        for block_steps, x, y, e, t, x_end, y_end in blocks:
            for x0, y0, x1, y1 in block_steps:
                _multiply(a, x0, x1)
                _multiply(b, y0, tmp)
                _add(x1, tmp, x1)
                _multiply(c, x0, y1)
                _multiply(d, y0, tmp)
                _add(y1, tmp, y1)
            _multiply(y, y, e)
            _multiply(e, 0.5, e)
            _multiply(x, x, t)
            _multiply(t, half_spring, t)
            _add(e, t, e)
            _subtract(e, h0, e)
            _absolute(e, e)
            _fmax(err, _fmax_reduce(e, 0, None, block_max), err)
            _copyto(xs[0], x_end)
            _copyto(ys[0], y_end)
    err[~(np.isfinite(xs[0]) & np.isfinite(ys[0]))] = np.inf
    return np.minimum(err, ENERGY_ERROR_CAP)


def _max_energy_errors(
    mats: np.ndarray, spring: np.ndarray, n_steps: int, q0: np.ndarray
) -> np.ndarray:
    """_linear_max_energy_errors from (q0, 0) on every row, in two processes
    where a second CPU is there (module docstring).

    The child runs the loop on the second half of the rows, writes its
    errors into an anonymous shared map and ends in os._exit, 0 only once
    they are written.  The parent runs the first half, reaps the child and
    concatenates.  A fork that raises OSError runs every row here; a child
    that ends otherwise raises OSError.  If the parent's half raises, the
    child is killed and reaped before the exception goes on.
    """
    n = mats.shape[0]
    affinity = getattr(os, "sched_getaffinity", None)
    if n < 2 or not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return _linear_max_energy_errors(mats, spring, n_steps, q0, 0.0)
    split = (n + 1) // 2
    try:
        shared = mmap.mmap(-1, 8 * (n - split))
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside other threads, such as
            # numpy's BLAS pool; the child calls ufuncs only and ends in
            # os._exit, so it takes no lock those threads may hold
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        return _linear_max_energy_errors(mats, spring, n_steps, q0, 0.0)
    if pid == 0:
        try:
            np.frombuffer(shared)[:] = _linear_max_energy_errors(
                mats[split:], spring[split:], n_steps, q0[split:], 0.0)
            os._exit(0)
        finally:
            os._exit(1)
    try:
        first = _linear_max_energy_errors(mats[:split], spring[:split], n_steps, q0[:split], 0.0)
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        # the child may already be reaped, if the exception came after waitpid
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise OSError(f"the resonance sweep's child process failed (exit status {code})")
    second = np.frombuffer(shared).copy()
    shared.close()
    return np.concatenate((first, second))


def resonance_sweep(
    h: float = 0.1,
    t_end: float = 1000.0,
    substeps: int = 100,
    grid: float = 0.01,
    sweep_max: float = 4.5,
) -> list[SweepRow]:
    """Max energy error of the impulse and IMEX methods across stiff frequencies.

    Grid points r = omega*h/pi = grid, 2*grid, ..., up to sweep_max; one row
    per point, blow-ups capped rather than skipped.  The impulse rows and
    the IMEX rows are iterated in two processes where the process may run
    on two CPUs, with bit-identical errors (module docstring); a child
    process that fails raises OSError.
    """
    if not all(x > 0.0 and math.isfinite(x) for x in (h, t_end, grid, sweep_max)):
        raise ValueError("sweep parameters must be positive and finite")
    omega_max = sweep_max * math.pi / h
    if not math.isfinite(omega_max * omega_max):
        raise ValueError("the sweep's largest omega, max*pi/h, must have a finite square")
    respa = StepperSpec(Method.RESPA, h, substeps)  # rejects substeps that is not an int >= 1
    rows = 2.0 * sweep_max / grid
    if substeps > MAX_SWEEP_ROW_STEPS or not (
        rows * (t_end / h + 2.0 * substeps) <= MAX_SWEEP_ROW_STEPS
    ):
        raise ValueError(f"the sweep takes more than {MAX_SWEEP_ROW_STEPS:.0e} row-steps")
    n = int(math.floor(sweep_max / grid + 1e-9))
    if n < 1:
        raise ValueError("sweep grid is empty")
    ratios = grid * np.arange(1, n + 1)
    omegas = ratios * math.pi / h
    # one decoupled axis per grid frequency: one step yields all the
    # per-frequency matrices of a method
    mats = np.concatenate([propagation_matrix(respa, omegas),
                           propagation_matrix(StepperSpec(Method.IMEX, h), omegas)])
    spring = np.concatenate([1.0 + omegas ** 2] * 2)
    n_steps = math.ceil(t_end / h)
    q0 = SWEEP_AMPLITUDE / np.sqrt(spring)
    errs = _max_energy_errors(mats, spring, n_steps, q0)
    return [
        SweepRow(float(ratios[i]), float(omegas[i]), float(errs[i]), float(errs[n + i]))
        for i in range(n)
    ]


@dataclass(frozen=True, eq=False)
class ExchangeResult:
    trajectory: Trajectory
    reference: Trajectory | None
    # sup_t |windowed I_j - windowed I_j^ref| per stiff spring, when both
    # runs completed
    sup_diffs: np.ndarray | None
    window: float


def windowed_stiff_diffs(traj: Trajectory, ref: Trajectory, window: float) -> np.ndarray:
    """Sup over time of the windowed per-spring energy differences.

    The reference windowed series is linearly interpolated onto the main
    run's sample times; both series are smooth on the window scale.
    """
    if traj.stiff is None or ref.stiff is None:
        raise ValueError("both runs must carry stiff energies")
    n_springs = traj.stiff.shape[1]
    out = np.empty(n_springs)
    for j in range(n_springs):
        wm = windowed_mean(traj.times, traj.stiff[:, j], window)
        wm_ref = windowed_mean(ref.times, ref.stiff[:, j], window)
        wm_ref_at = np.interp(traj.times, ref.times, wm_ref)
        out[j] = float(np.max(np.abs(wm - wm_ref_at)))
    return out


def fpu_exchange(
    method: Method = Method.IMEX,
    h: float = 0.03,
    t_end: float = 200.0,
    ell: int = 3,
    omega: float = 50.0,
    reference_h: float | None = None,
    stride: int = 1,
    window: float = 1.0,
    substeps: int = 100,
) -> ExchangeResult:
    """Track stiff-spring energies along a lattice run, optionally against a
    fine Stormer-Verlet reference started from the same state."""
    if not (window > 0.0 and math.isfinite(window)):
        raise ValueError("window must be positive and finite")
    sys = fpu_build(FpuParams(ell, omega))
    state0 = fpu_initial_state(sys)
    spec = StepperSpec(method=method, h=h, substeps=substeps)
    ref_spec = None
    if reference_h is not None:
        ref_spec = StepperSpec(method=Method.SV, h=reference_h)
        # reject an unbounded reference before the main run
        step_count(ref_spec, state0.t, t_end, sys.d)
    traj = integrate(sys, spec, state0, t_end, stride=stride)
    reference = None
    sup_diffs = None
    if ref_spec is not None:
        # a sample every 0.01; no stride past MAX_STEPS records fewer samples
        ref_stride = max(1, round(min(0.01 / reference_h, MAX_STEPS)))
        reference = integrate(sys, ref_spec, state0, t_end, stride=ref_stride)
        if traj.completed and reference.completed:
            sup_diffs = windowed_stiff_diffs(traj, reference, window)
    return ExchangeResult(traj, reference, sup_diffs, window)


def model_exact_state(omega: float, q0: float, p0: float, t: float) -> tuple[float, float]:
    """Closed-form solution of the scalar model problem at time t."""
    nu = math.sqrt(1.0 + omega * omega)
    q = math.cos(nu * t) * q0 + math.sin(nu * t) * p0 / nu
    p = -nu * math.sin(nu * t) * q0 + math.cos(nu * t) * p0
    return q, p


@dataclass(frozen=True)
class ConvergenceRow:
    method: Method
    hs: tuple[float, ...]
    errors: tuple[float, ...]
    order: float  # NaN when a run blew up
    blew_up: bool


def convergence_study(
    methods: tuple[Method, ...] = (Method.SV, Method.IMEX, Method.MIDPOINT_FULL),
    h: float = 0.1,
    t_end: float = 10.0,
    # the coarsest level must already sit in the asymptotic regime for the
    # fitted slope to read as the order; h*nu ~ 0.22 here
    omega: float = 2.0,
    levels: int = 4,
    q0: float = 1.0,
    p0: float = 0.5,
) -> list[ConvergenceRow]:
    """Global error against the closed-form model solution at h, h/2, h/4, ...

    Level k takes n0 2^k steps of h/2^k, n0 the steps of h to t_end, so all
    end at n0 h; the error is the final-state phase-space distance there.
    """
    sys = coupled_oscillator_build(omega)
    rows = []
    for method in methods:
        hs, errors = [], []
        blew_up = False
        n0 = step_count(StepperSpec(method=method, h=h), 0.0, t_end, 1)
        for level in range(levels):
            h_level = h / 2 ** level
            spec = StepperSpec(method=method, h=h_level)
            # half a step short of n0 2^k steps, which step_count rounds up to
            t_level = (n0 * 2 ** level - 0.5) * h_level
            traj = integrate(sys, spec, State(0.0, [q0], [p0]), t_level, stride=10 ** 9)
            hs.append(h_level)
            if not traj.completed:
                blew_up = True
                errors.append(float("inf"))
                continue
            t_final = float(traj.final_state.t)
            q_exact, p_exact = model_exact_state(omega, q0, p0, t_final)
            errors.append(
                float(np.hypot(traj.final_state.q[0] - q_exact, traj.final_state.p[0] - p_exact))
            )
        order = float("nan")
        if not blew_up and all(e > 0.0 for e in errors):
            order = convergence_order(list(zip(hs, errors)))
        rows.append(ConvergenceRow(method, tuple(hs), tuple(errors), order, blew_up))
    return rows
