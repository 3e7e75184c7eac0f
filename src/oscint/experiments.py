"""Experiment drivers: resonance sweep, lattice energy exchange, order study.

These produce plain data objects; CSV serialization lives in the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ENERGY_ERROR_CAP, convergence_order, propagation_matrix, windowed_mean
from .steppers import Method, StepperSpec, Trajectory, integrate, step_count
from .systems import FpuParams, State, coupled_oscillator_build, fpu_build, fpu_initial_state

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

# the ufuncs of the sweep's per-step calls
_add, _subtract, _multiply, _absolute, _fmax = np.add, np.subtract, np.multiply, np.absolute, np.fmax


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
    coefficient vectors of `mats`, and H = 0.5 y^2 + (0.5 spring) x^2, all
    into preallocated buffers, with the steppers' lean calls: ufuncs looked
    up once, outputs passed positionally, the factor 0.5 as an array.

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
    a, b = mats[:, 0, 0].copy(), mats[:, 0, 1].copy()
    c, d = mats[:, 1, 0].copy(), mats[:, 1, 1].copy()
    x0, y0 = np.empty(n), np.empty(n)
    x0[:], y0[:] = q0, p0
    half_spring = 0.5 * spring
    h0 = 0.5 * y0 ** 2 + half_spring * x0 ** 2
    err = np.zeros(n)
    x1, y1, tmp, energy = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    half = np.full(n, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            _multiply(a, x0, x1)
            _multiply(b, y0, tmp)
            _add(x1, tmp, x1)
            _multiply(c, x0, y1)
            _multiply(d, y0, tmp)
            _add(y1, tmp, y1)
            _multiply(y1, y1, energy)
            _multiply(energy, half, energy)
            _multiply(x1, x1, tmp)
            _multiply(tmp, half_spring, tmp)
            _add(energy, tmp, energy)
            _subtract(energy, h0, energy)
            _absolute(energy, energy)
            _fmax(err, energy, err)
            x0, x1, y0, y1 = x1, x0, y1, y0
    err[~(np.isfinite(x0) & np.isfinite(y0))] = np.inf
    return np.minimum(err, ENERGY_ERROR_CAP)


def resonance_sweep(
    h: float = 0.1,
    t_end: float = 1000.0,
    substeps: int = 100,
    grid: float = 0.01,
    sweep_max: float = 4.5,
) -> list[SweepRow]:
    """Max energy error of the impulse and IMEX methods across stiff frequencies.

    Grid points r = omega*h/pi = grid, 2*grid, ..., up to sweep_max; one row
    per point, blow-ups capped rather than skipped.
    """
    if not all(x > 0.0 and math.isfinite(x) for x in (h, t_end, grid, sweep_max)):
        raise ValueError("sweep parameters must be positive and finite")
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
    errs = _linear_max_energy_errors(mats, spring, n_steps, q0, 0.0)
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
        step_count(ref_spec, state0.t, t_end)
    traj = integrate(sys, spec, state0, t_end, stride=stride)
    reference = None
    sup_diffs = None
    if ref_spec is not None:
        ref_stride = max(1, round(0.01 / reference_h))
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

    The error is the final-state phase-space distance at the actual end time
    of each run (an exact step multiple of h).
    """
    sys = coupled_oscillator_build(omega)
    rows = []
    for method in methods:
        hs, errors = [], []
        blew_up = False
        for level in range(levels):
            h_level = h / 2 ** level
            spec = StepperSpec(method=method, h=h_level)
            traj = integrate(sys, spec, State(0.0, [q0], [p0]), t_end, stride=10 ** 9)
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
