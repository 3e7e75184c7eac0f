"""Cost of one integrate step per method, and of binding a kernel, in microseconds.

    python3 tools/step_cost.py [SRC ...] [--repeats N]

Each SRC is the src directory of an oscint checkout (default: this one's).
Every checkout is loaded as its own package in this process and the runs
alternate between them, case by case, so a before/after pair shares the
machine's state.  A method case is a 2000-step integrate run at stride 1e9
(no samples recorded) at h = 0.01 on two systems: the ell=3 lattice at
omega = 50 from its canonical start, and the convergence study's d=1 model
system at omega = 2 from (q, p) = (1, 0.5); RESPA takes 10 substeps.  The
lattice and model rows time the kernels integrate binds for them:
generated Python-float code, as for any single state of at most
SCALAR_MAX_D axes (see oscint.steppers).  On each system, the other rows:
  - 1-step run: a whole IMEX run of one step, the fixed cost of a run
    (binding, the sample block, the energies), in us per run;
  - midpoint-full/iter: the midpoint-full run's time per fixed-point
    iteration, the iterations counted in an untimed run, so that a change
    in the cost of one iteration reads apart from a change in their number.
Two cases time the shapes of the fpu-exchange command (exchange-small) on
the ell=3 lattice, per step: its IMEX run, h = 0.03 recorded at every step
(1000 steps, stride 1), and its Stormer-Verlet reference, h = 0.001
recorded at every tenth (3000 steps, stride 10).  Two more cases time the
model-sweep commands and the loops inside them:
  - sweep 900 rows: the resonance sweep's matrix loop per step, in one
    process, on the 900 rows (RESPA and IMEX at 450 frequencies) of the
    CLI defaults;
  - sweep resonance_sweep(): the whole sweep at the CLI defaults per step
    of its 10^4, end to end: its matrices, and the loop in two processes
    where the sweep forks one (see oscint.experiments).
  - ell=N sv|imex scalar|array: integrate as above on the ell = N
    lattice (ell = 1, 2, 3, 4, 6, 8, 10, 12, 14, 16) on both paths:
    "scalar" with SCALAR_MAX_D raised to cover d = 2 ell, "array" with the
    slow force behind a plain wrapper that keeps its bind but has no
    scalar source.
  - ell=1000 METHOD canonical|excited: a 200-step run at h = 0.01 on the
    ell = 1000 lattice (d = 2000, the array path, as lattice-large runs),
    per step: from the canonical start, whose far springs stay exactly
    unstretched, and from that start plus a fixed-seed perturbation of
    every coordinate, whose stretches are all nonzero, about half
    negative.  numpy's vectorized pow cubes a positive base fastest; a
    zero base costs it 3-5 times as much, and a negative one 20-35 times
    (see README), so the force cubes only the nonzero stretches and the
    excited start is the costly case.
  - force ell=1000 canonical|excited: the bound slow force of that
    lattice alone, per call, at either start.
  - csv ell=1000 2 rows: cli._rows on the two sample rows of a lattice-large
    command (IMEX at h = 0.03 to t = 2, omega = 50; 5003 columns, 9961 of
    their 10006 cells +0.0), per call.
  - bind ell=N, METHOD cold|warm: one steppers._kernel call binding the
    method to the canonical start of the ell = 3 lattice (the float
    dialect) or the ell = 1000 lattice (the array dialect): "cold" with
    every cache of the steppers module cleared first, so the bind renders
    and compiles the method's source (the float one for its d, the array
    one for every shape), "warm" after an untimed bind, so it compiles
    nothing.
The table gives the median and quartiles over the repeats.  Last, for
each lattice size and method, the repeats in which the scalar path beat
the array path; SCALAR_MAX_D is the largest d at which it wins 9 of 10.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import statistics
import sys
import time
from functools import cache, partial
from pathlib import Path

METHODS = ("sv", "imex", "modified-impulse", "respa", "midpoint-full")
SYSTEMS = ("lattice", "model")
H = 0.01
DEFAULT_STEPS = 2000
# fpu-exchange's runs: (method, h, steps, stride)
EXCHANGE_RUNS = {"imex h=0.03 stride 1": ("imex", 0.03, 1000, 1),
                 "sv h=0.001 stride 10": ("sv", 0.001, 3000, 10)}
SWEEP_STEPS = 2000
PATH_ELLS = (1, 2, 3, 4, 6, 8, 10, 12, 14, 16)
PATH_METHODS = ("sv", "imex")
WIDE_ELL = 1000
WIDE_STEPS = 200
# the excited start: the canonical one plus EXCITATION times standard
# normal draws of this seed on every coordinate
EXCITATION = 0.01
EXCITATION_SEED = 0
FORCE_CALLS = 1000
# lattice-large's IMEX command: h, t_end, and the stride that records the
# start and the end alone
CSV_RUN = (0.03, 2.0, 67)
BIND_ELLS = (3, 1000)


def load(src: Path, alias: str):
    """The oscint package under src, imported under the name alias."""
    init = src / "oscint" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def system_and_start(oscint, system: str):
    """The ell=3 lattice or the d=1 model system, and its start state."""
    if system == "lattice":
        lattice = oscint.fpu_build(oscint.FpuParams(ell=3, omega=50.0))
        return lattice, oscint.fpu_initial_state(lattice)
    return oscint.coupled_oscillator_build(2.0), oscint.State(0.0, [1.0], [0.5])


def run_seconds(oscint, sys_, state0, method: str, n: int, h: float = H,
                stride: int = 10 ** 9) -> float:
    """Wall time of an n-step integrate run."""
    spec = oscint.StepperSpec(method=method, h=h, substeps=10 if method == "respa" else 1)
    start = time.perf_counter()
    # (n - 1/2) h keeps the step count at n whatever the rounding of n h
    oscint.integrate(sys_, spec, state0, (n - 0.5) * h, stride=stride)
    return time.perf_counter() - start


def us_per_step(oscint, system: str, method: str) -> float:
    sys_, state0 = system_and_start(oscint, system)
    return run_seconds(oscint, sys_, state0, method, DEFAULT_STEPS) / DEFAULT_STEPS * 1e6


def us_per_run(oscint, system: str) -> float:
    """A one-step IMEX run: what a run costs besides its steps."""
    sys_, state0 = system_and_start(oscint, system)
    return run_seconds(oscint, sys_, state0, "imex", 1) * 1e6


def us_per_exchange_step(oscint, run: str) -> float:
    method, h, n, stride = EXCHANGE_RUNS[run]
    sys_, state0 = system_and_start(oscint, "lattice")
    return run_seconds(oscint, sys_, state0, method, n, h, stride) / n * 1e6


def us_per_fixed_point_iteration(oscint, system: str) -> float:
    """midpoint-full on the system, per fixed-point iteration.

    A step evaluates the slow force once per iteration and once more at
    the converged midpoint, so an untimed run with a counting force (a
    plain callable, computing the same values) gives the iteration count.
    That force has no scalar source, so the counting run takes the array
    kernel, which iterates exactly as the timed scalar kernel does."""
    sys_, state0 = system_and_start(oscint, system)
    n = DEFAULT_STEPS
    calls = []

    def counting_force(x):
        calls.append(None)
        return sys_.slow_force(x)

    run_seconds(oscint, dataclasses.replace(sys_, slow_force=counting_force), state0,
                "midpoint-full", n)
    return run_seconds(oscint, sys_, state0, "midpoint-full", n) / (len(calls) - n) * 1e6


def us_per_lattice_step(oscint, ell: int, method: str, path: str) -> float:
    """A run on the ell lattice on the scalar or the array path."""
    lattice = oscint.fpu_build(oscint.FpuParams(ell=ell, omega=50.0))
    state0 = oscint.fpu_initial_state(lattice)
    steppers = oscint.steppers
    max_d = getattr(steppers, "SCALAR_MAX_D", None)
    if path == "array":
        force = lattice.slow_force

        def plain(x):
            return force(x)

        plain.bind = force.bind
        lattice = dataclasses.replace(lattice, slow_force=plain)
    else:
        steppers.SCALAR_MAX_D = 2 * ell
    try:
        return run_seconds(oscint, lattice, state0, method, DEFAULT_STEPS) / DEFAULT_STEPS * 1e6
    finally:
        if max_d is not None:
            steppers.SCALAR_MAX_D = max_d


@cache
def lattice_and_start(oscint, ell: int):
    lattice = oscint.fpu_build(oscint.FpuParams(ell=ell, omega=50.0))
    return lattice, oscint.fpu_initial_state(lattice)


@cache
def excited_start(oscint, ell: int):
    lattice, state0 = lattice_and_start(oscint, ell)
    np = oscint.steppers.np
    dq, dp = EXCITATION * np.random.default_rng(EXCITATION_SEED).standard_normal((2, lattice.d))
    return oscint.State(0.0, state0.q + dq, state0.p + dp)


def wide_lattice_and_start(oscint, start: str):
    """The ell = WIDE_ELL lattice and its canonical or excited start."""
    lattice, state0 = lattice_and_start(oscint, WIDE_ELL)
    return lattice, excited_start(oscint, WIDE_ELL) if start == "excited" else state0


def us_per_wide_step(oscint, method: str, start: str) -> float:
    """A run on the ell = WIDE_ELL lattice from its canonical or excited start."""
    lattice, state0 = wide_lattice_and_start(oscint, start)
    return run_seconds(oscint, lattice, state0, method, WIDE_STEPS) / WIDE_STEPS * 1e6


def us_per_force_call(oscint, start: str) -> float:
    """The ell = WIDE_ELL lattice's slow force, bound as a run binds it, at
    its canonical or excited start."""
    lattice, state0 = wide_lattice_and_start(oscint, start)
    x = state0.q.copy()
    force = lattice.slow_force.bind(x, x.copy())
    begin = time.perf_counter()
    for _ in range(FORCE_CALLS):
        force()
    return (time.perf_counter() - begin) / FORCE_CALLS * 1e6


@cache
def csv_columns(oscint):
    """The columns of lattice-large's IMEX CSV, as cmd_integrate stacks them."""
    lattice, state0 = lattice_and_start(oscint, WIDE_ELL)
    h, t_end, stride = CSV_RUN
    traj = oscint.integrate(lattice, oscint.StepperSpec(method="imex", h=h), state0, t_end,
                            stride=stride)
    return [traj.times, traj.qs, traj.ps, traj.energies, traj.stiff, traj.stiff.sum(axis=1)]


def us_per_csv(oscint) -> float:
    columns = csv_columns(oscint)
    rows = importlib.import_module(oscint.__name__ + ".cli")._rows
    start = time.perf_counter()
    rows(columns)
    return (time.perf_counter() - start) * 1e6


def us_per_bind(oscint, ell: int, method: str, cold: bool) -> float:
    """One bind of the method's kernel to a fresh copy of the ell lattice's
    canonical start; cold clears the steppers module's factory caches."""
    steppers = oscint.steppers
    lattice, state0 = lattice_and_start(oscint, ell)
    _, q, p = steppers._state_buffers(lattice, state0)
    args = (lattice, steppers.Method(method), H, q, p, 10 if method == "respa" else 1)
    if cold:
        for obj in vars(steppers).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    else:
        steppers._kernel(*args)
    start = time.perf_counter()
    steppers._kernel(*args)
    return (time.perf_counter() - start) * 1e6


@cache
def sweep_setup(oscint):
    """The default resonance sweep's 900 matrices, springs and starts, as
    experiments.resonance_sweep builds them."""
    np = oscint.experiments.np
    h = 0.1
    omegas = 0.01 * np.arange(1, 451) * math.pi / h
    spec = partial(oscint.StepperSpec, h=h)
    mats = np.concatenate([oscint.propagation_matrix(spec(method="respa", substeps=100), omegas),
                           oscint.propagation_matrix(spec(method="imex"), omegas)])
    spring = np.concatenate([1.0 + omegas ** 2] * 2)
    return mats, spring, SWEEP_STEPS, 1.0 / np.sqrt(spring), 0.0


def us_per_sweep_step(oscint) -> float:
    args = sweep_setup(oscint)
    start = time.perf_counter()
    oscint.experiments._linear_max_energy_errors(*args)
    return (time.perf_counter() - start) / SWEEP_STEPS * 1e6


def us_per_resonance_sweep_step(oscint) -> float:
    start = time.perf_counter()
    oscint.resonance_sweep()
    # the defaults: h = 0.1, t_end = 1000
    return (time.perf_counter() - start) / 10 ** 4 * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1] / "src"])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    packages = [load(src.resolve(), f"oscint_{i}") for i, src in enumerate(args.src)]
    # (system, label) -> the case's timer, given one package
    cases = {(s, m): partial(us_per_step, system=s, method=m) for s in SYSTEMS for m in METHODS}
    for s in SYSTEMS:
        cases[s, "1-step run"] = partial(us_per_run, system=s)
        cases[s, "midpoint-full/iter"] = partial(us_per_fixed_point_iteration, system=s)
    for run in EXCHANGE_RUNS:
        cases["exchange", run] = partial(us_per_exchange_step, run=run)
    cases["sweep", "900 rows"] = us_per_sweep_step
    cases["sweep", "resonance_sweep()"] = us_per_resonance_sweep_step
    for ell in PATH_ELLS:
        for m in PATH_METHODS:
            for path in ("scalar", "array"):
                cases[f"ell={ell}", f"{m} {path}"] = partial(
                    us_per_lattice_step, ell=ell, method=m, path=path)
    for m in METHODS:
        for start in ("canonical", "excited"):
            cases[f"ell={WIDE_ELL}", f"{m} {start}"] = partial(
                us_per_wide_step, method=m, start=start)
    for start in ("canonical", "excited"):
        cases[f"force ell={WIDE_ELL}", start] = partial(us_per_force_call, start=start)
    cases[f"csv ell={WIDE_ELL}", "2 rows"] = us_per_csv
    for ell in BIND_ELLS:
        for m in METHODS:
            for temperature in ("cold", "warm"):
                cases[f"bind ell={ell}", f"{m} {temperature}"] = partial(
                    us_per_bind, ell=ell, method=m, cold=temperature == "cold")
    times = {(i, c): [] for i in range(len(packages)) for c in cases}
    for r in range(args.repeats):
        for case, timer in cases.items():
            order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
            for i in order:
                times[i, case].append(timer(packages[i]))
    print("system  case".ljust(37) + "".join(f"{str(src):>34}" for src in args.src))
    for s, m in cases:
        cells = []
        for i in range(len(packages)):
            q1, q2, q3 = statistics.quantiles(times[i, (s, m)], n=4)
            cells.append(f"{q2:10.2f} [{q1:.2f}, {q3:.2f}]".rjust(34))
        print(f"{s:<15}{m}".ljust(37) + "".join(cells))
    print("\nrepeats won by the scalar path")
    for ell in PATH_ELLS:
        for m in PATH_METHODS:
            won = [sum(a < b for a, b in zip(times[i, (f"ell={ell}", f"{m} scalar")],
                                             times[i, (f"ell={ell}", f"{m} array")]))
                   for i in range(len(packages))]
            print(f"d={2 * ell:<6}{m}".ljust(28)
                  + "".join(f"{w:>28} of {args.repeats}" for w in won))


if __name__ == "__main__":
    main()
