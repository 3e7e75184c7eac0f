"""Cost of one integrate step per method, in microseconds.

    python3 tools/step_cost.py [SRC ...] [--repeats N]

Each SRC is the src directory of an oscint checkout (default: this one's).
Every checkout is loaded as its own package in this process and the runs
alternate between them, case by case, so a before/after pair shares the
machine's state.  A method case is integrate at stride 1e9 (no samples
recorded) at h = 0.01 on two systems: the ell=3 lattice at omega = 50 from
its canonical start, and the convergence study's d=1 model system at
omega = 2 from (q, p) = (1, 0.5); RESPA takes 10 substeps.  The model
rows time the Python-float kernels that one-axis runs take (see
oscint.steppers), the lattice rows the array kernels.  On each system,
midpoint-full/iter is the midpoint-full run's time per fixed-point
iteration, the iterations counted in an untimed run, so that a change in
the cost of one iteration reads apart from a change in their number.  Two
more cases time the model-sweep commands and the loops inside them:
  - sweep 900 rows: the resonance sweep's matrix loop per step, in one
    process, on the 900 rows (RESPA and IMEX at 450 frequencies) of the
    CLI defaults;
  - sweep resonance_sweep(): the whole sweep at the CLI defaults per step
    of its 10^4, end to end: its matrices, and the loop in two processes
    where the sweep forks one (see oscint.experiments).
The table gives the median and quartiles over the repeats.
"""
from __future__ import annotations

import argparse
import dataclasses
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
# midpoint-full iterates its fixed point ~10 times per step
STEPS = {"midpoint-full": 200}
DEFAULT_STEPS = 2000
SWEEP_STEPS = 2000


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


def run_seconds(oscint, sys_, state0, method: str, n: int) -> float:
    """Wall time of an n-step integrate run."""
    spec = oscint.StepperSpec(method=method, h=H, substeps=10 if method == "respa" else 1)
    start = time.perf_counter()
    # (n - 1/2) h keeps the step count at n whatever the rounding of n h
    oscint.integrate(sys_, spec, state0, (n - 0.5) * H, stride=10 ** 9)
    return time.perf_counter() - start


def us_per_step(oscint, system: str, method: str) -> float:
    sys_, state0 = system_and_start(oscint, system)
    n = STEPS.get(method, DEFAULT_STEPS)
    return run_seconds(oscint, sys_, state0, method, n) / n * 1e6


def us_per_fixed_point_iteration(oscint, system: str) -> float:
    """midpoint-full on the system, per fixed-point iteration.

    A step evaluates the slow force once per iteration and once more at
    the converged midpoint, so an untimed run with a counting force (a
    plain callable, computing the same values) gives the iteration count.
    That force has no float form, so on the model system the counting run
    takes the array kernel, which iterates exactly as the timed float
    kernel does."""
    sys_, state0 = system_and_start(oscint, system)
    n = STEPS["midpoint-full"]
    calls = []

    def counting_force(x):
        calls.append(None)
        return sys_.slow_force(x)

    run_seconds(oscint, dataclasses.replace(sys_, slow_force=counting_force), state0,
                "midpoint-full", n)
    return run_seconds(oscint, sys_, state0, "midpoint-full", n) / (len(calls) - n) * 1e6


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
        cases[s, "midpoint-full/iter"] = partial(us_per_fixed_point_iteration, system=s)
    cases["sweep", "900 rows"] = us_per_sweep_step
    cases["sweep", "resonance_sweep()"] = us_per_resonance_sweep_step
    times = {(i, c): [] for i in range(len(packages)) for c in cases}
    for r in range(args.repeats):
        for case, timer in cases.items():
            order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
            for i in order:
                times[i, case].append(timer(packages[i]))
    print("system  case".ljust(28) + "".join(f"{str(src):>34}" for src in args.src))
    for s, m in cases:
        cells = []
        for i in range(len(packages)):
            q1, q2, q3 = statistics.quantiles(times[i, (s, m)], n=4)
            cells.append(f"{q2:10.2f} [{q1:.2f}, {q3:.2f}]".rjust(34))
        print(f"{s:<8}{m}".ljust(28) + "".join(cells))


if __name__ == "__main__":
    main()
