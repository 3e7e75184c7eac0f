"""Cost of one integrate step per method, in microseconds.

    python3 tools/step_cost.py [SRC ...] [--repeats N]

Each SRC is the src directory of an oscint checkout (default: this one's).
Every checkout is loaded as its own package in this process and the runs
alternate between them, method by method, so a before/after pair shares
the machine's state.  A run is integrate at stride 1e9 (no samples
recorded) at h = 0.01 on two systems: the ell=3 lattice at omega = 50 from
its canonical start, and the convergence study's d=1 model system at
omega = 2 from (q, p) = (1, 0.5); RESPA takes 10 substeps.  The table gives
the median and quartiles over the repeats.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

METHODS = ("sv", "imex", "modified-impulse", "respa", "midpoint-full")
SYSTEMS = ("lattice", "model")
H = 0.01
# midpoint-full iterates its fixed point ~10 times per step
STEPS = {"midpoint-full": 200}
DEFAULT_STEPS = 2000


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


def us_per_step(oscint, system: str, method: str) -> float:
    sys_, state0 = system_and_start(oscint, system)
    spec = oscint.StepperSpec(method=method, h=H, substeps=10 if method == "respa" else 1)
    n = STEPS.get(method, DEFAULT_STEPS)
    start = time.perf_counter()
    # (n - 1/2) h keeps the step count at n whatever the rounding of n h
    oscint.integrate(sys_, spec, state0, (n - 0.5) * H, stride=10 ** 9)
    return (time.perf_counter() - start) / n * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1] / "src"])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    packages = [load(src.resolve(), f"oscint_{i}") for i, src in enumerate(args.src)]
    cases = [(s, m) for s in SYSTEMS for m in METHODS]
    times = {(i, c): [] for i in range(len(packages)) for c in cases}
    for r in range(args.repeats):
        for s, m in cases:
            order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
            for i in order:
                times[i, (s, m)].append(us_per_step(packages[i], s, m))
    print("system  method".ljust(26) + "".join(f"{str(src):>34}" for src in args.src))
    for s, m in cases:
        cells = []
        for i in range(len(packages)):
            q1, q2, q3 = statistics.quantiles(times[i, (s, m)], n=4)
            cells.append(f"{q2:10.1f} [{q1:.1f}, {q3:.1f}]".rjust(34))
        print(f"{s:<8}{m}".ljust(26) + "".join(cells))


if __name__ == "__main__":
    main()
