"""Seeded workload definitions: the CLI commands each workload runs, the
trajectory steps those commands advance, and the checks on their output.

A workload is built from its name, the seed and a scratch directory.  The
seed alone picks the one input that varies (omega or h); everything else is
fixed here, so the same seed always gives the same commands.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# exchange-small: ell=3 lattice, IMEX at h=0.03 recorded every step, plus the
# fine Stormer-Verlet reference at h=0.001 (stride 10, set by the program).
EXCHANGE_T_END = 30.0
EXCHANGE_H = 0.03
EXCHANGE_REF_H = 0.001
# max |H - H0| of the IMEX run measures ~1.65e-3 over t=10 and ~1.9e-3 over
# t=50 at omega = 45, 50 and 55; the check allows about 1.5x the latter.
EXCHANGE_MAX_DH = 3e-3

# lattice-large: ell=1000 (d=2000), IMEX and modified impulse from the same
# start.  They are one map computed by independent code paths, so their end
# states agree at roundoff (measured ~1e-14).
LATTICE_ELL = 1000
LATTICE_H = 0.03
LATTICE_T_END = 2.0
LATTICE_END_ROW_TOL = 1e-10

# model-sweep: resonance-sweep and convergence at their CLI defaults, except
# the sweep's h, which the seed draws.  These mirror the parser defaults.
SWEEP_T_END = 1000.0
SWEEP_GRID = 0.01
SWEEP_MAX = 4.5
# acceptance a04: impulse spikes at omega*h/pi = 1 and 2 against the half-way
# points, and a flat IMEX error curve
SWEEP_SPIKE_MIN = 1e3
SWEEP_FLATNESS_MAX = 10.0
CONVERGENCE_H = 0.1
CONVERGENCE_T_END = 10.0
CONVERGENCE_LEVELS = 4
CONVERGENCE_METHODS = 3

OMEGA_RANGE = (45.0, 55.0)
SWEEP_H_RANGE = (0.095, 0.105)


def n_steps(t_end: float, h: float) -> int:
    """Step count of one run, computed the way the integrator computes it."""
    return math.ceil(t_end / h)


@dataclass
class Command:
    """One CLI invocation and the check of what it produced.

    check(stdout) returns a list of problems; empty means correct.  A check
    that raises counts as failed too.
    """

    label: str
    argv: list[str]
    out: Path | None
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    name: str
    inputs: dict
    commands: list[Command]
    # trajectory steps advanced by one pass over the commands; batched sweep
    # rows count once per row-step
    steps: int
    # largest system dimension the pass builds, for computed kernel counts
    d: int
    # row-steps advanced by resonance_sweep's batched 2x2 iteration
    sweep_row_steps: int = 0


def read_csv(path: Path) -> tuple[list[str], list[str], list[list[float]]]:
    """Comment lines, header and numeric rows of a CLI CSV file."""
    comments, header, rows = [], [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif not header:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


def meta(comments: list[str]) -> dict[str, str]:
    """Key=value pairs of the first CSV comment line."""
    return dict(item.split("=", 1) for item in comments[0][2:].split() if "=" in item)


def _exchange(seed: int, workdir: Path) -> Workload:
    omega = random.Random(seed).uniform(*OMEGA_RANGE)
    out = workdir / "exchange.csv"
    n_imex = n_steps(EXCHANGE_T_END, EXCHANGE_H)
    n_ref = n_steps(EXCHANGE_T_END, EXCHANGE_REF_H)

    def check(_stdout: str) -> list[str]:
        comments, header, rows = read_csv(out)
        problems = []
        if meta(comments).get("status") != "completed":
            problems.append(f"status is {meta(comments).get('status')!r}")
        if len(rows) != n_imex + 1:
            problems.append(f"{len(rows)} rows, expected {n_imex + 1}")
        energies = [row[header.index("H")] for row in rows]
        max_dh = max(abs(e - energies[0]) for e in energies)
        if not max_dh <= EXCHANGE_MAX_DH:
            problems.append(f"max |H - H0| = {max_dh!r} exceeds {EXCHANGE_MAX_DH}")
        sup = [c for c in comments if c.startswith("# windowed_sup_diff ")]
        if len(sup) != 1:
            problems.append("no windowed_sup_diff line")
        else:
            values = [float(kv.split("=", 1)[1]) for kv in sup[0].split()[2:]]
            if not values or not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite windowed_sup_diff: {sup[0]!r}")
        return problems

    argv = [
        "fpu-exchange", "--method", "imex", "--h", repr(EXCHANGE_H),
        "--t-end", repr(EXCHANGE_T_END), "--ell", "3", "--omega", repr(omega),
        "--reference-h", repr(EXCHANGE_REF_H), "--stride", "1", "--out", str(out),
    ]
    return Workload(
        name="exchange-small",
        inputs={"omega": omega, "t_end": EXCHANGE_T_END, "h": EXCHANGE_H,
                "reference_h": EXCHANGE_REF_H, "ell": 3},
        commands=[Command("fpu-exchange", argv, out, check)],
        steps=n_imex + n_ref,
        d=6,
    )


def _lattice(seed: int, workdir: Path) -> Workload:
    omega = random.Random(seed).uniform(*OMEGA_RANGE)
    n = n_steps(LATTICE_T_END, LATTICE_H)
    outs = {m: workdir / f"lattice-{m}.csv" for m in ("imex", "modified-impulse")}

    def end_row(path: Path) -> list[str]:
        comments, _, rows = read_csv(path)
        problems = []
        if meta(comments).get("status") != "completed":
            problems.append(f"{path.name}: status is {meta(comments).get('status')!r}")
        if len(rows) != 2:
            problems.append(f"{path.name}: {len(rows)} rows, expected start and end only")
        return problems

    def check_imex(_stdout: str) -> list[str]:
        return end_row(outs["imex"])

    def check_mi(_stdout: str) -> list[str]:
        problems = end_row(outs["modified-impulse"])
        if problems:
            return problems
        a = read_csv(outs["imex"])[2][-1]
        b = read_csv(outs["modified-impulse"])[2][-1]
        diff = max(abs(x - y) for x, y in zip(a, b))
        if len(a) != len(b) or not diff <= LATTICE_END_ROW_TOL:
            problems.append(f"IMEX and modified-impulse end rows differ by {diff!r}")
        return problems

    commands = []
    for method, check in (("imex", check_imex), ("modified-impulse", check_mi)):
        argv = [
            "integrate", "--system", "fpu", "--ell", str(LATTICE_ELL), "--method", method,
            "--h", repr(LATTICE_H), "--t-end", repr(LATTICE_T_END), "--stride", str(n),
            "--omega", repr(omega), "--out", str(outs[method]),
        ]
        commands.append(Command(f"integrate-{method}", argv, outs[method], check))
    return Workload(
        name="lattice-large",
        inputs={"omega": omega, "t_end": LATTICE_T_END, "h": LATTICE_H, "ell": LATTICE_ELL},
        commands=commands,
        steps=2 * n,
        d=2 * LATTICE_ELL,
    )


def _sweep(seed: int, workdir: Path) -> Workload:
    h = random.Random(seed).uniform(*SWEEP_H_RANGE)
    out = workdir / "sweep.csv"
    n_rows = int(math.floor(SWEEP_MAX / SWEEP_GRID + 1e-9))

    def row_at(rows: list[list[float]], r: float) -> list[float]:
        return rows[round(r / SWEEP_GRID) - 1]

    def check_sweep(_stdout: str) -> list[str]:
        _, header, rows = read_csv(out)
        if len(rows) != n_rows:
            return [f"{len(rows)} sweep rows, expected {n_rows}"]
        respa, imex = header.index("err_respa"), header.index("err_imex")
        problems = []
        for r_spike, r_mid in ((1.0, 0.5), (2.0, 1.5)):
            ratio = row_at(rows, r_spike)[respa] / row_at(rows, r_mid)[respa]
            if not ratio >= SWEEP_SPIKE_MIN:
                problems.append(f"impulse spike ratio at {r_spike} is {ratio!r}")
        errs = [row[imex] for row in rows]
        flatness = max(errs) / min(errs)
        if not flatness < SWEEP_FLATNESS_MAX:
            problems.append(f"IMEX max/min error {flatness!r}")
        return problems

    def check_convergence(stdout: str) -> list[str]:
        lines = [line for line in stdout.splitlines() if line.startswith("method=")]
        if len(lines) != CONVERGENCE_METHODS:
            return [f"{len(lines)} convergence rows, expected {CONVERGENCE_METHODS}"]
        return []

    sweep_argv = ["resonance-sweep", "--h", repr(h), "--out", str(out)]
    conv_steps = CONVERGENCE_METHODS * sum(
        n_steps(CONVERGENCE_T_END, CONVERGENCE_H / 2 ** k) for k in range(CONVERGENCE_LEVELS)
    )
    row_steps = 2 * n_rows * n_steps(SWEEP_T_END, h)
    return Workload(
        name="model-sweep",
        inputs={"sweep_h": h, "sweep_rows": n_rows, "sweep_t_end": SWEEP_T_END},
        commands=[
            Command("resonance-sweep", sweep_argv, out, check_sweep),
            Command("convergence", ["convergence"], None, check_convergence),
        ],
        steps=row_steps + conv_steps,
        d=1,
        sweep_row_steps=row_steps,
    )


WORKLOADS = {"exchange-small": _exchange, "lattice-large": _lattice, "model-sweep": _sweep}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
