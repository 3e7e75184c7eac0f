"""Command-line harness: run integrators and experiments, write CSV.

Exit codes: 0 success, 1 configuration or file errors, 2 blow-up, 3 a
requested acceptance check failed.  Floats are serialized with %.17g
(round-trip exact), so identical configurations give byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    ConvergenceRow,
    convergence_study,
    fpu_exchange,
    resonance_sweep,
)
from .steppers import Method, StepperSpec, Trajectory, integrate
from .systems import FpuParams, State, coupled_oscillator_build, fpu_build, fpu_initial_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_CHECK_FAILED = 3

ORDER_RANGE = (1.9, 2.1)


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the blow-up code
    def error(self, message):
        raise _ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _rows(columns: list) -> list[str]:
    """CSV rows of float columns (vectors or 2-D blocks of equal length):
    the columns are stacked into one block and each row is formatted by
    one %-format string, whose %.17g matches _fmt's format(x, ".17g").
    Rows are converted to Python floats one at a time; converting the
    whole block at once raised the exchange run's peak RSS by ~0.25 MB."""
    block = np.column_stack(columns)
    row_format = ",".join(["%.17g"] * block.shape[1])
    return [row_format % tuple(row.tolist()) for row in block]


def _meta_line(pairs: dict) -> str:
    return "# " + " ".join(f"{key}={_fmt(value)}" for key, value in pairs.items())


def _write_lines(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def _stop_meta(traj: Trajectory) -> dict:
    """Status, and for a run that stopped early its time and cause; the
    cause is one space-free token, such as state_norm_cap_exceeded."""
    meta = {"status": traj.status}
    if traj.t_blowup is not None:
        meta["t_blowup"] = traj.t_blowup
        meta["blowup_cause"] = "_".join(traj.blowup_cause.split())
    return meta


def _trajectory_lines(traj: Trajectory, meta: dict) -> list[str]:
    meta = {**meta, **_stop_meta(traj)}
    d = traj.qs.shape[1]
    header = ["t"] + [f"q_{i}" for i in range(1, d + 1)] + [f"p_{i}" for i in range(1, d + 1)]
    header.append("H")
    if traj.stiff is not None:
        ell = traj.stiff.shape[1] - 1
        header += [f"I_{j}" for j in range(1, ell + 1)] + ["I_total"]
    columns = [traj.times, traj.qs, traj.ps, traj.energies]
    if traj.stiff is not None:
        columns.append(traj.stiff)
    return [_meta_line(meta), ",".join(header), *_rows(columns)]


def _build_system(args):
    if args.system == "model":
        return coupled_oscillator_build(args.omega)
    return fpu_build(FpuParams(args.ell, args.omega))


def cmd_integrate(args) -> int:
    sys_ = _build_system(args)
    if args.system == "model":
        state0 = State(0.0, [args.q0], [args.p0])
    else:
        state0 = fpu_initial_state(sys_)
    spec = StepperSpec(
        method=Method(args.method), h=args.h, substeps=args.substeps
    )
    traj = integrate(sys_, spec, state0, args.t_end, stride=args.stride)
    meta = {
        "command": "integrate",
        "system": args.system,
        "method": args.method,
        "h": args.h,
        "t_end": args.t_end,
        "stride": args.stride,
        "omega": args.omega,
    }
    if args.system == "fpu":
        meta["ell"] = args.ell
    _write_lines(args.out, _trajectory_lines(traj, meta))
    return EXIT_OK if traj.completed else EXIT_BLOWUP


def cmd_resonance_sweep(args) -> int:
    rows = resonance_sweep(
        h=args.h,
        t_end=args.t_end,
        substeps=args.substeps,
        grid=args.grid,
        sweep_max=args.max,
    )
    meta = {
        "command": "resonance-sweep",
        "h": args.h,
        "t_end": args.t_end,
        "substeps": args.substeps,
        "grid": args.grid,
        "max": args.max,
    }
    table = [(row.omega_h_over_pi, row.omega, row.err_respa, row.err_imex) for row in rows]
    lines = [_meta_line(meta), "omega_h_over_pi,omega,err_respa,err_imex", *_rows([table])]
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_fpu_exchange(args) -> int:
    result = fpu_exchange(
        method=Method(args.method),
        h=args.h,
        t_end=args.t_end,
        ell=args.ell,
        omega=args.omega,
        reference_h=args.reference_h,
        stride=args.stride,
        window=args.window,
        substeps=args.substeps,
    )
    traj = result.trajectory
    meta = {
        "command": "fpu-exchange",
        "method": args.method,
        "h": args.h,
        "t_end": args.t_end,
        "ell": args.ell,
        "omega": args.omega,
        "stride": args.stride,
        "window": args.window,
        **_stop_meta(traj),
    }
    if args.reference_h is not None:
        meta["reference_h"] = args.reference_h
    ell = traj.stiff.shape[1] - 1
    header = ["t"] + [f"I_{j}" for j in range(1, ell + 1)] + ["I_total", "H"]
    lines = [_meta_line(meta), ",".join(header), *_rows([traj.times, traj.stiff, traj.energies])]
    if result.sup_diffs is not None:
        pairs = " ".join(f"I_{j + 1}={_fmt(float(v))}" for j, v in enumerate(result.sup_diffs))
        lines.append(f"# windowed_sup_diff {pairs} window={_fmt(args.window)}")
    _write_lines(args.out, lines)
    return EXIT_OK if traj.completed else EXIT_BLOWUP


def cmd_convergence(args) -> int:
    if args.method is None:
        methods = (Method.SV, Method.IMEX, Method.MIDPOINT_FULL)
    else:
        methods = (Method(args.method),)
    rows = convergence_study(methods=methods, h=args.h, t_end=args.t_end, omega=args.omega)
    ok = True
    for row in rows:
        ok &= _print_convergence_row(row)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _print_convergence_row(row: ConvergenceRow) -> bool:
    if row.blew_up:
        print(f"method={row.method.value} status=blowup order=nan")
        return False
    in_range = ORDER_RANGE[0] <= row.order <= ORDER_RANGE[1]
    errs = " ".join(f"err(h={_fmt(h)})={_fmt(e)}" for h, e in zip(row.hs, row.errors))
    print(f"method={row.method.value} order={row.order:.4f} {errs}")
    return in_range


def _build_parser() -> _Parser:
    parser = _Parser(prog="oscint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [m.value for m in Method]

    p = sub.add_parser("integrate", help="run one trajectory and write samples as CSV")
    p.add_argument("--system", choices=["model", "fpu"], required=True)
    p.add_argument("--method", choices=methods, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--omega", type=float, default=50.0)
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--substeps", type=int, default=100)
    p.add_argument("--q0", type=float, default=1.0, help="model-system start position")
    p.add_argument("--p0", type=float, default=0.0, help="model-system start momentum")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser(
        "resonance-sweep", help="impulse vs IMEX max energy error across stiff frequencies"
    )
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=1000.0)
    p.add_argument("--substeps", type=int, default=100)
    p.add_argument("--grid", type=float, default=0.01)
    p.add_argument("--max", type=float, default=4.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resonance_sweep)

    p = sub.add_parser("fpu-exchange", help="stiff-spring energy exchange on the lattice")
    p.add_argument("--method", choices=methods, default="imex")
    p.add_argument("--h", type=float, default=0.03)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--omega", type=float, default=50.0)
    p.add_argument("--reference-h", type=float, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--window", type=float, default=1.0)
    p.add_argument("--substeps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fpu_exchange)

    p = sub.add_parser("convergence", help="measured order against the closed-form model solution")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--omega", type=float, default=2.0)
    p.add_argument("--method", choices=methods, default=None)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"oscint: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())
