"""Command-line harness: run integrators and experiments, write CSV.

Exit codes: 0 success, 1 configuration or file errors, 2 blow-up (of the
run, or of fpu-exchange's reference), 3 a requested acceptance check
failed.  Floats are serialized with %.17g (round-trip exact), so identical
configurations give byte-identical files.

A CSV's first # line records the command and the options that shape its
data: integrate system method h t_end stride omega, then ell or q0 p0;
resonance-sweep h t_end substeps grid max; fpu-exchange method h t_end ell
omega stride window; substeps on a RESPA run; then how the run stopped.
--out's directory is checked before any work.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .experiments import ConvergenceRow, convergence_study, fpu_exchange, resonance_sweep
from .steppers import Method, StepperSpec, Trajectory, integrate
from .systems import FpuParams, State, coupled_oscillator_build, fpu_build, fpu_initial_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_CHECK_FAILED = 3

ORDER_RANGE = (1.9, 2.1)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the blow-up code
    def error(self, message):
        raise ValueError(message)


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


def _meta_line(args, keys: tuple[str, ...], /, **more) -> str:
    """The # line: the subcommand, each option in keys (by its dest, t_end
    for --t-end) with its value, then the pairs in more."""
    pairs = {"command": args.command, **{key: getattr(args, key) for key in keys}, **more}
    return "# " + " ".join(f"{key}={_fmt(value)}" for key, value in pairs.items())


def _write_lines(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def _out_path(path: str) -> str:
    """--out's path; raises now, before any work, what writing to a missing directory would."""
    try:
        Path(path).parent.stat()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    return path


def _stop_meta(traj: Trajectory) -> dict:
    """Status, and for a run that stopped early its time and cause; the
    cause is one space-free token, such as state_norm_cap_exceeded."""
    meta = {"status": traj.status}
    if traj.t_blowup is not None:
        meta["t_blowup"] = traj.t_blowup
        meta["blowup_cause"] = "_".join(traj.blowup_cause.split())
    return meta


def _names(prefix: str, n: int) -> str:
    """The column names prefix_1,...,prefix_n, made in one join."""
    return f"{prefix}_" + f",{prefix}_".join(map(str, range(1, n + 1)))


def _stiff_columns(stiff: np.ndarray) -> tuple[str, list[np.ndarray]]:
    """Header and columns of the per-spring energies I_1..I_ell, then of
    their row sum I_total."""
    return _names("I", stiff.shape[1]) + ",I_total", [stiff, stiff.sum(axis=1)]


def cmd_integrate(args) -> int:
    keys = ("system", "method", "h", "t_end", "stride", "omega")
    if args.system == "model":
        sys_ = coupled_oscillator_build(args.omega)
        state0 = State(0.0, [args.q0], [args.p0])
        keys += ("q0", "p0")
    else:
        sys_ = fpu_build(FpuParams(args.ell, args.omega))
        state0 = fpu_initial_state(sys_)
        keys += ("ell",)
    # RESPA is the one method that reads substeps
    respa = ("substeps",) if args.method == "respa" else ()
    spec = StepperSpec(method=args.method, h=args.h, substeps=args.substeps)
    traj = integrate(sys_, spec, state0, args.t_end, stride=args.stride)
    d = traj.qs.shape[1]
    header = ["t", _names("q", d), _names("p", d), "H"]
    columns = [traj.times, traj.qs, traj.ps, traj.energies]
    if traj.stiff is not None:
        names, stiff_columns = _stiff_columns(traj.stiff)
        header.append(names)
        columns += stiff_columns
    meta = _meta_line(args, keys + respa, **_stop_meta(traj))
    _write_lines(args.out, [meta, ",".join(header), *_rows(columns)])
    return EXIT_OK if traj.completed else EXIT_BLOWUP


def cmd_resonance_sweep(args) -> int:
    # resonance_sweep's parameters, in order (sweep_max is --max)
    keys = ("h", "t_end", "substeps", "grid", "max")
    rows = resonance_sweep(*(getattr(args, key) for key in keys))
    table = [(row.omega_h_over_pi, row.omega, row.err_respa, row.err_imex) for row in rows]
    lines = [_meta_line(args, keys), "omega_h_over_pi,omega,err_respa,err_imex", *_rows([table])]
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_fpu_exchange(args) -> int:
    keys = ("method", "h", "t_end", "ell", "omega", "stride", "window")
    result = fpu_exchange(**{key: getattr(args, key) for key in (*keys, "reference_h", "substeps")})
    traj = result.trajectory
    stops = _stop_meta(traj)
    if args.reference_h is not None:
        stops["reference_h"] = args.reference_h
    reference = result.reference
    reference_stopped = reference is not None and not reference.completed
    if reference_stopped:
        stops.update((f"reference_{key}", value) for key, value in _stop_meta(reference).items())
    respa = ("substeps",) if args.method == "respa" else ()
    names, stiff_columns = _stiff_columns(traj.stiff)
    lines = [_meta_line(args, keys + respa, **stops), f"t,{names},H",
             *_rows([traj.times, *stiff_columns, traj.energies])]
    if result.sup_diffs is not None:
        pairs = " ".join(f"I_{j + 1}={_fmt(float(v))}" for j, v in enumerate(result.sup_diffs))
        lines.append(f"# windowed_sup_diff {pairs} window={_fmt(args.window)}")
    _write_lines(args.out, lines)
    return EXIT_OK if traj.completed and not reference_stopped else EXIT_BLOWUP


def cmd_convergence(args) -> int:
    methods = {} if args.method is None else {"methods": (Method(args.method),)}
    rows = convergence_study(h=args.h, t_end=args.t_end, omega=args.omega, **methods)
    in_range = [_print_convergence_row(row) for row in rows]
    return EXIT_OK if all(in_range) else EXIT_CHECK_FAILED


def _print_convergence_row(row: ConvergenceRow) -> bool:
    if row.blew_up:
        print(f"method={row.method.value} status=blowup order=nan")
        return False
    in_range = ORDER_RANGE[0] <= row.order <= ORDER_RANGE[1]
    errs = " ".join(f"err(h={_fmt(h)})={_fmt(e)}" for h, e in zip(row.hs, row.errors))
    print(f"method={row.method.value} order={row.order:.4f} {errs}")
    return in_range


def _options(parser: _Parser, **defaults) -> None:
    """One option per keyword, --t-end for t_end, typed by its default."""
    for name, default in defaults.items():
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: main reuses it for
    every command.  parse_args leaves it as it was, and the cmd_* function
    each subcommand binds by set_defaults is held in it too."""
    parser = _Parser(prog="oscint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [m.value for m in Method]

    p = sub.add_parser("integrate", help="run one trajectory and write samples as CSV")
    p.add_argument("--system", choices=["model", "fpu"], required=True)
    p.add_argument("--method", choices=methods, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", type=_out_path, required=True)
    _options(p, stride=1, omega=50.0, ell=3, substeps=100)
    p.add_argument("--q0", type=float, default=1.0, help="model-system start position")
    p.add_argument("--p0", type=float, default=0.0, help="model-system start momentum")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser(
        "resonance-sweep", help="impulse vs IMEX max energy error across stiff frequencies"
    )
    _options(p, h=0.1, t_end=1000.0, substeps=100, grid=0.01, max=4.5)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_resonance_sweep)

    p = sub.add_parser("fpu-exchange", help="stiff-spring energy exchange on the lattice")
    p.add_argument("--method", choices=methods, default="imex")
    _options(p, h=0.03, t_end=200.0, ell=3, omega=50.0)
    p.add_argument("--reference-h", type=float, default=None)
    _options(p, stride=1, window=1.0, substeps=100)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_fpu_exchange)

    p = sub.add_parser("convergence", help="measured order against the closed-form model solution")
    _options(p, h=0.1, t_end=10.0, omega=2.0)
    p.add_argument("--method", choices=methods, default=None)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"oscint: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())
