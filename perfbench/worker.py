"""One workload process: one pass over a workload's CLI commands, timed.

Started by run.py with oscint importable.  Imports oscint.cli (start-up is
run.py's setup_s), then runs each of the workload's commands through
oscint.cli.main and checks its output.  Each pass is a fresh process, so
the costs a user pays on every invocation, such as first-touch page faults
on fresh arrays, are in the time.  With --trace 1 the callables listed in
tracer.py are wrapped first and per-layer figures are derived from the
spans.

Writes one JSON document to --result.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads


def run_command(cli, command) -> tuple[float, list[str], int]:
    """(seconds, problems, csv bytes) of one CLI invocation and its check."""
    if command.out is not None and command.out.exists():
        command.out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(command.argv)
    except Exception:  # a crash is a failed command, recorded with its cause
        elapsed = time.perf_counter() - start
        return elapsed, [f"{command.label}: raised {traceback.format_exc(limit=3)}"], 0
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"{command.label}: exit {code}: {stderr.getvalue().strip()[:300]}"], 0
    try:
        problems = [f"{command.label}: {p}" for p in command.check(stdout.getvalue())]
    except Exception:  # a check that cannot read the output fails the command
        problems = [f"{command.label}: check raised {traceback.format_exc(limit=3)}"]
    size = command.out.stat().st_size if command.out is not None and command.out.exists() else 0
    return elapsed, problems, size


def run_pass(cli, workload, on_command=None) -> dict:
    """One pass over the workload's commands: times, failures, CSV bytes."""
    total, csv_bytes, failed, problems = 0.0, 0, 0, []
    for command in workload.commands:
        if on_command is not None:
            on_command(command)
        elapsed, errors, size = run_command(cli, command)
        total += elapsed
        csv_bytes += size
        failed += bool(errors)
        problems += errors
    return {"pass_s": total, "attempted": len(workload.commands), "failed": failed,
            "problems": problems, "csv_bytes": csv_bytes}


def blas_info() -> list[dict]:
    """Each loaded OpenBLAS: file, build configuration and thread count."""
    seen, out = set(), []
    with open("/proc/self/maps") as maps:
        paths = [line.split()[-1] for line in maps if "openblas" in line.lower()]
    for path in paths:
        if path in seen or not path.startswith("/"):
            continue
        seen.add(path)
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
    }


def stress_checks(workload, spans, names, command_spans, layers) -> dict:
    """Does the trace show the layers this workload is meant to stress?

    command_spans maps each command's label to its [first, last) span range.
    """
    _, self_t = tracer.span_times(spans)

    def module(total, prefix):
        return sum(t for name, t in total.items() if name.startswith(prefix + "."))

    if workload.name == "lattice-large":
        imex = tracer.self_by_name(spans, self_t, names, *command_spans["integrate-imex"])
        share = (module(imex, "linalg") + imex.get("steppers.step_midpoint_fast", 0.0)) \
            / sum(imex.values())
        imex_us = layers["steppers.step_imex.us_per_call"]
        mi_us = layers["steppers.step_modified_impulse.us_per_call"]
        return {
            "imex_cmd_linalg_plus_fast_share": share,
            "imex_over_mi_us_per_call": imex_us / mi_us if mi_us else None,
            "holds": share > 0.5 and mi_us > 0 and imex_us >= 20 * mi_us,
        }
    total = tracer.self_by_name(spans, self_t, names, 0, len(self_t))
    if workload.name == "exchange-small":
        lhs = module(total, "systems") + total.get("steppers.integrate", 0.0)
        rhs = module(total, "linalg")
        return {"systems_plus_integrate_self_s": lhs, "linalg_self_s": rhs, "holds": lhs > rhs}
    leaders = sorted(total, key=total.get, reverse=True)[:2]
    return {"top_self_time": leaders,
            "holds": set(leaders) == {"steppers.step_respa", "experiments.resonance_sweep"}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    import oscint.cli as cli

    workload = workloads.build(args.workload, args.seed, args.workdir)
    if not args.trace:
        result = run_pass(cli, workload)
        result.update(steps=workload.steps, inputs=workload.inputs)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["environment"] = environment()
        args.result.write_text(json.dumps(result))
        return 0

    spans_store = tracer.Tracer()
    tracer.install(spans_store)
    firsts: list[tuple[str, int]] = []
    result = run_pass(cli, workload,
                      on_command=lambda c: firsts.append((c.label, spans_store.span_count())))
    lasts = [first for _, first in firsts[1:]] + [spans_store.span_count()]
    command_spans = {label: (first, last) for (label, first), last in zip(firsts, lasts)}
    spans = spans_store.arrays()
    names = spans_store.names
    layers = tracer.layer_metrics(spans, names, workload, result["csv_bytes"],
                                  spans_store.blowups, spans_store.omega2_bytes)
    dur, _ = tracer.span_times(spans)
    layers["unattributed_s"] = result["pass_s"] - float(dur[spans["parent"] < 0].sum())
    result.update(layers=layers, spans=len(dur),
                  stress=stress_checks(workload, spans, names, command_spans, layers))
    spans_store.save(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
