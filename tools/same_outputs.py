"""Whether two oscint checkouts give the same outputs, byte for byte.

    python3 tools/same_outputs.py PARENT_SRC SRC

PARENT_SRC and SRC are the src directories of two oscint checkouts.  Each
command below runs once against each tree, as `python -m oscint ...` in a
fresh process whose working directory is a fresh empty directory, so
every path the command prints or writes is the same relative one.  A
command's outputs are its exit code, stdout, stderr and the bytes of every
file it leaves in that directory (its CSV).  One line per command says
"same" or names what differs, a CSV that differs only in its # lines as
"file out.csv (# lines only)", so a change to the metadata alone shows as
such.  Then, per tree, one fresh process records the source of every
kernel oscint.steppers generates (its compile replaced by a recorder) as
the public step_midpoint_fast, step_imex, step_stormer_verlet, step_respa,
step_modified_impulse and step_midpoint_full each take one step, the
steppers' caches cleared before each, on three systems: the d=1 model
and the ell=3 lattice (float kernels) and the ell=1000 lattice (array
kernels).  One line per step and system says whether the 18 sources are
the same.  The exit status is 1 if anything differs.

The commands fix every argument, and between them run every method's
kernel in both dialects, floats (d <= 16) and arrays: fpu-exchange at its
defaults and at the exchange-small benchmark's arguments (omega 47.3),
IMEX and modified impulse on the ell=1000 lattice at the lattice-large
benchmark's h and stride, short Stormer-Verlet and midpoint-full runs on
it, resonance-sweep and convergence at their defaults, RESPA on the
ell=1000 and ell=3 lattices, midpoint-full and modified impulse on the
ell=3 lattice, three runs that blow up (midpoint-full's NoConvergence and
Stormer-Verlet on the model, IMEX at h = 0.6 on the lattice), a short
RESPA fpu-exchange at 7 substeps and an IMEX model run from (q0, p0) =
(0.5, 0.25), options that the CSV's # line records.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LATTICE_LARGE = ["--system", "fpu", "--ell", "1000", "--h", "0.03", "--t-end", "2.0",
                 "--stride", "67"]
COMMANDS = {
    "fpu-exchange defaults": ["fpu-exchange", "--out", "out.csv"],
    "fpu-exchange exchange-small": [
        "fpu-exchange", "--method", "imex", "--h", "0.03", "--t-end", "30.0", "--ell", "3",
        "--omega", "47.3", "--reference-h", "0.001", "--stride", "1", "--out", "out.csv"],
    "integrate imex ell=1000": ["integrate", "--method", "imex", *LATTICE_LARGE,
                                "--out", "out.csv"],
    "integrate modified-impulse ell=1000": ["integrate", "--method", "modified-impulse",
                                            *LATTICE_LARGE, "--out", "out.csv"],
    "integrate sv ell=1000": ["integrate", "--system", "fpu", "--ell", "1000", "--method", "sv",
                              "--h", "0.01", "--t-end", "0.2", "--out", "out.csv"],
    "integrate midpoint-full ell=1000": [
        "integrate", "--system", "fpu", "--ell", "1000", "--method", "midpoint-full", "--h",
        "0.01", "--t-end", "0.2", "--out", "out.csv"],
    "resonance-sweep defaults": ["resonance-sweep", "--out", "out.csv"],
    "convergence defaults": ["convergence"],
    "integrate respa ell=1000": ["integrate", "--method", "respa", "--substeps", "5",
                                 *LATTICE_LARGE, "--out", "out.csv"],
    "integrate respa ell=3": [
        "integrate", "--system", "fpu", "--method", "respa", "--substeps", "10", "--h", "0.01",
        "--t-end", "10.0", "--stride", "13", "--out", "out.csv"],
    "integrate midpoint-full ell=3": [
        "integrate", "--system", "fpu", "--method", "midpoint-full", "--h", "0.01",
        "--t-end", "2.0", "--stride", "1", "--out", "out.csv"],
    "integrate modified-impulse ell=3": [
        "integrate", "--system", "fpu", "--ell", "3", "--method", "modified-impulse", "--h",
        "0.01", "--t-end", "10.0", "--stride", "13", "--out", "out.csv"],
    "integrate midpoint-full model no-convergence": [
        "integrate", "--system", "model", "--method", "midpoint-full", "--h", "0.05",
        "--omega", "50.0", "--t-end", "10.0", "--stride", "7", "--out", "out.csv"],
    "integrate sv model blow-up": [
        "integrate", "--system", "model", "--method", "sv", "--h", "3.0", "--t-end", "30.0",
        "--stride", "4", "--out", "out.csv"],
    "integrate imex ell=3 blow-up": [
        "integrate", "--system", "fpu", "--method", "imex", "--h", "0.6", "--t-end", "10.0",
        "--stride", "3", "--out", "out.csv"],
    "fpu-exchange respa substeps=7": [
        "fpu-exchange", "--method", "respa", "--substeps", "7", "--h", "0.1", "--t-end", "5.0",
        "--out", "out.csv"],
    "integrate imex model q0 p0": [
        "integrate", "--system", "model", "--method", "imex", "--h", "0.1", "--t-end", "10.0",
        "--q0", "0.5", "--p0", "0.25", "--out", "out.csv"],
}


def outputs(src: Path, argv: list[str]) -> dict[str, object]:
    """The exit code, stdout, stderr and written files of one command run
    against the tree src, in a fresh process and a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run([sys.executable, "-m", "oscint", *argv], cwd=work, env=env,
                             capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(Path(work).iterdir())}
    return {"exit code": run.returncode, "stdout": run.stdout, "stderr": run.stderr,
            **{f"file {name}": data for name, data in files.items()}}


def body(data: bytes) -> list[bytes]:
    """A file's lines but its # lines."""
    return [line for line in data.splitlines() if not line.startswith(b"#")]


def marked(key: str, want: dict[str, object], got: dict[str, object]) -> str:
    """key, marked when it names a file both runs wrote that differs only
    in its # lines."""
    if key.startswith("file ") and key in want and key in got and body(want[key]) == body(got[key]):
        return f"{key} (# lines only)"
    return key


# Run in a fresh process against one tree: prints, as JSON, the kernel
# sources each public step compiles, keyed "<step> <system>".
KERNEL_SOURCES = """
import json, sys
from oscint import steppers
from oscint.systems import FpuParams, State, coupled_oscillator_build, fpu_build, fpu_initial_state

recorded = []


def recorder(source, filename, *args, **kwargs):
    if " kernel" in filename:
        recorded.append(source)
    return compile(source, filename, *args, **kwargs)


steppers.compile = recorder
lattices = {ell: fpu_build(FpuParams(ell, 50.0)) for ell in (3, 1000)}
systems = {"d=1 model": (coupled_oscillator_build(2.0), State(0.0, [1.0], [0.5])),
           **{f"ell={ell} lattice": (lattice, fpu_initial_state(lattice))
              for ell, lattice in lattices.items()}}
steps = {name: getattr(steppers, name) for name in (
    "step_midpoint_fast", "step_imex", "step_stormer_verlet", "step_modified_impulse",
    "step_midpoint_full")}
steps["step_respa"] = lambda sys_, state, h: steppers.step_respa(sys_, state, h, 10)
sources = {}
for system, (sys_, state) in systems.items():
    for name, step in steps.items():
        for obj in vars(steppers).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        recorded.clear()
        step(sys_, state, 0.01)
        sources[f"{name} {system}"] = list(recorded)
json.dump(sources, sys.stdout)
"""


def kernel_sources(src: Path) -> dict[str, list[str]]:
    """The kernel sources each public step compiles against the tree src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", KERNEL_SOURCES], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("src", type=Path)
    args = parser.parse_args()
    differ = False
    for label, argv in COMMANDS.items():
        want, got = (outputs(src.resolve(), argv) for src in (args.parent_src, args.src))
        diffs = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        differ |= bool(diffs)
        verdict = f"differ: {', '.join(marked(k, want, got) for k in diffs)}" if diffs else "same"
        print(f"{label:<46} exit {want['exit code']}  {verdict}", flush=True)
    want, got = (kernel_sources(src.resolve()) for src in (args.parent_src, args.src))
    for key in {**want, **got}:
        same = bool(want.get(key)) and want.get(key) == got.get(key)
        differ |= not same
        print(f"source {key:<39} {'same' if same else 'differ'}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
