"""oscint benchmark: run one seeded workload through the CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  oscint is imported from ./src, so nothing is
installed or built.  The run measures:

- run_s, steps_per_s, peak_rss_mb: medians over fresh workload processes
  (worker.py), each running the workload's CLI commands once, started one
  after another for S seconds;
- setup_s: the median wall time of fresh `python -c "import oscint.cli"`
  processes, one before each workload process, after one untimed warm-up
  that fills the bytecode cache;

and checks every command's output.  With --trace 1 every other workload
process is traced, and the run reports per-layer metrics instead (see
NOTES.md).  The full record, with the environment, the seed, sample counts
and tail percentiles, goes to perfbench/results/; the last line on stdout
is the summary JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
IMPORTTIME_SAMPLES = 5
# One BLAS thread: on the two-CPU machine this was sized on, a second thread
# made lattice-large's pass times faster but much less steady.
BLAS_THREADS = "1"
# one pass of any workload takes a few seconds; a hung pass must not hold
# the run past its limit
WORKER_TIMEOUT_S = 60
# first failure messages kept in the record; the failure count is complete
MAX_PROBLEMS = 20
IMPORT = "import oscint.cli"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def import_s(env: dict, root: Path) -> float:
    """Wall seconds of a fresh interpreter importing the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=root, check=True)
    return time.perf_counter() - start


def outermost_cumulative_s(report: str, prefix: str) -> float:
    """Sum of `-X importtime` cumulative times of modules named prefix or
    prefix.*, counting only those not imported under another such module."""
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total, stack = 0, []
    # the report lists children before their parent; reversed, parents come first
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name == prefix or name.startswith(prefix + ".")
        if ours and not any(inside for _, inside in stack):
            total += cumulative
        stack.append((depth, ours))
    return total / 1e6


def import_layers(env: dict, root: Path) -> dict:
    oscint_s, scipy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        report = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], env=env,
                                cwd=root, check=True, capture_output=True, text=True).stderr
        oscint_s.append(outermost_cumulative_s(report, "oscint"))
        scipy_s.append(outermost_cumulative_s(report, "scipy"))
    return {"oscint.import_s": statistics.median(oscint_s),
            "oscint.import_scipy_s": statistics.median(scipy_s)}


def source_id(root: Path) -> dict:
    """The commit when the checkout is a git repository, and always a hash
    of the package sources, so results name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"percentile": 100.0 * (k + 1) / len(ordered), "value": ordered[k]}


def timing(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples), "tail": tail(samples),
            "samples": samples}


def run_passes(args, env: dict, root: Path, workdir: Path, spans_path: Path):
    """Fresh worker processes, one pass each, until the budget is spent.

    Untraced passes give the timing samples, and each is preceded by one
    set-up sample: spread over the whole run, set-up times see the same
    machine as the passes rather than one moment of it.  With tracing on,
    passes alternate untraced and traced, and no set-up is timed;
    spans_path keeps the spans of the last traced pass.
    """
    untraced, traced, setup = [], [], []
    import_s(env, root)  # fills the bytecode cache, which users also keep
    deadline = time.perf_counter() + args.seconds
    while True:
        trace = args.trace and len(traced) < len(untraced)
        if not args.trace:
            setup.append(import_s(env, root))
        result_path = workdir / "worker.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(int(trace)), "--workdir", str(workdir),
             "--result", str(result_path), "--spans", str(spans_path)],
            env=env, cwd=root, check=True, timeout=WORKER_TIMEOUT_S,
        )
        (traced if trace else untraced).append(json.loads(result_path.read_text()))
        if time.perf_counter() >= deadline and len(traced) >= args.trace:
            return untraced, traced, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "oscint" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/oscint/cli.py not found",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics to report and their units
    spec = json.loads((root / "BENCHMARK.json").read_text())

    env = child_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = HERE / f"_work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        imports = import_layers(env, root) if args.trace else {}
        passes, traced, setup = run_passes(args, env, root, workdir, results / f"spans-{tag}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = timing([p["pass_s"] for p in passes])
    steps = passes[0]["steps"]
    if args.trace:
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(t["pass_s"] for t in traced)
                                      - run_s["median"])
        values.update(imports)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s["median"],
            "steps_per_s": steps / run_s["median"],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    problems = [problem for p in everything for problem in p["problems"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": passes[0]["inputs"],
        "source": source_id(root),
        "environment": passes[0]["environment"],
        "setup_s": timing(setup) if setup else None,
        "run_s": run_s,
        "steps_per_pass": steps,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "fail_frac": failed / attempted,
        "problems": problems[:MAX_PROBLEMS],
        "metrics": metrics,
    }
    if traced:
        record["traced"] = {key: [t[key] for t in traced]
                            for key in ("pass_s", "spans", "stress")}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for problem in problems[:MAX_PROBLEMS]:
        print(f"FAILED {problem}")
    for t in traced:
        print(f"stress {json.dumps(t['stress'])}")
    print(f"run_s median {run_s['median']:.6g} over n={run_s['n']}, tail {run_s['tail']}; "
          f"record perfbench/results/{tag}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
