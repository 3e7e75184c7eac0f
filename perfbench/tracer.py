"""Spans around calls into oscint's modules, recorded from outside the package.

install() replaces the module and class attributes listed below with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Every oscint module that imported a wrapped
function by name gets the wrapper too, so calls through `from .x import f`
are seen.  Spans stay in flat arrays until the run ends; derived per-layer
figures come from layer_metrics().

oscint.lagrangians is on no CLI path (only tests call it), so nothing in it
is wrapped.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("oscint", "oscint.analysis", "oscint.cli", "oscint.experiments",
           "oscint.linalg", "oscint.steppers", "oscint.systems")

# module-level functions, by "module.attr" under the oscint package
FUNCTIONS = (
    "systems.fpu_build", "systems.coupled_oscillator_build", "systems.fpu_initial_state",
    "systems.stiff_energies",
    "linalg.spd_factor",
    "steppers.kick_slow", "steppers.step_midpoint_fast", "steppers.step_imex",
    "steppers.step_stormer_verlet", "steppers.step_modified_impulse", "steppers.step_respa",
    "steppers.step_midpoint_full", "steppers.integrate",
    "analysis.windowed_mean", "analysis.propagation_matrix", "analysis.convergence_order",
    "experiments.resonance_sweep", "experiments.fpu_exchange", "experiments.convergence_study",
    "experiments.windowed_stiff_diffs",
    "cli.main", "cli.cmd_integrate", "cli.cmd_resonance_sweep", "cli.cmd_fpu_exchange",
    "cli.cmd_convergence",
)
# methods, by "module.Class.attr"
METHODS = ("systems.State.__init__", "systems.OscillatorySystem.total_energy",
           "linalg.SpdFactor.solve")
# each system's slow force is an instance attribute (a closure made when the
# system is constructed), so the wrappers of the two system constructors
# wrap it under this one name
SLOW_FORCE = "systems.slow_force"
CONSTRUCTORS = ("systems.fpu_build", "systems.coupled_oscillator_build")

STEPPERS = ("steppers.step_imex", "steppers.step_stormer_verlet",
            "steppers.step_modified_impulse", "steppers.step_respa",
            "steppers.step_midpoint_full")
# commands whose self time is CSV formatting and writing
CSV_COMMANDS = ("cli.cmd_integrate", "cli.cmd_resonance_sweep", "cli.cmd_fpu_exchange")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.blowups = 0
        self.omega2_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self.starts)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).astype(np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.starts).copy(),
            "end": np.frombuffer(self.ends).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(qualname: str):
    parts = qualname.split(".")
    owner = importlib.import_module("oscint." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every listed callable; irreversible for the life of the process."""
    modules = [importlib.import_module(m) for m in MODULES]

    def on_construct(system):
        tracer.omega2_bytes = max(tracer.omega2_bytes, system.omega2.nbytes)
        object.__setattr__(system, "slow_force", tracer.wrap(SLOW_FORCE, system.slow_force))

    def on_integrate(traj):
        tracer.blowups += not traj.completed

    hooks = {name: on_construct for name in CONSTRUCTORS}
    hooks["steppers.integrate"] = on_integrate
    for qualname in FUNCTIONS:
        owner, attr = _resolve(qualname)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(qualname, original, hooks.get(qualname))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for qualname in METHODS:
        owner, attr = _resolve(qualname)
        setattr(owner, attr, tracer.wrap(qualname, getattr(owner, attr)))


def midpoint_fast_counts(d: int) -> tuple[int, int]:
    """Computed (bytes, flops) of one step_midpoint_fast call on a dense d x d Omega^2.

    Two dense matvecs with Omega^2 (2 d^2 flops and 8 d^2 bytes each), a
    forward and a back triangular solve against the Cholesky factor (d^2
    flops and 4 d^2 bytes each, one triangle read), and about ten length-d
    vector operations (one flop and 24 bytes per element each).  Cache
    reuse is ignored, so bytes are those the algorithm must touch.
    """
    flops = 2 * 2 * d * d + 2 * d * d + 10 * d
    nbytes = 2 * 8 * d * d + 2 * 4 * d * d + 10 * 24 * d
    return nbytes, flops


def span_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time of every span; self time is the duration less
    that of the span's direct children."""
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    inside = parent >= 0
    child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
    return dur, dur - child


def self_by_name(spans, self_t, names, first: int, last: int) -> dict[str, float]:
    """Self seconds by span name over spans [first, last)."""
    by_name = np.bincount(spans["name_id"][first:last], weights=self_t[first:last],
                          minlength=len(names))
    return {names[i]: float(t) for i, t in enumerate(by_name) if t}


def layer_metrics(spans: dict[str, np.ndarray], names: list[str], workload,
                  csv_bytes: float, blowups: int, omega2_bytes: int) -> dict:
    """Per-layer figures from the spans of one workload pass."""
    nid = spans["name_id"]
    parent = spans["parent"]
    dur, self_t = span_times(spans)
    n_names = len(names)
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    self_by = np.bincount(nid, weights=self_t, minlength=n_names)
    parent_name = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
    index = {name: i for i, name in enumerate(names)}

    def n(name):
        return int(calls[index[name]]) if name in index else 0

    def self_s(name):
        return float(self_by[index[name]]) if name in index else 0.0

    def total_s(name):
        return float(total[index[name]]) if name in index else 0.0

    def us_per_call(name):
        return total_s(name) / n(name) * 1e6 if n(name) else 0.0

    def calls_under(name, parent_qualname):
        if name not in index or parent_qualname not in index:
            return 0
        return int(np.sum((nid == index[name]) & (parent_name == index[parent_qualname])))

    def module_self_s(prefix):
        return sum(self_s(name) for name in names if name.startswith(prefix + "."))

    step_calls = sum(n(s) for s in STEPPERS)
    steps_in_integrate = sum(calls_under(s, "steppers.integrate") for s in STEPPERS)
    fast_calls = n("steppers.step_midpoint_fast")
    fp_calls = n("steppers.step_midpoint_full")
    csv_s = sum(self_s(c) for c in CSV_COMMANDS)
    sweep_s = total_s("experiments.resonance_sweep")
    fast_bytes, fast_flops = midpoint_fast_counts(workload.d) if fast_calls else (0, 0)

    m = {
        "systems.slow_force.calls": n(SLOW_FORCE),
        "systems.slow_force.us_per_call": us_per_call(SLOW_FORCE),
        "systems.State.calls_per_step":
            n("systems.State.__init__") / step_calls if step_calls else 0.0,
        "systems.State.us_per_call": us_per_call("systems.State.__init__"),
        "systems.total_energy.self_s": self_s("systems.OscillatorySystem.total_energy"),
        "systems.stiff_energies.self_s": self_s("systems.stiff_energies"),
        "systems.fpu_build.self_s": self_s("systems.fpu_build"),
        "systems.omega2_bytes": omega2_bytes,
        "systems.coupled_oscillator_build.calls": n("systems.coupled_oscillator_build"),
        "systems.coupled_oscillator_build.self_s": self_s("systems.coupled_oscillator_build"),
        "systems.self_s": module_self_s("systems"),
        "linalg.spd_factor.calls": n("linalg.spd_factor"),
        "linalg.spd_factor.self_s": self_s("linalg.spd_factor"),
        "linalg.SpdFactor.solve.us_per_call": us_per_call("linalg.SpdFactor.solve"),
        "linalg.self_s": module_self_s("linalg"),
        "steppers.fast_factor_reuse":
            1.0 - calls_under("linalg.spd_factor", "steppers.step_midpoint_fast") / fast_calls
            if fast_calls else 0.0,
        "steppers.step_midpoint_fast.us_per_call": us_per_call("steppers.step_midpoint_fast"),
        "steppers.step_midpoint_fast.self_s": self_s("steppers.step_midpoint_fast"),
        "steppers.step_midpoint_fast.bytes_per_call_computed": fast_bytes,
        "steppers.step_midpoint_fast.flops_per_call_computed": fast_flops,
        "steppers.kick_slow.us_per_call": us_per_call("steppers.kick_slow"),
    }
    for stepper in STEPPERS:
        m[stepper + ".us_per_call"] = us_per_call(stepper)
    m.update({
        "steppers.step_respa.self_s": self_s("steppers.step_respa"),
        "steppers.step_midpoint_full.fp_iters_per_step":
            calls_under(SLOW_FORCE, "steppers.step_midpoint_full") / fp_calls - 1.0
            if fp_calls else 0.0,
        "steppers.integrate.self_s": self_s("steppers.integrate"),
        "steppers.integrate.self_us_per_step":
            self_s("steppers.integrate") / steps_in_integrate * 1e6
            if steps_in_integrate else 0.0,
        "steppers.integrate.samples":
            calls_under("systems.OscillatorySystem.total_energy", "steppers.integrate"),
        "steppers.integrate.blowups": blowups,
        "analysis.windowed_mean.self_s": self_s("analysis.windowed_mean"),
        "analysis.propagation_matrix.calls": n("analysis.propagation_matrix"),
        "analysis.propagation_matrix.self_s": self_s("analysis.propagation_matrix"),
        "experiments.resonance_sweep.self_s": self_s("experiments.resonance_sweep"),
        "experiments.resonance_sweep.row_steps_per_s":
            workload.sweep_row_steps / sweep_s if sweep_s else 0.0,
        "experiments.fpu_exchange.self_s": self_s("experiments.fpu_exchange"),
        "experiments.convergence_study.self_s": self_s("experiments.convergence_study"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": csv_bytes / csv_s / 1e6 if csv_s else 0.0,
    })
    return m

