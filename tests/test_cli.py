"""End-to-end tests of the command-line harness, of its CSV row formatting,
and a property test of main().

The commands run main(argv) in process (run_cli); a subprocess runs where a
process is the subject: the import guard, and the work bounds, whose
`python -m oscint` runs also cover the module entry point."""
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint.cli import EXIT_BLOWUP, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from oscint.steppers import Method

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _env():
    """The environment with this checkout's src first on the import path,
    so the subprocess imports the oscint under test, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_cli(*args):
    """main(args) in process, as a CompletedProcess with its exit code and
    captured stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(list(args))
    return subprocess.CompletedProcess(["oscint", *args], code, stdout.getvalue(), stderr.getvalue())


def run_module(*args, timeout):
    """`python -m oscint args` in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "oscint", *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=timeout,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body[0].split(","), body[1:]


class TestIntegrate:
    def test_model_run_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = run_cli(
            "integrate", "--system", "model", "--method", "imex",
            "--h", "0.1", "--t-end", "1.0", "--omega", "50.0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        meta, header, rows = read_csv(out)
        assert meta[0].startswith("# command=integrate")
        assert "status=completed" in meta[0]
        assert header == ["t", "q_1", "p_1", "H"]
        assert len(rows) == 11
        # floats are %.17g, so every field round-trips exactly
        first = rows[0].split(",")
        assert format(float(first[1]), ".17g") == first[1]

    def test_lattice_run_has_stiff_columns(self, tmp_path):
        out = tmp_path / "fpu.csv"
        proc = run_cli(
            "integrate", "--system", "fpu", "--method", "imex",
            "--h", "0.1", "--t-end", "1.0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_csv(out)
        assert header[-5:] == ["H", "I_1", "I_2", "I_3", "I_total"]
        assert float(rows[0].split(",")[-1]) == pytest.approx(1.0, rel=1e-12)
        # I_total is the writer's row sum of the per-spring columns
        block = np.array([[float(v) for v in row.split(",")[-4:]] for row in rows])
        assert block[:, 3] == pytest.approx(block[:, :3].sum(axis=1), rel=1e-12)

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "unstable.csv"
        proc = run_cli(
            "integrate", "--system", "model", "--method", "sv",
            "--h", "3.0", "--t-end", "30.0", "--omega", "50.0", "--out", str(out),
        )
        assert proc.returncode == 2
        meta, _, _ = read_csv(out)
        assert "status=blowup" in meta[0]
        assert "t_blowup=" in meta[0]
        assert meta[0].endswith(" blowup_cause=state_norm_cap_exceeded")

    @pytest.mark.parametrize(
        "args, cause",
        [
            (("integrate", "--system", "fpu", "--method", "midpoint-full",
              "--h", "5", "--t-end", "10"), "fixed_point_not_converged_after_5_iterations"),
            (("fpu-exchange", "--method", "midpoint-full", "--h", "5", "--t-end", "10"),
             "fixed_point_not_converged_after_5_iterations"),
            (("fpu-exchange", "--method", "sv", "--h", "0.1", "--t-end", "5"),
             "state_norm_cap_exceeded"),
        ],
        ids=["integrate-fixed-point", "exchange-fixed-point", "exchange-norm-cap"],
    )
    def test_blowup_cause_is_recorded_deterministically(self, tmp_path, args, cause):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run_cli(*args, "--out", str(out)).returncode == 2
        meta, _, _ = read_csv(outs[0])
        assert "status=blowup" in meta[0].split()
        assert f"blowup_cause={cause}" in meta[0].split()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_out_is_config_error(self):
        proc = run_cli(
            "integrate", "--system", "model", "--method", "sv",
            "--h", "0.1", "--t-end", "1.0",
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_unknown_method_is_config_error(self, tmp_path):
        proc = run_cli(
            "integrate", "--system", "model", "--method", "leapfrog",
            "--h", "0.1", "--t-end", "1.0", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1

    def test_nonpositive_step_is_config_error(self, tmp_path):
        proc = run_cli(
            "integrate", "--system", "model", "--method", "sv",
            "--h", "-0.1", "--t-end", "1.0", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--t-end", "inf"), ("--h", "inf"), ("--omega", "nan")],
    )
    @pytest.mark.parametrize("system", ["model", "fpu"])
    def test_non_finite_input_is_config_error(self, tmp_path, system, flag, value):
        args = {"--h": "0.1", "--t-end": "1.0", "--omega": "50.0", flag: value}
        out = tmp_path / "x.csv"
        proc = run_cli(
            "integrate", "--system", system, "--method", "imex",
            *[item for pair in args.items() for item in pair], "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("oscint: error: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_unallocatable_sample_block_is_config_error(self, tmp_path):
        # 1e16 recorded samples: the sample block is allocated up front and
        # cannot be, which must fail fast and cleanly
        proc = run_cli(
            "integrate", "--system", "model", "--method", "imex",
            "--h", "0.1", "--t-end", "1e15", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("oscint: error: ")
        assert "Traceback" not in proc.stderr

    def test_unwritable_out_is_config_error(self, tmp_path):
        proc = run_cli(
            "integrate", "--system", "model", "--method", "sv",
            "--h", "0.1", "--t-end", "1.0",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert proc.returncode == 1


class TestResonanceSweep:
    def test_coarse_sweep_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ("resonance-sweep", "--grid", "0.5", "--max", "1.0", "--t-end", "50.0")
        assert run_cli(*args, "--out", str(out_a)).returncode == 0
        assert run_cli(*args, "--out", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        _, header, rows = read_csv(out_a)
        assert header == ["omega_h_over_pi", "omega", "err_respa", "err_imex"]
        assert len(rows) == 2


class TestFpuExchange:
    def test_run_with_reference(self, tmp_path):
        out = tmp_path / "exchange.csv"
        proc = run_cli(
            "fpu-exchange", "--h", "0.1", "--t-end", "5.0",
            "--reference-h", "0.02", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        meta, header, _ = read_csv(out)
        assert header == ["t", "I_1", "I_2", "I_3", "I_total", "H"]
        assert any(m.startswith("# windowed_sup_diff") for m in meta)

    @pytest.mark.parametrize(
        "window, reference",
        [("nan", ()), ("-1", ()), ("0", ()),
         ("inf", ("--reference-h", "0.0005")), ("nan", ("--reference-h", "0.0005"))],
        ids=["nan", "negative", "zero", "inf-with-reference", "nan-with-reference"],
    )
    def test_bad_window_is_config_error(self, tmp_path, window, reference):
        # rejected before any step: the reference run alone would take about
        # a minute
        out = tmp_path / "x.csv"
        proc = run_cli(
            "fpu-exchange", "--t-end", "2000", *reference, f"--window={window}",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("oscint: error: window")
        assert not out.exists()


class TestConvergence:
    def test_single_method_in_range(self):
        proc = run_cli("convergence", "--method", "sv")
        assert proc.returncode == 0, proc.stderr
        assert "method=sv order=" in proc.stdout

    def test_blowup_fails_check(self):
        proc = run_cli("convergence", "--method", "midpoint-full", "--h", "1.0")
        assert proc.returncode == 3
        assert "status=blowup" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "--system", "model", "--method", "imex", "--h", "1e-300", "--t-end", "1"),
        ("resonance-sweep", "--grid", "1e-12"),
        ("resonance-sweep", "--substeps", "100000000", "--t-end", "1"),
        ("fpu-exchange", "--reference-h", "1e-9", "--t-end", "1e3"),
        ("integrate", "--system", "fpu", "--ell", "1000000000000", "--method", "imex",
         "--h", "0.1", "--t-end", "1"),
        ("fpu-exchange", "--ell", "1000000000000", "--t-end", "1"),
        # 1e8 steps, under the bound as a step count, but times d = 2e5 axes
        ("integrate", "--system", "fpu", "--ell", "100000", "--method", "imex",
         "--h", "0.01", "--t-end", "1e6", "--stride", "1000000000"),
    ],
    ids=["integrate-h", "sweep-grid", "sweep-substeps", "exchange-reference-h",
         "integrate-ell", "exchange-ell", "integrate-steps-times-d"],
)
def test_unbounded_work_is_config_error(tmp_path, args):
    # each would allocate terabytes or step for days; the work bound is
    # checked up front, so the command fails within seconds
    out = tmp_path / "x.csv"
    proc = run_module(*args, "--out", str(out), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("oscint: error: ")
    assert "takes more than" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_import_leaves_scipy_unloaded():
    # the CLI loads numpy only, and none of the package's proof-only code:
    # linalg serves the tests and the benchmark's tracer, and the discrete
    # Lagrangians live in tests/variational.py
    unloaded = ("scipy", "oscint.linalg", "oscint.lagrangians")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, oscint.cli; print([m for m in {unloaded!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_csv_rows_match_per_value_format():
    # the CSV writers format a row with one %-format string; each field must
    # read exactly as the per-value format(x, ".17g") it replaced
    from oscint.cli import _fmt, _rows

    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2250738585072014e-308,
               np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0, 123456789.0]
    randoms = rng.choice([-1.0, 1.0], 6000) * 10.0 ** rng.uniform(-300, 300, 6000)
    block = np.concatenate([special, randoms[: 6000 - len(special)]]).reshape(-1, 3)
    want = [",".join(_fmt(float(v)) for v in row) for row in block]
    assert _rows([block[:, 0], block[:, 1:]]) == want


# Each numeric flag is a special value or a draw from a small valid range.
# The ranges bound an accepted run to about 1e4 steps (times d) and a sweep
# to about 1e5 row-steps; a special value either is rejected or shortens
# the run (h = 1e308 is one step).
SPECIAL = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324)


def _real(lo, hi):
    return st.one_of(st.sampled_from(SPECIAL), st.floats(lo, hi))


def _count(lo, hi):
    return st.one_of(st.sampled_from(SPECIAL + (0, -1)), st.integers(lo, hi))


def _optional(value):
    return st.one_of(st.none(), value)


METHODS = st.sampled_from([m.value for m in Method])
SUBCOMMANDS = {
    "integrate": {
        "--system": st.sampled_from(["model", "fpu"]), "--method": METHODS,
        "--h": _real(0.01, 1.0), "--t-end": _real(0.0, 2.0), "--stride": _count(1, 5),
        "--omega": _optional(_real(0.0, 100.0)), "--ell": _count(1, 3),
        "--substeps": _count(1, 10), "--q0": _optional(_real(-2.0, 2.0)),
        "--p0": _optional(_real(-2.0, 2.0)),
    },
    "resonance-sweep": {
        "--h": _real(0.05, 1.0), "--t-end": _real(0.0, 50.0), "--substeps": _count(1, 100),
        "--grid": _real(0.1, 1.0), "--max": _real(0.1, 2.0),
    },
    "fpu-exchange": {
        "--method": METHODS, "--h": _real(0.01, 1.0), "--t-end": _real(0.0, 2.0),
        "--ell": _count(1, 3), "--omega": _optional(_real(0.0, 100.0)),
        "--reference-h": _optional(_real(0.005, 0.1)), "--stride": _count(1, 5),
        "--window": _optional(_real(0.01, 2.0)), "--substeps": _count(1, 10),
    },
    "convergence": {
        "--h": _real(0.05, 1.0), "--t-end": _real(0.0, 2.0),
        "--omega": _optional(_real(0.0, 10.0)), "--method": _optional(METHODS),
    },
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_main_returns_an_exit_code_and_never_raises(command, tmp_path_factory):
    out = ["--out", str(tmp_path_factory.mktemp(command) / "x.csv")]
    if command == "convergence":
        out = []

    @settings(max_examples=40)
    @given(st.fixed_dictionaries(SUBCOMMANDS[command]))
    def run(flags):
        # flag=value, so that a value such as -inf is not read as a flag
        argv = [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        # RuntimeWarnings are errors in this suite, so a warning fails here too
        code = main([command, *argv, *out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_CHECK_FAILED)

    run()
