"""Unit tests for the experiment drivers."""
import errno
import math
import os

import numpy as np
import pytest

from oscint import cli, experiments
from oscint.analysis import max_energy_error, propagation_matrix
from oscint.experiments import (
    convergence_study,
    fpu_exchange,
    model_exact_state,
    resonance_sweep,
    windowed_stiff_diffs,
)
from oscint.steppers import Method, StepperSpec, integrate
from oscint.systems import State, coupled_oscillator_build


class TestModelExactState:
    def test_initial_time(self):
        assert model_exact_state(3.0, 1.2, -0.7, 0.0) == (1.2, -0.7)

    def test_energy_constant(self):
        omega = 5.0
        nu2 = 1.0 + omega * omega
        q0, p0 = 0.8, -0.3
        e0 = 0.5 * p0 * p0 + 0.5 * nu2 * q0 * q0
        for t in (0.1, 1.0, 17.3):
            q, p = model_exact_state(omega, q0, p0, t)
            assert 0.5 * p * p + 0.5 * nu2 * q * q == pytest.approx(e0, rel=1e-12)

    def test_quarter_period(self):
        # omega = 0 gives nu = 1; a quarter period maps (q, p) to (p, -q)
        q, p = model_exact_state(0.0, 1.0, 0.0, math.pi / 2.0)
        assert q == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(-1.0, rel=1e-12)


class TestResonanceSweep:
    def test_row_grid(self):
        rows = resonance_sweep(h=0.1, t_end=1.0, substeps=3, grid=0.5, sweep_max=1.0)
        assert len(rows) == 2
        assert rows[0].omega_h_over_pi == pytest.approx(0.5)
        assert rows[1].omega_h_over_pi == pytest.approx(1.0)
        assert rows[0].omega == pytest.approx(0.5 * math.pi / 0.1)

    def test_default_density_row_count(self, sweep_rows):
        assert len(sweep_rows) == 450

    def test_deterministic(self):
        kwargs = dict(h=0.1, t_end=2.0, substeps=5, grid=0.25, sweep_max=1.0)
        a = resonance_sweep(**kwargs)
        b = resonance_sweep(**kwargs)
        assert a == b

    def test_matrix_path_matches_direct_integration(self):
        # the sweep iterates one-step matrices; a nonresonant point must
        # reproduce the stepper-driven energy error
        h, substeps, t_end = 0.1, 100, 10.0
        rows = resonance_sweep(h=h, t_end=t_end, substeps=substeps, grid=0.37, sweep_max=0.37)
        assert len(rows) == 1
        omega = 0.37 * math.pi / h
        sys_ = coupled_oscillator_build(omega)
        q0 = 1.0 / math.sqrt(1.0 + omega * omega)
        state0 = State(0.0, [q0], [0.0])
        for method, want in ((Method.RESPA, rows[0].err_respa), (Method.IMEX, rows[0].err_imex)):
            spec = StepperSpec(method=method, h=h, substeps=substeps)
            traj = integrate(sys_, spec, state0, t_end)
            assert max_energy_error(traj) == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_errors_positive_and_finite_off_resonance(self, sweep_rows):
        row = sweep_rows[36]  # r = 0.37
        assert 0.0 < row.err_respa < 1.0
        assert 0.0 < row.err_imex < 1.0

    def test_imex_rows_match_the_closed_form_orbit(self, sweep_rows):
        # For a 2x2 map M with det 1 and |tr| < 2, with theta = arccos(tr/2),
        # M^n = cos(n theta) I + (sin(n theta)/sin theta)(M - cos(theta) I).
        # So from z0 = (q0, 0), with w = (M - cos(theta) I) z0 / sin(theta),
        # H_n - H_0 = sin^2(n theta)(H(w) - H(z0)) + sin(2 n theta) B(z0, w),
        # B being H's bilinear form: the flat IMEX curve with no loop.
        # Worst measured 2.1e-9 relative (median 3.0e-10) against the loop.
        h = 0.1
        n_steps = math.ceil(1000.0 / h)  # the defaults: t_end = 1000
        omegas = np.array([row.omega for row in sweep_rows])
        mats = propagation_matrix(StepperSpec(Method.IMEX, h), omegas)
        (a, _), (c, d) = np.moveaxis(mats, 0, -1)
        assert np.all(np.abs(a + d) < 2.0)
        theta = np.arccos((a + d) / 2.0)
        spring = 1.0 + omegas ** 2
        q0 = 1.0 / np.sqrt(spring)
        wq, wp = (a - np.cos(theta)) * q0 / np.sin(theta), c * q0 / np.sin(theta)
        dh = 0.5 * (spring * wq * wq + wp * wp) - 0.5 * spring * q0 * q0
        bilinear = 0.5 * spring * q0 * wq
        want = np.zeros(omegas.size)
        for start in range(1, n_steps + 1, 1000):  # blocks of 1000 steps
            angle = np.arange(start, min(start + 1000, n_steps + 1))[:, np.newaxis] * theta
            errs = np.abs(np.sin(angle) ** 2 * dh + np.sin(2.0 * angle) * bilinear)
            want = np.maximum(want, errs.max(axis=0))
        got = np.array([row.err_imex for row in sweep_rows])
        assert np.all(np.abs(got - want) <= 1e-8 * got)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            resonance_sweep(grid=-0.1)
        with pytest.raises(ValueError):
            resonance_sweep(grid=0.5, sweep_max=0.4)
        for substeps in (2.5, float("nan")):
            with pytest.raises(ValueError, match="substeps"):
                resonance_sweep(substeps=substeps)
        # one step, but the grid's omega = pi/h overflows
        with pytest.raises(ValueError, match="largest omega"):
            resonance_sweep(h=5e-324, t_end=5e-324, grid=1.0, sweep_max=1.0)


class TestSweepFork:
    """The sweep's loop in two processes where two CPUs are there: the
    same rows bit for bit, and no child process left behind."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _cpus(monkeypatch, n):
        """Let the sweep see n CPUs; returns the list its forks append to."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @pytest.mark.parametrize("kwargs", [
        {},  # the CLI defaults, 900 rows
        dict(grid=0.01, sweep_max=0.07, t_end=10.0),  # 7 grid points
        dict(h=0.1, substeps=1, t_end=1000.0),  # 387 impulse rows overflow
    ], ids=["defaults", "odd-grid", "overflow"])
    def test_two_cpus_fork_once_with_the_same_rows(self, monkeypatch, kwargs):
        rows = {}
        for cpus in (1, 2):
            forks = self._cpus(monkeypatch, cpus)
            rows[cpus] = resonance_sweep(**kwargs)
            assert len(forks) == cpus - 1
        # SweepRow's == compares the float fields; array_equal on the
        # errors, which are never NaN, reads the same
        assert rows[1] == rows[2]

    def test_odd_row_count_split_within_a_method(self, monkeypatch):
        # 999 random rows: the split falls inside one block of rows, and
        # over half the rows diverge to the cap
        rng = np.random.default_rng(3)
        n = 999
        spring = rng.uniform(0.5, 2e4, size=n)
        args = (rng.uniform(-1.5, 1.5, size=(n, 2, 2)), spring, 200, 1.0 / np.sqrt(spring))
        forks = self._cpus(monkeypatch, 2)
        got = experiments._max_energy_errors(*args)
        assert len(forks) == 1
        assert np.array_equal(got, experiments._linear_max_energy_errors(*args, 0.0))

    def test_failed_fork_runs_every_row_here(self, monkeypatch):
        kwargs = dict(grid=0.25, sweep_max=1.0, t_end=50.0)
        want = resonance_sweep(**kwargs)

        def failing_fork():
            raise OSError(errno.EAGAIN, "no process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", failing_fork)
        assert resonance_sweep(**kwargs) == want

    @staticmethod
    def _loop_raising_in(monkeypatch, child, exc):
        """Make the sweep's loop raise exc in the child process (child) or
        in this one (not child)."""
        parent, loop = os.getpid(), experiments._linear_max_energy_errors

        def loop_raising(*args):
            if (os.getpid() != parent) == child:
                raise exc
            return loop(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(experiments, "_linear_max_energy_errors", loop_raising)

    def test_failed_child_is_a_clean_cli_error(self, monkeypatch, tmp_path, capsys):
        self._loop_raising_in(monkeypatch, True, MemoryError())
        with pytest.raises(OSError, match="child process failed"):
            resonance_sweep(grid=0.25, sweep_max=1.0, t_end=50.0)
        out = tmp_path / "sweep.csv"
        argv = ["resonance-sweep", "--grid", "0.25", "--max", "1.0", "--t-end", "50",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("oscint: error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, ValueError])
    def test_parent_exception_reaps_the_child(self, monkeypatch, exc):
        # the child is killed and reaped before the exception goes on
        # (no_child_left); the child's loop would run for seconds
        self._loop_raising_in(monkeypatch, False, exc())
        with pytest.raises(exc):
            resonance_sweep(grid=0.01, sweep_max=4.5, t_end=10000.0)


class TestFpuExchange:
    def test_short_run_with_reference(self):
        result = fpu_exchange(h=0.1, t_end=5.0, reference_h=0.02)
        assert result.trajectory.completed
        assert result.reference.completed
        assert result.sup_diffs.shape == (3,)
        assert np.all(result.sup_diffs >= 0.0)
        assert result.window == 1.0

    def test_reference_step_too_fine_for_a_stride(self):
        # 0.01 / reference_h is inf: the reference records its start only
        result = fpu_exchange(h=0.1, t_end=5e-324, reference_h=5e-324)
        assert result.reference.completed
        assert len(result.reference.times) == 1

    def test_non_integer_stride_rejected(self):
        with pytest.raises(ValueError, match="stride must be an integer"):
            fpu_exchange(h=0.1, t_end=1.0, stride=2.5)

    def test_no_reference_no_diffs(self):
        result = fpu_exchange(h=0.1, t_end=2.0)
        assert result.reference is None
        assert result.sup_diffs is None

    def test_method_string_accepted(self):
        result = fpu_exchange(method="sv", h=0.005, t_end=1.0)
        assert result.trajectory.method == "sv"

    def test_initial_stiff_energy_normalized(self):
        result = fpu_exchange(h=0.1, t_end=1.0)
        assert result.trajectory.stiff.sum(axis=1)[0] == pytest.approx(1.0, rel=1e-12)

    def test_identical_runs_have_zero_diff(self, exchange_traj_h01):
        diffs = windowed_stiff_diffs(exchange_traj_h01, exchange_traj_h01, 1.0)
        assert diffs == pytest.approx(np.zeros(3), abs=1e-15)

    def test_diffs_need_stiff_energies(self, model50):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(model50, spec, State(0.0, [1.0], [0.0]), 1.0)
        with pytest.raises(ValueError):
            windowed_stiff_diffs(traj, traj, 1.0)


class TestConvergenceStudy:
    def test_row_structure(self):
        rows = convergence_study(methods=(Method.SV,), h=0.1, t_end=2.0, levels=3)
        (row,) = rows
        assert row.hs == (0.1, 0.05, 0.025)
        assert len(row.errors) == 3
        assert not row.blew_up
        assert all(e > 0.0 for e in row.errors)
        # halving h roughly quarters the error for a second-order method
        assert row.errors[0] / row.errors[1] == pytest.approx(4.0, rel=0.3)

    def test_blowup_marks_row(self):
        # the fixed point diverges at the coarsest level only
        rows = convergence_study(methods=(Method.MIDPOINT_FULL,), h=1.0, t_end=2.0, levels=2)
        (row,) = rows
        assert row.blew_up
        assert math.isnan(row.order)
        assert row.errors[0] == float("inf")
        assert row.errors[1] < 1.0
