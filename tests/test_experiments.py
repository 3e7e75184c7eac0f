"""Unit tests for the experiment drivers."""
import math

import numpy as np
import pytest

from oscint.analysis import max_energy_error
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

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            resonance_sweep(grid=-0.1)
        with pytest.raises(ValueError):
            resonance_sweep(grid=0.5, sweep_max=0.4)
        for substeps in (2.5, float("nan")):
            with pytest.raises(ValueError, match="substeps"):
                resonance_sweep(substeps=substeps)


class TestFpuExchange:
    def test_short_run_with_reference(self):
        result = fpu_exchange(h=0.1, t_end=5.0, reference_h=0.02)
        assert result.trajectory.completed
        assert result.reference.completed
        assert result.sup_diffs.shape == (3,)
        assert np.all(result.sup_diffs >= 0.0)
        assert result.window == 1.0

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
