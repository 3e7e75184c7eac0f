"""Unit tests for the one-step maps and the trajectory driver."""
import dataclasses
import functools
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oscint import steppers
from oscint.analysis import propagation_matrix
from oscint.steppers import (
    BLOWUP,
    COMPLETED,
    MAX_STEPS,
    Method,
    NoConvergence,
    StepperSpec,
    _STATEMENTS,
    _kernel,
    _state_buffers,
    integrate,
    kick_slow,
    step_count,
    step_imex,
    step_midpoint_fast,
    step_midpoint_full,
    step_modified_impulse,
    step_respa,
    step_stormer_verlet,
)
from oscint.systems import (
    FpuParams,
    OscillatorySystem,
    SlowForce,
    State,
    coupled_oscillator_build,
    fpu_build,
    fpu_initial_state,
    stiff_energies,
)
from test_oracle import verlet_with_mass_step
from variational import modified_mass


def _fast_only_system(d: int, omega: float) -> OscillatorySystem:
    return OscillatorySystem(
        omega=np.full(d, float(omega)),
        slow_potential=lambda q: 0.0,
        slow_force=lambda q: np.zeros(d),
        label="fast-only",
    )


def _random_fpu_state(seed: int) -> State:
    rng = np.random.default_rng(seed)
    return State(0.0, rng.standard_normal(6), rng.standard_normal(6))


class TestKickSlow:
    def test_positions_untouched(self, model50):
        s = kick_slow(model50, State(0.0, [2.0], [1.0]), 0.3)
        assert s.q == pytest.approx([2.0])
        assert s.p == pytest.approx([1.0 + 0.3 * (-2.0)])

    def test_time_untouched(self, model50):
        assert kick_slow(model50, State(1.5, [1.0], [0.0]), 0.1).t == 1.5


class TestMidpointFast:
    def test_hand_value(self):
        # d=1, omega=50, h=0.1, from (1, 0): a^2 = 6.25,
        # q1 = (1 - a^2)/(1 + a^2) = -21/29, p1 = -125 (1 + q1) = -1000/29
        sys_ = _fast_only_system(1, 50.0)
        s = step_midpoint_fast(sys_, State(0.0, [1.0], [0.0]), 0.1)
        assert s.q == pytest.approx([-21.0 / 29.0], rel=1e-13)
        assert s.p == pytest.approx([-1000.0 / 29.0], rel=1e-13)
        assert s.t == pytest.approx(0.1)

    def test_conserves_fast_energy(self):
        sys_ = _fast_only_system(1, 50.0)
        s = State(0.0, [1.0], [0.0])
        e0 = sys_.total_energy(s.q, s.p)
        for _ in range(1000):
            s = step_midpoint_fast(sys_, s, 0.1)
            e = sys_.total_energy(s.q, s.p)
            assert abs(e - e0) <= 1e-11 * e0

    def test_zero_omega_is_drift(self):
        sys_ = _fast_only_system(2, 0.0)
        s = step_midpoint_fast(sys_, State(0.0, [1.0, 2.0], [0.5, -1.0]), 0.2)
        assert s.q == pytest.approx([1.1, 1.8], rel=1e-15)
        assert s.p == pytest.approx([0.5, -1.0])


class TestStepEquivalences:
    def test_imex_equals_verlet_with_modified_mass(self, fpu_sys):
        h = 0.1
        mtilde = modified_mass(h, fpu_sys.omega2)
        s_a = s_b = _random_fpu_state(0)
        for _ in range(50):
            s_a = step_imex(fpu_sys, s_a, h)
            s_b = verlet_with_mass_step(fpu_sys, s_b, h, mtilde)
            assert np.max(np.abs(s_a.q - s_b.q)) <= 1e-11
            assert np.max(np.abs(s_a.p - s_b.p)) <= 1e-11

    def test_modified_impulse_equals_imex(self, fpu_sys):
        h = 0.1
        s_a = s_b = _random_fpu_state(1)
        for _ in range(50):
            s_a = step_imex(fpu_sys, s_a, h)
            s_b = step_modified_impulse(fpu_sys, s_b, h)
            assert np.max(np.abs(s_a.q - s_b.q)) <= 1e-12
            assert np.max(np.abs(s_a.p - s_b.p)) <= 1e-12

    def test_modified_impulse_hand_value(self):
        # the per-axis rotation at omega=50, h=0.1:
        # cos(h w~) = (1 - 6.25)/7.25, p' = -(2/h)(1 - cos) from unit start
        sys_ = _fast_only_system(1, 50.0)
        s = step_modified_impulse(sys_, State(0.0, [1.0], [0.0]), 0.1)
        assert s.q == pytest.approx([-0.7241379310344828], rel=1e-13)
        assert s.p == pytest.approx([-34.482758620689655], rel=1e-13)

    def test_modified_impulse_zero_omega_reduces_to_drift(self):
        sys_ = coupled_oscillator_build(0.0)
        s0 = State(0.0, [0.7], [-0.4])
        a = step_modified_impulse(sys_, s0, 0.25)
        b = step_imex(sys_, s0, 0.25)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)

    def test_respa_single_substep_is_verlet(self, fpu_sys):
        s0 = _random_fpu_state(2)
        a = step_respa(fpu_sys, s0, 0.01, 1)
        b = step_stormer_verlet(fpu_sys, s0, 0.01)
        assert np.max(np.abs(a.q - b.q)) <= 1e-13 * (1.0 + np.max(np.abs(b.q)))
        assert np.max(np.abs(a.p - b.p)) <= 1e-13 * (1.0 + np.max(np.abs(b.p)))

    def test_all_methods_coincide_without_fast_part(self, monkeypatch):
        # Omega = 0 collapses every splitting scheme to plain Verlet on the
        # slow force
        sys_ = coupled_oscillator_build(0.0)
        s0 = State(0.0, [1.0], [0.5])
        h = 0.1
        want = step_stormer_verlet(sys_, s0, h)
        for got in (
            step_imex(sys_, s0, h),
            step_respa(sys_, s0, h, 7),
            step_modified_impulse(sys_, s0, h),
        ):
            assert got.q == pytest.approx(want.q, rel=1e-12, abs=1e-14)
            assert got.p == pytest.approx(want.p, rel=1e-12, abs=1e-14)
        # the fully implicit midpoint is a different map (O(h^3) from
        # Verlet); on the remaining unit spring it has a closed form
        monkeypatch.setattr(steppers, "FP_TOL", 1e-14)
        mid = step_midpoint_full(sys_, s0, h)
        denom = 1.0 + 0.25 * h * h
        q_mid = ((1.0 - 0.25 * h * h) * s0.q[0] + h * s0.p[0]) / denom
        p_mid = ((1.0 - 0.25 * h * h) * s0.p[0] - h * s0.q[0]) / denom
        assert mid.q[0] == pytest.approx(q_mid, rel=1e-12)
        assert mid.p[0] == pytest.approx(p_mid, rel=1e-12)


class TestMidpointFull:
    def test_quadratic_potential_matches_direct_solve(self, monkeypatch):
        sys_ = _fast_only_system(1, 50.0)
        s0 = State(0.0, [1.0], [0.3])
        monkeypatch.setattr(steppers, "FP_TOL", 1e-14)
        a = step_midpoint_full(sys_, s0, 0.01)
        b = step_midpoint_fast(sys_, s0, 0.01)
        assert np.max(np.abs(a.q - b.q)) <= 1e-12
        assert np.max(np.abs(a.p - b.p)) <= 1e-10

    def test_zero_potential_is_drift(self):
        sys_ = _fast_only_system(2, 0.0)
        s = step_midpoint_full(sys_, State(0.0, [1.0, 0.0], [0.0, 2.0]), 0.5)
        assert s.q == pytest.approx([1.0, 1.0])
        assert s.p == pytest.approx([0.0, 2.0])

    def test_converges_quickly_on_lattice(self, fpu_sys, fpu_state0, monkeypatch):
        # contraction factor (h^2/4)*||hessian|| ~ 0.06 at h=0.01
        monkeypatch.setattr(steppers, "FP_TOL", 1e-12)
        monkeypatch.setattr(steppers, "FP_MAX_ITER", 50)
        s = step_midpoint_full(fpu_sys, fpu_state0, 0.01)
        assert np.all(np.isfinite(s.q))

    def test_no_convergence_past_contraction_limit(self, model50):
        # h*omega = 2.5 puts the fixed point outside its contraction regime
        with pytest.raises(NoConvergence):
            step_midpoint_full(model50, State(0.0, [1.0], [0.0]), 0.05)

    def test_no_convergence_reports_iterations(self, model50, monkeypatch):
        monkeypatch.setattr(steppers, "FP_MAX_ITER", 17)
        try:
            step_midpoint_full(model50, State(0.0, [1.0], [0.0]), 0.05)
        except NoConvergence as exc:
            assert exc.iterations <= 17
        else:
            pytest.fail("expected NoConvergence")

    @pytest.mark.parametrize(
        "run",
        [
            lambda sys_, s0: step_midpoint_full(sys_, s0, 0.5),
            lambda sys_, s0: propagation_matrix(StepperSpec("midpoint-full", 0.5), 50.0),
        ],
        ids=["step_midpoint_full", "propagation_matrix"],
    )
    def test_single_step_no_convergence_warns_nothing(self, model50, run):
        # at h*omega = 25 the iteration overflows before it gives up; a
        # single step silences that as integrate does, and only raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                run(model50, State(0.0, [1.0], [0.0]))


class TestSymmetry:
    @pytest.mark.parametrize(
        "step",
        [
            step_stormer_verlet,
            step_imex,
            step_modified_impulse,
            lambda sys_, s, h: step_respa(sys_, s, h, 10),
        ],
        ids=["sv", "imex", "modified-impulse", "respa"],
    )
    def test_backward_step_inverts_forward(self, fpu_sys, step):
        s0 = _random_fpu_state(3)
        s = step(fpu_sys, s0, 0.1)
        back = step(fpu_sys, s, -0.1)
        assert np.max(np.abs(back.q - s0.q)) <= 1e-12
        assert np.max(np.abs(back.p - s0.p)) <= 1e-12

    def test_midpoint_full_backward_step(self, fpu_sys, monkeypatch):
        s0 = _random_fpu_state(4)
        monkeypatch.setattr(steppers, "FP_TOL", 1e-14)
        s = step_midpoint_full(fpu_sys, s0, 0.01)
        back = step_midpoint_full(fpu_sys, s, -0.01)
        assert np.max(np.abs(back.q - s0.q)) <= 1e-10
        assert np.max(np.abs(back.p - s0.p)) <= 1e-10


class TestStepperSpec:
    def test_string_method_coerced(self):
        assert StepperSpec(method="imex", h=0.1).method is Method.IMEX

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            StepperSpec(method="leapfrog", h=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"h": -1.0},
            {"h": 0.1, "substeps": 0},
            {"h": 0.1, "substeps": -1},
            {"h": float("-inf")},
            {"h": float("inf")},
            {"h": float("nan")},
            {"h": 0.1, "substeps": 2.5},
            {"h": 0.1, "substeps": float("nan")},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StepperSpec(method=Method.IMEX, **kwargs)

    @pytest.mark.parametrize("substeps", [-1, 0, 2.5])
    def test_step_respa_rejects_invalid_substeps(self, substeps):
        # unchecked, -1 would skip the fast flow, 0 divide by zero and 2.5
        # fail in range()
        sys_ = coupled_oscillator_build(2.0)
        with pytest.raises(ValueError, match="substeps"):
            step_respa(sys_, State(0.0, [1.0], [0.0]), 0.1, substeps)


class TestWorkBound:
    """MAX_STEPS bounds steps times d, RESPA's substeps counted."""

    @pytest.mark.parametrize("method, substeps", [(Method.IMEX, 1), (Method.RESPA, 10)])
    def test_boundary_on_the_lattice(self, method, substeps):
        # ell = 5 has d = 10, so MAX_STEPS / (10 substeps) steps of h = 1
        # are exactly the bound and one step more is past it
        sys_ = fpu_build(FpuParams(ell=5, omega=50.0))
        spec = StepperSpec(method, 1.0, substeps)
        steps = MAX_STEPS // (sys_.d * substeps)
        assert step_count(spec, 0.0, float(steps), sys_.d) == steps
        with pytest.raises(ValueError, match="on d=10 takes more than 1e"):
            step_count(spec, 0.0, steps + 1.0, sys_.d)
        # integrate rejects it before it allocates or steps
        with pytest.raises(ValueError, match="takes more than"):
            integrate(sys_, spec, fpu_initial_state(sys_), steps + 1.0, stride=10 ** 9)

    def test_boundary_on_the_model_system(self, model50):
        spec = StepperSpec(Method.SV, 0.5)
        assert step_count(spec, 0.0, 0.5 * MAX_STEPS, model50.d) == MAX_STEPS
        with pytest.raises(ValueError, match="takes more than"):
            step_count(spec, 0.0, 0.5 * MAX_STEPS + 0.5, model50.d)
        with pytest.raises(ValueError, match="takes more than"):
            integrate(model50, spec, State(0.0, [1.0], [0.0]), 0.5 * MAX_STEPS + 0.5)

    def test_sample_block_rows_hold_2d_floats(self, model50, fpu_sys, fpu_state0):
        # MAX_STEPS bounds a stride-1 sample block on the promise that a
        # row holds one state, 2d floats: 2 on the model, 6 on ell = 3
        for sys_, start in ((model50, State(0.0, [0.01], [0.0])), (fpu_sys, fpu_state0)):
            traj = integrate(sys_, StepperSpec(Method.IMEX, 0.1), start, start.t + 1.05)
            block = traj.qs.base
            assert block is traj.ps.base
            assert block.shape == (11 + 2, 2 * sys_.d)
            assert block.nbytes == 13 * 2 * sys_.d * 8


class TestIntegrate:
    def test_time_grid_and_sampling(self, model50):
        # stiff-stable method: plain SV would blow up at h*omega = 5
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(model50, spec, State(0.0, [0.01], [0.0]), 1.05)
        # ceil(1.05/0.1) = 11 steps; times are exact step multiples
        assert len(traj.times) == 12
        assert traj.times[7] == 7 * 0.1
        assert traj.final_state.t == 11 * 0.1
        assert traj.status == COMPLETED

    def test_stride_keeps_final_state(self, model50):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(model50, spec, State(0.0, [0.01], [0.0]), 1.05, stride=5)
        assert list(traj.times) == [0.0, 5 * 0.1, 10 * 0.1]
        assert traj.final_state.t == 11 * 0.1  # last step computed, not sampled

    def test_stride_past_int64_records_the_start(self, model50):
        # a stride no int64 holds: the start is the one multiple recorded,
        # then a blow-up's sample (Verlet at h*nu > 2)
        start, stride = State(0.0, [0.01], [0.0]), 10 ** 30
        traj = integrate(model50, StepperSpec(Method.IMEX, 0.1), start, 1.05, stride=stride)
        assert traj.completed and list(traj.times) == [0.0]
        assert traj.final_state.t == 11 * 0.1
        traj = integrate(model50, StepperSpec(Method.SV, 3.0), start, 30.0, stride=stride)
        assert traj.status == BLOWUP and list(traj.times) == [0.0, traj.t_blowup]

    def test_model_has_no_stiff_block(self, model50):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(model50, spec, State(0.0, [1.0], [0.0]), 1.0)
        assert traj.stiff is None

    def test_lattice_stiff_columns(self, fpu_sys, fpu_state0):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(fpu_sys, spec, fpu_state0, 2.0)
        assert traj.stiff.shape == (len(traj.times), 3)
        assert np.array_equal(traj.stiff, stiff_energies(fpu_sys, traj.qs, traj.ps))
        assert traj.stiff.sum(axis=1)[0] == pytest.approx(1.0, rel=1e-12)

    def test_blowup_detection(self, model50):
        # Verlet at h*nu > 2 on the model problem diverges immediately
        spec = StepperSpec(method=Method.SV, h=3.0)
        traj = integrate(model50, spec, State(0.0, [1.0], [0.0]), 30.0)
        assert traj.status == BLOWUP
        assert not traj.completed
        assert traj.blowup_cause == "state norm cap exceeded"
        assert traj.t_blowup == traj.times[-1]
        assert traj.t_blowup < 30.0

    def test_no_convergence_becomes_blowup_with_nan_sample(self, model50):
        spec = StepperSpec(method=Method.MIDPOINT_FULL, h=0.05)
        traj = integrate(model50, spec, State(0.0, [1.0], [0.0]), 1.0)
        assert traj.status == BLOWUP
        assert "fixed point" in traj.blowup_cause
        assert np.isnan(traj.qs[-1]).all()

    def test_metadata_carried(self, fpu_sys, fpu_state0):
        spec = StepperSpec(method=Method.RESPA, h=0.05, substeps=3)
        traj = integrate(fpu_sys, spec, fpu_state0, 0.5)
        assert traj.method == "respa"
        assert traj.system == "fpu"
        assert traj.h == 0.05

    def test_energies_recorded(self, fpu_sys, fpu_state0):
        spec = StepperSpec(method=Method.IMEX, h=0.05)
        traj = integrate(fpu_sys, spec, fpu_state0, 1.0)
        want = fpu_sys.total_energy(fpu_state0.q, fpu_state0.p)
        assert traj.energies[0] == pytest.approx(want, rel=1e-14)

    def test_state_accessor_copies(self, fpu_sys, fpu_state0):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        traj = integrate(fpu_sys, spec, fpu_state0, 0.5)
        s = traj.state(2)
        s.q[0] = 1e9
        assert traj.qs[2][0] != 1e9
        # qs and ps are the column views of one sample block
        assert traj.qs.base is traj.ps.base

    def test_invalid_arguments(self, model50):
        spec = StepperSpec(method=Method.SV, h=0.1)
        with pytest.raises(ValueError):
            integrate(model50, spec, State(0.0, [1.0], [0.0]), 1.0, stride=0)
        with pytest.raises(ValueError):
            integrate(model50, spec, State(2.0, [1.0], [0.0]), 1.0)

    @pytest.mark.parametrize("stride", [2.5, float("nan")])
    def test_non_integer_stride_rejected(self, model50, stride):
        spec = StepperSpec(method=Method.SV, h=0.1)
        with pytest.raises(ValueError, match="stride must be an integer"):
            integrate(model50, spec, State(0.0, [1.0], [0.0]), 1.0, stride=stride)

    def test_start_state_must_match_system(self, fpu_sys):
        # a model state on the ell=3 lattice
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        with pytest.raises(ValueError, match="length 1, the system d=6"):
            integrate(fpu_sys, spec, State(0.0, [1.0], [0.0]), 1.0)

    def test_single_step_state_must_match_system(self, fpu_sys):
        # the same model state, through the public single steps
        short = State(0.0, [1.0], [0.0])
        steps = [
            lambda: step_imex(fpu_sys, short, 0.1),
            lambda: step_respa(fpu_sys, short, 0.1, 10),
            lambda: step_stormer_verlet(fpu_sys, short, 0.1),
        ]
        for step in steps:
            with pytest.raises(ValueError, match="length 1, the system d=6"):
                step()

    def test_huge_step_blows_up_without_warnings(self, fpu_sys, fpu_state0):
        # binding the kernel already overflows ((h/2) F at h = 1e308); that
        # belongs to the run, which reports blow-up, and warns nothing
        for method in Method:
            traj = integrate(fpu_sys, StepperSpec(method, 1e308), fpu_state0, 1.0)
            assert traj.status == BLOWUP

    @pytest.mark.parametrize(
        "t_end, q0",
        [(float("inf"), 1.0), (float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))],
    )
    def test_non_finite_inputs_rejected(self, model50, t_end, q0):
        spec = StepperSpec(method=Method.IMEX, h=0.1)
        with pytest.raises(ValueError, match="finite"):
            integrate(model50, spec, State(0.0, [q0], [0.0]), t_end)

    @pytest.mark.parametrize(
        "method", [Method.IMEX, Method.SV, Method.MODIFIED_IMPULSE, Method.RESPA]
    )
    def test_slow_force_evaluated_once_per_step(self, method):
        # the force at the end of a step is the force at the start of the
        # next: n steps cost n + 1 evaluations, the first at the start state
        sys_ = fpu_build(FpuParams(ell=3, omega=50.0))
        calls = []
        force = sys_.slow_force

        def counted(q):
            calls.append(1)
            return force(q)

        object.__setattr__(sys_, "slow_force", counted)
        spec = StepperSpec(method=method, h=0.01, substeps=3)
        traj = integrate(sys_, spec, fpu_initial_state(sys_), 0.995)
        assert traj.completed
        assert len(traj.times) - 1 == 100
        assert len(calls) == 101

    @pytest.mark.parametrize("path", ["float", "array"])
    @pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
    @pytest.mark.parametrize("stride", [2, 3, 7])
    def test_stride_subsamples_the_stride_one_run(self, fpu_sys, fpu_state0, stride, method,
                                                  path):
        # a stride-k run calls its kernel once per k steps, each call going
        # on from the state and half kicks the last one left.  The ell = 3
        # lattice steps in floats, and on arrays with its force behind a
        # lambda.  SV's h omega stays below 2, and midpoint-full's h within
        # its fixed point's contraction limit
        sys_ = fpu_sys
        if path == "array":
            sys_ = _unbindable(fpu_sys, lambda x: fpu_sys.slow_force(x))
        h = 0.01 if method in (Method.SV, Method.MIDPOINT_FULL) else 0.05
        spec = StepperSpec(method=method, h=h, substeps=3)
        kernel = _kernel(sys_, _STATEMENTS[method], h, fpu_state0.q.copy(), fpu_state0.p.copy(),
                          3)
        assert _dialect(kernel) == ("_scalar_kernel" if path == "float" else "_array_kernel")
        full = integrate(sys_, spec, fpu_state0, 2.0)
        sub = integrate(sys_, spec, fpu_state0, 2.0, stride=stride)
        assert full.completed
        for got, want in (
            (sub.times, full.times),
            (sub.qs, full.qs),
            (sub.ps, full.ps),
            (sub.energies, full.energies),
            (sub.stiff, full.stiff),
        ):
            assert np.array_equal(got, want[::stride])
        assert sub.final_state.t == full.times[-1]
        assert np.array_equal(sub.final_state.q, full.qs[-1])
        assert np.array_equal(sub.final_state.p, full.ps[-1])

    @pytest.mark.parametrize("path", ["float", "array"])
    @pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
    def test_cap_crossing_mid_block_stops_at_its_step(self, method, path):
        # The unit oscillator turns this start on a circle of radius 1.0008
        # cap, which only step 3 takes past the cap in the max norm; by
        # step 7, the end of the first block at stride 7, the state is back
        # within it.  Every stride stops the run at step 3, on its state.
        sys_ = coupled_oscillator_build(0.0)
        if path == "array":
            sys_ = _unbindable(sys_, lambda x: -x)
        start, h, cap = State(0.0, [9.56e7], [2.96e7]), 0.1, steppers.BLOWUP_NORM_CAP
        states = [start]
        for _ in range(7):
            states.append(PUBLIC_STEPS[method](sys_, states[-1], h))
        outside = [max(abs(s.q[0]), abs(s.p[0])) > cap for s in states]
        assert outside == [False, False, False, True, False, False, False, False]
        third = states[3]
        spec = StepperSpec(method, h, substeps=3)
        for stride in (1, 7, 10 ** 9):
            traj = integrate(sys_, spec, start, 5.0, stride=stride)
            assert traj.status == BLOWUP
            assert traj.blowup_cause == "state norm cap exceeded"
            assert traj.t_blowup == traj.times[-1] == traj.final_state.t == 3 * h
            assert np.array_equal(traj.qs[-1], third.q) and np.array_equal(traj.ps[-1], third.p)
            assert len(traj.times) == (4 if stride == 1 else 2)

    @pytest.mark.parametrize("path", ["float", "array"])
    def test_no_convergence_mid_block_matches_stride_one(self, monkeypatch, path):
        # At omega = 10, h = 0.15 the fixed point takes 49, 48 and 50
        # iterations in the first three steps from (1, 0), so with at most
        # 49 the third step fails: mid-block at stride 7 and 1e9, the first
        # of a block at stride 2.  The run records the same NaN sample at
        # the same step, with the same cause, at every stride.
        monkeypatch.setattr(steppers, "FP_MAX_ITER", 49)
        sys_ = coupled_oscillator_build(10.0)
        if path == "array":
            sys_ = _unbindable(sys_, lambda x: -x)
        spec = StepperSpec(Method.MIDPOINT_FULL, 0.15)
        start = State(0.0, [1.0], [0.0])
        want = integrate(sys_, spec, start, 5.0)
        assert want.status == BLOWUP and want.t_blowup == 3 * 0.15
        assert want.blowup_cause == "fixed point not converged after 49 iterations"
        for stride in (2, 7, 10 ** 9):
            got = integrate(sys_, spec, start, 5.0, stride=stride)
            assert got.status == BLOWUP
            assert got.t_blowup == want.t_blowup == got.times[-1] == got.final_state.t
            assert got.blowup_cause == want.blowup_cause
            assert np.isnan(got.qs[-1]).all() and np.isnan(got.ps[-1]).all()
            assert np.isnan(got.final_state.q).all() and np.isnan(got.final_state.p).all()
            assert np.array_equal(got.times, want.times[:-1][::stride].tolist() + [want.t_blowup])
            assert np.array_equal(got.qs[:-1], want.qs[:-1][::stride])

    def test_tiny_span_takes_one_step(self, model50):
        # (t_end - t0)/h underflows to 0 here; the run must still step once
        spec = StepperSpec(method=Method.IMEX, h=1e10)
        traj = integrate(model50, spec, State(0.0, [1.0], [0.0]), 1e-320)
        assert len(traj.times) == 2
        assert traj.final_state.t == 1e10


ALL_METHODS = [Method.SV, Method.IMEX, Method.RESPA, Method.MODIFIED_IMPULSE, Method.MIDPOINT_FULL]
PUBLIC_STEPS = {
    Method.SV: step_stormer_verlet,
    Method.IMEX: step_imex,
    Method.RESPA: lambda sys_, s, h: step_respa(sys_, s, h, 3),
    Method.MODIFIED_IMPULSE: step_modified_impulse,
    Method.MIDPOINT_FULL: step_midpoint_full,
}


ALLOCATION_CASES = [(m, False) for m in ALL_METHODS] + [(m, True) for m in ALL_METHODS]
ALLOCATION_IDS = [m.value + ("-block" if block else "") for m, block in ALLOCATION_CASES]


class TestBufferOwnership:
    """A run steps buffers of its own: what goes in and what comes out
    share no memory with it or with each other."""

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_integrate_leaves_the_start_state_untouched(self, fpu_sys, fpu_state0, method):
        q0, p0 = fpu_state0.q.copy(), fpu_state0.p.copy()
        traj = integrate(fpu_sys, StepperSpec(method=method, h=0.01, substeps=3), fpu_state0, 0.1)
        assert traj.completed
        assert np.array_equal(fpu_state0.q, q0) and np.array_equal(fpu_state0.p, p0)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_final_state_is_a_copy(self, fpu_sys, fpu_state0, method):
        traj = integrate(fpu_sys, StepperSpec(method=method, h=0.01, substeps=3), fpu_state0, 0.1)
        qs, ps = traj.qs.copy(), traj.ps.copy()
        assert np.array_equal(traj.final_state.q, qs[-1])
        traj.final_state.q[:] = 1e3
        traj.final_state.p[:] = -1e3
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.ps, ps)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_step_results_are_fresh(self, fpu_sys, method):
        step = PUBLIC_STEPS[method]
        s0 = _random_fpu_state(7)
        q0, p0 = s0.q.copy(), s0.p.copy()
        s1 = step(fpu_sys, s0, 0.01)
        s2 = step(fpu_sys, s1, 0.01)
        q2, p2 = s2.q.copy(), s2.p.copy()
        assert np.array_equal(s0.q, q0) and np.array_equal(s0.p, p0)
        s1.q[:] = 1e3
        s1.p[:] = -1e3
        assert np.array_equal(s2.q, q2) and np.array_equal(s2.p, p2)

    def test_kick_slow_returns_fresh_positions(self, model50):
        s0 = State(0.0, [2.0], [1.0])
        s = kick_slow(model50, s0, 0.3)
        s.q[0] = 5.0
        assert s0.q[0] == 2.0

    @pytest.mark.parametrize("method,block", ALLOCATION_CASES, ids=ALLOCATION_IDS)
    def test_bound_step_allocates_no_array_data(self, method, block):
        # on the ell = 1000 lattice one state vector is 16 000 B; a step's
        # own bookkeeping (the iteration counter, a reduced scalar) is far
        # less.  A (2, d) block of the start (as propagation_matrix binds
        # one) runs the same array kernel, its cap test over the whole block
        sys_ = fpu_build(FpuParams(ell=1000, omega=50.0))
        state0 = fpu_initial_state(sys_)
        if block:
            q, p = np.array([[state0.q, state0.q], [state0.p, state0.p]])
        else:
            _, q, p = _state_buffers(sys_, state0)
        kernel = _kernel(sys_, _STATEMENTS[method], 0.01, q, p, substeps=3)
        kernel(1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for _ in range(50):
                assert kernel(1) == 1
            assert kernel(50) == 50
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < state0.q.nbytes

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_array_source_compiled_once_whatever_the_shape(self, method):
        # the array kernel's source depends on the method alone: bound to
        # the ell = 1000 lattice and then to a (2, 450) block of the model
        # system, as the resonance sweep binds one, it compiles once
        lattice = fpu_build(FpuParams(ell=1000, omega=50.0))
        _, q, p = _state_buffers(lattice, fpu_initial_state(lattice))
        _kernel(lattice, _STATEMENTS[method], 0.01, q, p, substeps=3)
        misses = steppers._factory.cache_info().misses
        model = coupled_oscillator_build(np.linspace(1.0, 450.0, 450))
        block = np.repeat(np.eye(2)[..., np.newaxis], 450, axis=-1)
        _kernel(model, _STATEMENTS[method], 0.1, *block, substeps=3)
        assert steppers._factory.cache_info().misses == misses


ALIGNMENT_SHAPES = ["lattice", "lattice-block", "model-block"]


def _kernel_arrays(kernel) -> dict:
    """The arrays a kernel binds, by name: its generator's locals (x and
    v, every constant, vector, scratch slot and _b) and, on the lattice,
    the force's scratch c and three and its stretches' a and b."""
    arrays = dict(kernel.__self__.gi_frame.f_locals)
    force = arrays["SLOW"]
    if inspect.isfunction(force):  # the lattice force; the model's is a partial
        scratch = inspect.getclosurevars(force).nonlocals
        stretches = inspect.getclosurevars(scratch["stretches"]).nonlocals
        arrays.update(c=scratch["c"], three=scratch["three"], a=stretches["a"], b=stretches["b"])
    return {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}


class TestAlignment:
    """Every buffer a kernel binds starts on a 64-byte boundary, where
    numpy's AVX-512 loops store whole vectors: the run state z = [q | p]
    and its views, and the array kernel's and the lattice force's own."""

    @pytest.mark.parametrize("shape", ALIGNMENT_SHAPES)
    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_kernel_buffers_start_on_64_byte_boundaries(self, method, shape):
        if shape == "model-block":
            # a (2, 450) block of the model system, as the resonance sweep binds
            sys_ = coupled_oscillator_build(np.linspace(1.0, 450.0, 450))
            q, p = np.repeat(np.eye(2)[..., np.newaxis], 450, axis=-1)
        else:
            sys_ = fpu_build(FpuParams(ell=1000, omega=50.0))
            state0 = fpu_initial_state(sys_)
            z, q, p = _state_buffers(sys_, state0)
            if shape == "lattice-block":
                q, p = np.array([[state0.q, state0.q], [state0.p, state0.p]])
        arrays = _kernel_arrays(_kernel(sys_, _STATEMENTS[method], 0.01, q, p, substeps=3))
        if shape == "lattice":
            assert arrays["x"] is q and arrays["v"] is p
            arrays.update(z=z)
        else:  # a block's q and p are the caller's
            del arrays["x"], arrays["v"]
        if sys_.ell is not None:
            assert {"a", "b", "c", "three"} <= arrays.keys()
        assert len(arrays) >= 5
        misaligned = {name: a.ctypes.data % 64 for name, a in arrays.items()
                      if a.ctypes.data % 64}
        assert not misaligned


def _unbindable(sys_, force):
    return OscillatorySystem(
        omega=sys_.omega,
        slow_potential=sys_.slow_potential,
        slow_force=force,
        label=sys_.label,
        ell=sys_.ell,
    )


class TestUnboundForce:
    """A slow force without SlowForce.bind (a lambda, a traced wrapper)
    runs through the copying adapter and gives the same trajectory."""

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    @pytest.mark.parametrize("system", ["fpu", "model"])
    def test_lambda_force_matches_bound_force_bit_for_bit(self, method, system):
        if system == "fpu":
            sys_ = fpu_build(FpuParams(ell=3, omega=50.0))
            state0 = fpu_initial_state(sys_)
        else:
            sys_ = coupled_oscillator_build(2.0)
            state0 = State(0.0, [1.0], [0.5])
        built_in = sys_.slow_force
        plain = _unbindable(sys_, lambda x: built_in(x))
        assert not hasattr(plain.slow_force, "bind")
        spec = StepperSpec(method=method, h=0.01, substeps=3)
        want = integrate(sys_, spec, state0, 2.0)
        got = integrate(plain, spec, state0, 2.0)
        assert want.completed and len(got.times) == len(want.times)
        assert np.array_equal(got.qs, want.qs) and np.array_equal(got.ps, want.ps)
        s_want = PUBLIC_STEPS[method](sys_, state0, 0.01)
        s_got = PUBLIC_STEPS[method](plain, state0, 0.01)
        assert np.array_equal(s_got.q, s_want.q) and np.array_equal(s_got.p, s_want.p)

    def test_wrapped_force_is_called_once_per_step(self, fpu_sys, fpu_state0):
        # functools.wraps copies an instance's __dict__ onto the wrapper, so
        # bind lives on the class and a wrapper never bypasses itself
        calls = []

        @functools.wraps(fpu_sys.slow_force)
        def traced(x):
            calls.append(1)
            return fpu_sys.slow_force(x)

        assert not hasattr(traced, "bind")
        traj = integrate(_unbindable(fpu_sys, traced), StepperSpec(Method.SV, h=0.01),
                         fpu_state0, 0.995)
        assert len(traj.times) - 1 == 100 and len(calls) == 101



class _NegativeForce(SlowForce):
    """The model's g(x) = -x as a user would write it: bind alone, so the
    base class's scalar_source says it has none."""

    def bind(self, x, out):
        return functools.partial(np.negative, x, out)


class TestBindOnlyForce:
    """A user SlowForce that only binds steps a short state on arrays, bit
    for bit as the built-in force steps it in floats."""

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_bind_only_force_matches_the_float_path_bit_for_bit(self, method):
        built_in = coupled_oscillator_build(2.0)
        user = dataclasses.replace(built_in, slow_force=_NegativeForce())
        for sys_, dialect in ((built_in, "_scalar_kernel"), (user, "_array_kernel")):
            kernel = _kernel(sys_, _STATEMENTS[method], 0.01, np.ones(1), np.ones(1), 3)
            assert _dialect(kernel) == dialect
        spec = StepperSpec(method=method, h=0.01, substeps=3)
        state0 = State(0.0, [1.0], [0.5])
        want, got = (integrate(s, spec, state0, 2.0) for s in (built_in, user))
        assert want.completed and got.completed
        _assert_same_bits(got.qs, want.qs)
        _assert_same_bits(got.ps, want.ps)

    def test_force_without_bind_raises_when_called(self):
        class Unbound(SlowForce):
            pass

        with pytest.raises(NotImplementedError):
            Unbound()(np.zeros(1))

FLOAT_CASES = [(m, 1) for m in ALL_METHODS if m is not Method.RESPA] + [
    (Method.RESPA, 10), (Method.RESPA, 100)]
# finite starts with both zeros, subnormals and squares or products that overflow
START = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-200, 1e154, -1e200, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _scaled_start(h, omega):
    """Start components in [-1, 1], both zeros and subnormals among them,
    scaled by 1/(1 + (h omega)^2)^20.  A Verlet step's spectral radius on a
    stiff axis is below 1 + (h omega)^2, so most examples run all 20 steps
    below the cap, where START stops most at the first."""
    scale = (1.0 + (h * omega) ** 2) ** -20.0
    unit = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310]), st.floats(-1.0, 1.0))
    return unit.map(lambda u: u * scale)


# A failing example is reported as found, unshrunk: shrinking one through
# 20 steps of every method took minutes, where finding it takes seconds.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def _assert_same_bits(got, want):
    # array_equal takes -0.0 == 0.0 and no NaN equal, so signs (a NaN's
    # too) and NaN positions are compared apart
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _dialect(kernel) -> str:
    """The factory that rendered a kernel: _scalar_kernel or _array_kernel."""
    return kernel.__self__.gi_code.co_name


def _run_kernel(sys_, method, h, substeps, z, n_steps, block):
    """Step the kernel bound to z[0] and z[1] n_steps steps, calling it for
    up to block steps at a time, and stop as integrate does.  Each call's
    return is checked against the exact cap test of the state it leaves.
    Returns the kernel, {step: state} for the start and the state each call
    leaves, and how the run ended: None, (step, "cap") or (step,
    NoConvergence's iteration count), a NoConvergence leaving the state
    before the failing step."""
    q, p = z
    kernel = _kernel(sys_, _STATEMENTS[method], h, q, p, substeps)
    states, n = {0: z.copy()}, 0
    while n < n_steps:
        todo = min(block, n_steps - n)
        try:
            within = kernel(todo)
        except NoConvergence as exc:
            assert 0 <= exc.steps < todo
            n += exc.steps
            if n in states:  # the state the call began with
                _assert_same_bits(z, states[n])
            states[n] = z.copy()
            return kernel, states, (n + 1, exc.iterations)
        assert type(within) is int and 0 <= within <= todo
        n += within + (within < todo)
        states[n] = z.copy()
        assert (within == todo) == bool(np.abs(z).max() <= steppers.BLOWUP_NORM_CAP)
        if within < todo:
            return kernel, states, (n, "cap")
    return kernel, states, None


# the n of the kernel calls: single steps, and blocks of 7 and 20 steps
BLOCKS = (1, 7, 20)


def _assert_scalar_kernel_matches_block(sys_, method, h, substeps, q0, p0, n_steps):
    """Step one state of sys_ by the kernel _kernel binds to it, the
    generated scalar kernel, and by the array kernel bound to the same
    state as a block of one, and hold every step of the two the same.
    Each kernel called for n steps at a time, n in BLOCKS, ends on the
    state and at the step where its single steps end, and leaves the
    states they leave."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            # z[0] is q and z[1] is p: shape (d,) each, or a (1, d) block
            z = np.array([q0, p0], dtype=float)
            starts = {"float": z, "array": z[:, np.newaxis]}
            runs = {(path, block): _run_kernel(sys_, method, h, substeps, start.copy(),
                                               n_steps, block)
                    for path, start in starts.items() for block in BLOCKS}
    got_kernel, got, got_end = runs["float", 1]
    want_kernel, want, want_end = runs["array", 1]
    assert _dialect(got_kernel) == "_scalar_kernel"
    assert _dialect(want_kernel) == "_array_kernel"
    assert got_end == want_end and got.keys() == want.keys()
    # A NaN (only ever in the last, blow-up state) may differ in sign:
    # where both operands of an add are NaN, numpy's in-place add on one
    # element returns the second, on more elements and in floats the first
    for step, z_want in want.items():
        z_got, z_want = got[step].ravel(), z_want.ravel()
        assert np.array_equal(z_got, z_want, equal_nan=True)
        signed = ~np.isnan(z_want)
        assert np.array_equal(np.signbit(z_got[signed]), np.signbit(z_want[signed]))
    for (path, block), (_, states, end) in runs.items():
        _, single, single_end = runs[path, 1]
        assert end == single_end
        for step, z_block in states.items():
            _assert_same_bits(z_block, single[step])


# the lattices the scalar kernels cover: the smallest, exchange's ell = 3,
# and the largest
SCALAR_ELLS = (1, 2, 3, steppers.SCALAR_MAX_D // 2)
LATTICE_CASES = [(m, 1) for m in ALL_METHODS if m is not Method.RESPA] + [
    (Method.RESPA, 1), (Method.RESPA, 10)]


class TestFloatKernels:
    """A single state of at most SCALAR_MAX_D axes steps in generated Python
    float code when its slow force has scalar source; each step is bit for
    bit the array kernels' on a block."""

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_cap_boundary_decided_as_on_the_array_path(self, method):
        # steps of 1e-20 leave a state at the cap where it is: one there is
        # kept, one a ulp past it stops the run at its first step, whether
        # the scalar kernel tests itself or integrate tests the array kernel
        sys_ = coupled_oscillator_build(2.0)
        plain = _unbindable(sys_, lambda x: sys_.slow_force(x))
        cap = steppers.BLOWUP_NORM_CAP
        spec = StepperSpec(method, h=1e-20)
        for p0, status in ((cap, COMPLETED), (np.nextafter(cap, np.inf), BLOWUP)):
            start = State(0.0, [cap], [p0])
            got, want = (integrate(s, spec, start, 2.5e-20) for s in (sys_, plain))
            assert got.status == want.status == status
            assert got.t_blowup == want.t_blowup
            assert np.array_equal(got.qs, want.qs) and np.array_equal(got.ps, want.ps)
            assert len(got.times) == (4 if status == COMPLETED else 2)

    @pytest.mark.parametrize("method,substeps", FLOAT_CASES,
                             ids=[f"{m.value}-{n}" for m, n in FLOAT_CASES])
    @given(q0=START, p0=START, h=st.floats(-0.5, 0.5), omega=st.floats(0.0, 1e4))
    @settings(max_examples=60, phases=NO_SHRINK)
    def test_float_kernel_matches_array_kernel_on_a_block(self, method, substeps, q0, p0, h, omega):
        _assert_scalar_kernel_matches_block(
            coupled_oscillator_build(omega), method, h, substeps, [q0], [p0], 20)

    @pytest.mark.parametrize("scaled", [False, True], ids=["start", "scaled"])
    @pytest.mark.parametrize("ell", SCALAR_ELLS)
    @pytest.mark.parametrize("method,substeps", LATTICE_CASES,
                             ids=[f"{m.value}-{n}" for m, n in LATTICE_CASES])
    @given(data=st.data(), h=st.floats(-0.5, 0.5), omega=st.floats(1e-3, 1e4))
    @settings(max_examples=15, phases=NO_SHRINK)
    def test_scalar_kernel_matches_array_kernel_on_a_lattice_block(
        self, method, substeps, ell, scaled, data, h, omega
    ):
        component = _scaled_start(h, omega) if scaled else START
        z = st.lists(component, min_size=2 * ell, max_size=2 * ell)
        _assert_scalar_kernel_matches_block(
            fpu_build(FpuParams(ell, omega)), method, h, substeps, data.draw(z), data.draw(z), 20)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_canonical_lattice_start_keeps_every_sign(self, method):
        # the canonical start is mostly zeros, some of which stay zeros for
        # many steps; every sign is held for 1000 steps, and any cube other
        # than numpy's power (libm's **, for one) moves the state within them
        sys_ = fpu_build(FpuParams(steppers.SCALAR_MAX_D // 2, 50.0))
        start = fpu_initial_state(sys_)
        _assert_scalar_kernel_matches_block(sys_, method, 0.01, 10, start.q, start.p, 1000)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=[m.value for m in ALL_METHODS])
    def test_zero_frequency_axes_keep_signed_zeros(self, method):
        # The soft axes of a lattice have w2 = 0 (and RESPA's -w2 = -0.0).
        # Here soft axes 1 and 3 sit at x < 0 and x > 0 with momentum -0.0
        # under a force of -0.0: the stretches (1, -2, 6, -1) * 1e-200 cube
        # to +-0.0.  So 0.0 * x and -0.0 * x decide the sign of a zero
        # momentum, and a kernel that folded either product would flip it.
        sys_ = fpu_build(FpuParams(3, 50.0))
        q0 = np.array([-1.0, -5.0, 1.0, -2.0, 0.0, 0.0]) * 1e-200
        p0 = [-0.0, -0.0, -0.0, 0.0, -0.0, 0.0]
        _assert_scalar_kernel_matches_block(sys_, method, 0.01, 10, q0, p0, 20)

    def test_dispatch(self):
        # generated for a single state of up to SCALAR_MAX_D axes whose
        # force has scalar source; arrays for a longer state, a block and a
        # force without it
        def bound(sys_, shape):
            return _dialect(_kernel(sys_, _STATEMENTS[Method.IMEX], 0.01, np.zeros(shape),
                                    np.zeros(shape)))

        d = steppers.SCALAR_MAX_D
        for n in (1, d):
            sys_ = coupled_oscillator_build(np.full(n, 2.0))
            assert bound(sys_, n) == "_scalar_kernel"
            assert bound(sys_, (1, n)) == "_array_kernel"
            assert bound(_unbindable(sys_, lambda x: -x), n) == "_array_kernel"
        assert bound(coupled_oscillator_build(np.full(d + 1, 2.0)), d + 1) == "_array_kernel"
        assert bound(fpu_build(FpuParams(d // 2, 50.0)), d // 2 * 2) == "_scalar_kernel"
        assert bound(fpu_build(FpuParams(d // 2 + 1, 50.0)), d // 2 * 2 + 2) == "_array_kernel"


class TestDeclaredMethod:
    def test_a_method_is_one_declaration(self):
        # A method declared here, its constants beside its statements: third
        # a float (from h alone), den per-axis (from w2).  On the ell = 3
        # lattice, whose soft and stiff axes have different w2, the float
        # kernel on one state and the array kernel on a block of that one
        # state take the same 300 steps bit for bit, each axis on its own den.
        statements = steppers._splitting("declared", (
            "x = (x + third * v) / den",
            "v = v - third * (w2 * x)",
        ), consts=("third = h / 3.0", "den = 1.0 + third * third * w2"))
        sys_ = fpu_build(FpuParams(3, 50.0))
        start = fpu_initial_state(sys_)

        def run(shape):
            q, p = start.q.reshape(shape).copy(), start.p.reshape(shape).copy()
            kernel = _kernel(sys_, statements, 0.01, q, p)
            states = []
            for _ in range(300):
                assert kernel(1) == 1
                states.append(np.concatenate([q.ravel(), p.ravel()]))
            return kernel, np.array(states)

        (floats, got), (arrays, want) = run(6), run((1, 6))
        assert (_dialect(floats), _dialect(arrays)) == ("_scalar_kernel", "_array_kernel")
        _assert_same_bits(got, want)
        assert np.abs(got).max() < 10.0
        third = 0.01 / 3.0
        scalars = floats.__self__.gi_frame.f_locals
        den = arrays.__self__.gi_frame.f_locals["den"]
        assert scalars["third"] == third
        assert [scalars[f"den_{i}"] for i in range(6)] == den.ravel().tolist()
        assert den[0, 0] == 1.0 and den[0, 3] == 1.0 + third * third * 2500.0
