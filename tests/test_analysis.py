"""Unit tests for the diagnostics: modified frequency/mass, propagation
matrices, stability classification, energy errors, windowed means."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from oscint.analysis import (
    ENERGY_ERROR_CAP,
    DegenerateInput,
    convergence_order,
    imex_stability,
    max_energy_error,
    modified_frequency,
    propagation_matrix,
    windowed_mean,
)
from oscint.linalg import spd_factor
from oscint.steppers import BLOWUP, COMPLETED, Method, StepperSpec, Trajectory, step_imex
from oscint.systems import State, coupled_oscillator_build
from variational import modified_mass

STABLE_H = (1.0, 1.5, 1.9, 1.99)
UNSTABLE_H = (2.01, 2.5, 3.0)
OMEGAS = (0.0, 1.0, 10.0, 1e3, 1e6)

EPS = np.finfo(float).eps


def imex_matrix(h, omega):
    return propagation_matrix(StepperSpec(Method.IMEX, h), omega)


def respa_matrix(h, omega, substeps):
    return propagation_matrix(StepperSpec(Method.RESPA, h, substeps), omega)


class TestModifiedFrequency:
    def test_zero_omega(self):
        assert modified_frequency(0.5, 0.0) == 0.0

    def test_small_step_limit(self):
        assert abs(modified_frequency(1e-6, 50.0) / 50.0 - 1.0) <= 1e-9

    def test_hand_value(self):
        got = modified_frequency(0.1, 50.0)
        assert got == pytest.approx(2.0 * math.atan(2.5) / 0.1, rel=1e-15)
        assert math.tan(0.05 * got) == pytest.approx(2.5, rel=1e-12)

    def test_tangent_identity_where_float64_can_express_it(self):
        # the roundtrip tan(h w~ / 2) = h omega / 2 amplifies one ulp of w~
        # by ~(pi/2) a, a = h omega / 2, so it is checkable at 1e-12 only up
        # to a ~ 1.5e3; the 1e6 column is covered by the high-precision test
        for h in STABLE_H + UNSTABLE_H:
            for omega in OMEGAS[1:]:
                a = 0.5 * h * omega
                if a > 1.5e3:
                    continue
                got = math.tan(0.5 * h * modified_frequency(h, omega))
                assert abs(got - a) <= 1e-12 * a

    def test_correctly_rounded_against_high_precision(self):
        # w~ itself is within 2 ulp of the exact 2 atan(h omega/2)/h across
        # the whole grid, including the corner the tangent roundtrip cannot
        # resolve in float64
        with mp.workdps(40):
            for h in STABLE_H + UNSTABLE_H:
                for omega in OMEGAS:
                    got = modified_frequency(h, omega)
                    want = 2 * mp.atan(mpf(0.5) * mpf(h) * mpf(omega)) / mpf(h)
                    assert abs(mpf(got) - want) <= 2 * np.spacing(got)

    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_arccos_form_agrees(self, h, omega):
        # analytically identical; in float64 the arccos route loses accuracy
        # like eps (1 + a^2)/(2a) in the angle at both ends of the a range,
        # so the comparison carries a conditioning-scaled tolerance
        a = 0.5 * h * omega
        angle_atan = h * modified_frequency(h, omega)
        angle_acos = math.acos((1.0 - a * a) / (1.0 + a * a))
        if a == 0.0:
            assert angle_acos == angle_atan == 0.0
            return
        tol = 1e-12 * angle_atan + 8.0 * EPS * (1.0 + a * a) / (2.0 * a)
        assert abs(angle_acos - angle_atan) <= tol

    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_below_alias_limit(self, h, omega):
        assert 0.0 <= modified_frequency(h, omega) < math.pi / h

    def test_invalid_arguments(self):
        for h, omega in ((0.0, 1.0), (0.1, -1.0), (math.inf, 1.0), (math.nan, 1.0),
                         (0.1, math.inf), (0.1, math.nan)):
            with pytest.raises(ValueError):
                modified_frequency(h, omega)


class TestModifiedMass:
    def test_zero_omega_is_identity(self):
        assert np.array_equal(modified_mass(0.3, [[0.0]]), [[1.0]])

    def test_scalar_value(self):
        got = modified_mass(0.1, [[2500.0]])
        assert got[0][0] == pytest.approx(1.0 + 6.25, rel=1e-15)

    def test_lattice_blocks(self, fpu_sys):
        got = modified_mass(0.1, fpu_sys.omega2)
        want = np.eye(6) + 0.25 * 0.01 * fpu_sys.omega2
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        spd_factor(got)  # must be positive definite

    def test_invalid_arguments(self):
        for h, omega2 in ((math.nan, [[1.0]]), (math.inf, [[1.0]]), (0.1, [[math.inf]])):
            with pytest.raises(ValueError):
                modified_mass(h, omega2)

    def test_non_finite_entries_named_before_symmetry(self):
        for omega2 in ([[math.nan]], [[1.0, math.nan], [math.nan, 1.0]], [[-math.inf]]):
            with pytest.raises(ValueError, match="must be finite"):
                modified_mass(0.1, omega2)


class TestPropagationMatrices:
    def test_matrix_reproduces_linear_step(self):
        sys_ = coupled_oscillator_build(7.0)
        h = 0.3
        p_mat = imex_matrix(h, 7.0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(2)
            stepped = step_imex(sys_, State(0.0, [x[0]], [x[1]]), h)
            got = p_mat @ x
            assert got == pytest.approx([stepped.q[0], stepped.p[0]], rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("h", [0.1, 1.0, 2.5])
    @pytest.mark.parametrize("omega", [1.0, 50.0, 1e3])
    def test_imex_matrix_against_direct_product(self, h, omega):
        # independent derivation: half kick of the unit soft spring around
        # the closed-form midpoint rotation of the stiff spring
        a2 = (0.5 * h * omega) ** 2
        kick = np.array([[1.0, 0.0], [-0.5 * h, 1.0]])
        mid = np.array([[1.0 - a2, h], [-h * omega * omega, 1.0 - a2]]) / (1.0 + a2)
        want = kick @ mid @ kick
        got = imex_matrix(h, omega)
        # the production path rounds through the (1 + a^2)-scaled midpoint
        # solve, so entrywise agreement degrades with that scale
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + a2)

    @pytest.mark.parametrize("substeps", [1, 3, 10])
    def test_respa_matrix_against_direct_product(self, substeps):
        h, omega = 0.1, 40.0
        dt = h / substeps
        kick = np.array([[1.0, 0.0], [-0.5 * h, 1.0]])
        half = np.array([[1.0, 0.0], [-0.5 * dt * omega * omega, 1.0]])
        drift = np.array([[1.0, dt], [0.0, 1.0]])
        inner = half @ drift @ half
        want = kick @ np.linalg.matrix_power(inner, substeps) @ kick
        got = respa_matrix(h, omega, substeps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_determinant_one(self):
        for h in STABLE_H + UNSTABLE_H:
            for omega in OMEGAS:
                mat = imex_matrix(h, omega)
                assert abs(np.linalg.det(mat) - 1.0) <= 1e-12
            # the impulse matrix only where its inner loop resolves the
            # stiff period: past that its entries explode and the float64
            # determinant measures cancellation, not structure
            for omega in (0.0, 1.0, 10.0):
                mat = respa_matrix(h, omega, 100)
                assert abs(np.linalg.det(mat) - 1.0) <= 1e-12


class TestStability:
    def test_threshold_is_two_for_every_omega(self):
        for omega in OMEGAS:
            for h in STABLE_H:
                assert imex_stability(h, omega).stable, (h, omega)
            for h in UNSTABLE_H:
                assert not imex_stability(h, omega).stable, (h, omega)

    def test_report_fields(self):
        rep = imex_stability(1.0, 10.0)
        assert rep.method == "imex"
        assert rep.h == 1.0 and rep.omega == 10.0
        assert rep.spectral_radius == pytest.approx(1.0, abs=1e-12)

    def test_eigenangle_matches_effective_frequency(self):
        # stable steps rotate by 2 asin(h w_eff / 2) per step with
        # w_eff = sqrt((1 + omega^2)/(1 + (h omega/2)^2)); angle extraction
        # near pi is sqrt(eps)-limited, hence the 1e-8 tolerance
        for h in STABLE_H:
            for omega in OMEGAS:
                eigs = np.linalg.eigvals(imex_matrix(h, omega))
                theta = float(np.abs(np.angle(eigs[0])))
                w_eff = math.sqrt((1.0 + omega * omega) / (1.0 + (0.5 * h * omega) ** 2))
                assert abs(theta - 2.0 * math.asin(0.5 * h * w_eff)) <= 1e-8


def _toy_traj(energies, status=COMPLETED):
    energies = np.asarray(energies, dtype=float)
    n = len(energies)
    return Trajectory(
        times=np.arange(n, dtype=float),
        qs=np.zeros((n, 1)),
        ps=np.zeros((n, 1)),
        energies=energies,
        stiff=None,
        status=status,
        t_blowup=None if status == COMPLETED else float(n - 1),
        blowup_cause=None if status == COMPLETED else "state norm cap exceeded",
        h=1.0,
        method="sv",
        system="toy",
        final_state=State(float(n - 1), [0.0], [0.0]),
    )


class TestMaxEnergyError:
    def test_plain_deviation(self):
        assert max_energy_error(_toy_traj([1.0, 1.5, 0.25])) == 0.75

    def test_blowup_reports_cap(self):
        traj = _toy_traj([1.0, 1e30], status=BLOWUP)
        assert max_energy_error(traj) == ENERGY_ERROR_CAP

    def test_nan_energy_reports_cap(self):
        assert max_energy_error(_toy_traj([1.0, np.nan])) == ENERGY_ERROR_CAP


class TestWindowedMean:
    def test_constant_series_stays_constant(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.full(101, 0.7)
        assert windowed_mean(t, v, 1.0) == pytest.approx(v, rel=1e-13)

    def test_narrow_window_is_identity(self):
        t = np.arange(5.0)
        v = np.array([3.0, -1.0, 4.0, -1.0, 5.0])
        assert windowed_mean(t, v, 0.5) == pytest.approx(v, rel=1e-12)

    def test_linear_ramp_interior_unchanged(self):
        # integer sample times and a half-integer window keep every boundary
        # strictly between samples, so interior windows are exactly symmetric
        t = np.arange(201.0)
        v = 2.0 * t
        wm = windowed_mean(t, v, 5.0)
        interior = slice(3, 198)
        assert wm[interior] == pytest.approx(v[interior], rel=1e-12)
        # truncated end windows are one-sided, so they bias inward
        assert wm[0] > v[0]
        assert wm[-1] < v[-1]

    def test_window_covering_everything_gives_global_mean(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0.0, 5.0, size=40))
        t += np.arange(40) * 1e-9  # enforce strict monotonicity
        v = rng.standard_normal(40)
        wm = windowed_mean(t, v, 2.0 * (t[-1] - t[0]) + 1.0)
        assert wm == pytest.approx(np.full(40, v.mean()), rel=1e-12, abs=1e-14)

    @given(st.integers(0, 10_000), st.floats(min_value=1e-3, max_value=1e3))
    def test_output_bounded_by_input_range(self, seed, window):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        t = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        v = rng.uniform(-1e6, 1e6, size=n)
        wm = windowed_mean(t, v, window)
        # slack covers cumulative-sum rounding at this magnitude
        assert np.all(wm >= v.min() - 1e-6)
        assert np.all(wm <= v.max() + 1e-6)

    def test_invalid_arguments(self):
        t = np.arange(4.0)
        v = np.zeros(4)
        for window in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                windowed_mean(t, v, window)
        with pytest.raises(ValueError):
            windowed_mean(np.array([0.0, 0.0, 1.0, 2.0]), v, 1.0)
        with pytest.raises(ValueError):
            windowed_mean(t, np.zeros(3), 1.0)
        for bad in ([0.0, math.nan, 2.0, 3.0], [0.0, 1.0, 2.0, math.inf]):
            with pytest.raises(ValueError, match="times must be finite"):
                windowed_mean(np.array(bad), v, 1.0)


class TestConvergenceOrder:
    def test_exact_power_law(self):
        errors = [(h, 3.0 * h ** 2) for h in (0.1, 0.05, 0.025, 0.0125)]
        assert convergence_order(errors) == pytest.approx(2.0, abs=1e-10)

    def test_first_order(self):
        errors = [(h, 0.5 * h) for h in (0.2, 0.1, 0.05)]
        assert convergence_order(errors) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_errors_rejected(self):
        with pytest.raises(DegenerateInput):
            convergence_order([(0.1, 0.0), (0.05, 1e-3)])
        with pytest.raises(DegenerateInput):
            convergence_order([(0.1, float("inf")), (0.05, 1e-3)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1e-3)])
