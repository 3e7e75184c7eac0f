"""Unit tests for the discrete Lagrangians, their partials, and the
discrete Euler-Lagrange / Legendre machinery (tests/variational.py)."""
import numpy as np
import pytest

from oscint import steppers
from oscint.linalg import NotPositiveDefinite
from oscint.steppers import (
    step_imex,
    step_midpoint_full,
    step_stormer_verlet,
)
from oscint.systems import OscillatorySystem, State
from variational import (
    DiscreteLagrangian,
    Quadrature,
    del_residual,
    ld_d1,
    ld_d2,
    ld_value,
    legendre_minus,
    legendre_plus,
    modified_mass,
)


def _fast_only_system(d: int, omega: float) -> OscillatorySystem:
    return OscillatorySystem(
        omega=np.full(d, float(omega)),
        slow_potential=lambda q: 0.0,
        slow_force=lambda q: np.zeros(d),
        label="fast-only",
    )


class TestLdValue:
    def test_free_particle_all_variants(self):
        sys_ = _fast_only_system(2, 0.0)
        q0 = np.array([0.5, -1.0])
        q1 = np.array([1.5, 2.0])
        h = 0.2
        v = (q1 - q0) / h
        want = 0.5 * h * float(v @ v)
        for variant in Quadrature:
            ld = DiscreteLagrangian(sys_, h, variant)
            assert ld_value(ld, q0, q1) == pytest.approx(want, rel=1e-14)

    def test_split_quadrature_hand_value(self):
        # kinetic 0.05, midpoint fast term 0.1 * 0.5 * 2500 * 0.05^2
        sys_ = _fast_only_system(1, 50.0)
        ld = DiscreteLagrangian(sys_, 0.1, Quadrature.IMEX)
        assert ld_value(ld, [0.0], [0.1]) == pytest.approx(-0.2625, rel=1e-14)

    def test_split_quadrature_d1_hand_value(self):
        sys_ = _fast_only_system(1, 50.0)
        ld = DiscreteLagrangian(sys_, 0.1, Quadrature.IMEX)
        assert ld_d1(ld, [0.0], [0.1]) == pytest.approx([-7.25], rel=1e-14)

    def test_split_equals_endpoint_when_no_fast_part(self, fpu_sys):
        # with Omega = 0 the split quadrature coincides with the endpoint one
        sys_ = OscillatorySystem(
            omega=np.zeros(6),
            slow_potential=fpu_sys.slow_potential,
            slow_force=fpu_sys.slow_force,
            label="soft-only",
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            q0 = rng.standard_normal(6)
            q1 = rng.standard_normal(6)
            split = ld_value(DiscreteLagrangian(sys_, 0.1, Quadrature.IMEX), q0, q1)
            endpoint = ld_value(DiscreteLagrangian(sys_, 0.1, Quadrature.TRAPEZOIDAL), q0, q1)
            assert split == endpoint

    def test_split_identity_with_modified_mass(self, fpu_sys):
        # split quadrature with unit mass == endpoint quadrature carrying
        # the modified mass, value and both partials
        h = 0.1
        split = DiscreteLagrangian(fpu_sys, h, Quadrature.IMEX)
        endpoint = DiscreteLagrangian(
            fpu_sys, h, Quadrature.TRAPEZOIDAL, mass=modified_mass(h, fpu_sys.omega2)
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            q0 = rng.standard_normal(6)
            q1 = rng.standard_normal(6)
            a = ld_value(split, q0, q1)
            b = ld_value(endpoint, q0, q1)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
            for da, db in ((ld_d1(split, q0, q1), ld_d1(endpoint, q0, q1)),
                           (ld_d2(split, q0, q1), ld_d2(endpoint, q0, q1))):
                assert np.max(np.abs(da - db)) <= 1e-12 * (1.0 + np.max(np.abs(da)))


class TestPartials:
    def test_free_particle_partials(self):
        sys_ = _fast_only_system(2, 0.0)
        ld = DiscreteLagrangian(sys_, 0.25, Quadrature.MIDPOINT)
        q0 = np.array([1.0, 0.0])
        q1 = np.array([0.0, 2.0])
        v = (q1 - q0) / 0.25
        assert ld_d1(ld, q0, q1) == pytest.approx(-v, rel=1e-14)
        assert ld_d2(ld, q0, q1) == pytest.approx(v, rel=1e-14)

    @pytest.mark.parametrize("variant", list(Quadrature))
    @pytest.mark.parametrize("with_mass", [False, True])
    def test_partials_match_finite_differences(self, fpu_sys, variant, with_mass):
        h = 0.05
        mass = modified_mass(h, fpu_sys.omega2) if with_mass else None
        ld = DiscreteLagrangian(fpu_sys, h, variant, mass=mass)
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(3):
            q0 = rng.standard_normal(6)
            q1 = rng.standard_normal(6)
            for slot, analytic in ((0, ld_d1), (1, ld_d2)):
                got = analytic(ld, q0, q1)
                fd = np.zeros(6)
                for i in range(6):
                    args_p = [q0.copy(), q1.copy()]
                    args_m = [q0.copy(), q1.copy()]
                    args_p[slot][i] += eps
                    args_m[slot][i] -= eps
                    fd[i] = (ld_value(ld, *args_p) - ld_value(ld, *args_m)) / (2 * eps)
                assert np.max(np.abs(got - fd)) <= 1e-6 * (1.0 + np.max(np.abs(got)))


class TestLegendreConsistency:
    """The discrete Legendre transforms must reproduce the momenta of the
    stepper generated by the same quadrature."""

    def test_split_quadrature_matches_splitting_step(self, fpu_sys, fpu_state0):
        h = 0.02
        ld = DiscreteLagrangian(fpu_sys, h, Quadrature.IMEX)
        s0 = fpu_state0
        s1 = step_imex(fpu_sys, s0, h)
        assert np.max(np.abs(legendre_minus(ld, s0.q, s1.q) - s0.p)) <= 1e-10
        assert np.max(np.abs(legendre_plus(ld, s0.q, s1.q) - s1.p)) <= 1e-10

    def test_endpoint_quadrature_matches_verlet(self, fpu_sys, fpu_state0):
        h = 0.005  # endpoint quadrature needs h*omega small to stay stable
        ld = DiscreteLagrangian(fpu_sys, h, Quadrature.TRAPEZOIDAL)
        s0 = fpu_state0
        s1 = step_stormer_verlet(fpu_sys, s0, h)
        assert np.max(np.abs(legendre_minus(ld, s0.q, s1.q) - s0.p)) <= 1e-10
        assert np.max(np.abs(legendre_plus(ld, s0.q, s1.q) - s1.p)) <= 1e-10

    def test_midpoint_quadrature_matches_implicit_midpoint(self, fpu_sys, fpu_state0, monkeypatch):
        h = 0.005
        ld = DiscreteLagrangian(fpu_sys, h, Quadrature.MIDPOINT)
        s0 = fpu_state0
        monkeypatch.setattr(steppers, "FP_TOL", 1e-14)
        s1 = step_midpoint_full(fpu_sys, s0, h)
        # limited by the fixed-point tolerance, not by the formulas
        assert np.max(np.abs(legendre_minus(ld, s0.q, s1.q) - s0.p)) <= 1e-8
        assert np.max(np.abs(legendre_plus(ld, s0.q, s1.q) - s1.p)) <= 1e-8


class TestDelResidual:
    def test_zero_along_matching_trajectory(self, fpu_sys, fpu_state0):
        h = 0.02
        ld = DiscreteLagrangian(fpu_sys, h, Quadrature.IMEX)
        states = [fpu_state0]
        for _ in range(20):
            states.append(step_imex(fpu_sys, states[-1], h))
        for prev, mid, nxt in zip(states, states[1:], states[2:]):
            res = del_residual(ld, prev.q, mid.q, nxt.q)
            assert np.max(np.abs(res)) <= 1e-11

    def test_nonzero_off_trajectory(self, fpu_sys):
        ld = DiscreteLagrangian(fpu_sys, 0.1, Quadrature.IMEX)
        rng = np.random.default_rng(4)
        res = del_residual(ld, rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(6))
        assert np.max(np.abs(res)) > 1e-3


class TestValidation:
    def test_h_must_be_positive(self, fpu_sys):
        for h in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                DiscreteLagrangian(fpu_sys, h, Quadrature.IMEX)

    def test_mass_shape_checked(self, fpu_sys):
        with pytest.raises(ValueError):
            DiscreteLagrangian(fpu_sys, 0.1, Quadrature.IMEX, mass=np.eye(2))

    def test_mass_must_be_spd(self, fpu_sys):
        bad = -np.eye(6)
        with pytest.raises(NotPositiveDefinite):
            DiscreteLagrangian(fpu_sys, 0.1, Quadrature.IMEX, mass=bad)
