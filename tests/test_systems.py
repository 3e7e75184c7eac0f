"""Unit tests for the system builders, the lattice transform, and diagnostics."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscint.systems import (
    FpuParams,
    OscillatorySystem,
    State,
    coupled_oscillator_build,
    fpu_build,
    fpu_initial_state,
    fpu_inverse_transform,
    fpu_transform,
    stiff_energies,
)


def _fd_gradient(f, q, eps=1e-5):
    g = np.zeros_like(q)
    for i in range(q.size):
        qp = q.copy()
        qm = q.copy()
        qp[i] += eps
        qm[i] -= eps
        g[i] = (f(qp) - f(qm)) / (2.0 * eps)
    return g


class TestState:
    def test_scalars_become_vectors(self):
        s = State(0.0, 1.0, 2.0)
        assert s.q.shape == (1,) and s.p.shape == (1,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            State(0.0, [1.0, 2.0], [1.0])


class TestCoupledOscillator:
    def test_slow_potential_and_force(self):
        sys_ = coupled_oscillator_build(50.0)
        q = np.array([2.0])
        assert sys_.slow_potential(q) == 2.0
        assert sys_.slow_force(q) == pytest.approx([-2.0])
        assert np.array_equal(sys_.omega2, [[2500.0]])
        assert np.array_equal(sys_.omega, [50.0])

    def test_zero_point(self):
        sys_ = coupled_oscillator_build(1.0)
        q = np.zeros(1)
        assert sys_.slow_potential(q) == 0.0
        assert sys_.slow_force(q) == pytest.approx([0.0])

    def test_fast_potential(self):
        sys_ = coupled_oscillator_build(10.0)
        assert sys_.fast_potential(np.array([1.0])) == pytest.approx(50.0)

    def test_total_energy(self):
        sys_ = coupled_oscillator_build(3.0)
        q, p = np.array([2.0]), np.array([1.0])
        assert sys_.total_energy(q, p) == pytest.approx(0.5 + 9.0 * 2.0 + 2.0)

    def test_omega_zero_allowed(self):
        sys_ = coupled_oscillator_build(0.0)
        assert sys_.fast_potential(np.array([3.0])) == 0.0

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            coupled_oscillator_build(-1.0)


class TestSystemValidation:
    def test_omega2_shape_checked(self):
        # the frequencies are one vector, one entry per axis
        with pytest.raises(ValueError):
            OscillatorySystem(
                omega=np.zeros((2, 2)),
                slow_potential=lambda q: 0.0,
                slow_force=lambda q: np.zeros(2),
                label="bad",
            )

    def test_negative_omega_diag_rejected(self):
        with pytest.raises(ValueError):
            OscillatorySystem(
                omega=np.array([-2.0]),
                slow_potential=lambda q: 0.0,
                slow_force=lambda q: np.zeros(1),
                label="bad",
            )

    # 1e308 is finite, but its square, the stiff force's w2, is not
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_non_finite_omega_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            coupled_oscillator_build(bad)
        with pytest.raises(ValueError):
            fpu_build(FpuParams(ell=2, omega=bad))

    def test_omega2_is_a_read_only_dense_view(self, fpu_sys):
        assert not fpu_sys.omega2.flags.writeable
        assert np.array_equal(fpu_sys.omega2, np.diag(fpu_sys.w2))
        assert fpu_sys.d == 6


class TestFpuBuild:
    def test_quartic_at_canonical_start(self, fpu_sys):
        x = fpu_initial_state(fpu_sys).q
        # surviving terms: (1 - 0.02)^4 and (-1 - 0.02)^4, quartered
        want = 0.25 * (0.98 ** 4 + 1.02 ** 4)
        assert fpu_sys.slow_potential(x) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.50120008, abs=1e-8)

    def test_zero_state(self, fpu_sys):
        x = np.zeros(6)
        assert fpu_sys.slow_potential(x) == 0.0
        assert fpu_sys.slow_force(x) == pytest.approx(np.zeros(6))

    def test_single_spring_closed_form(self):
        sys_ = fpu_build(FpuParams(ell=1, omega=10.0))
        for c in (0.3, 1.7):
            x = np.array([c, 0.0])
            assert sys_.slow_potential(x) == pytest.approx(c ** 4 / 2.0, rel=1e-14)

    def test_omega2_blocks(self, fpu_sys):
        want = np.diag([0.0, 0.0, 0.0, 2500.0, 2500.0, 2500.0])
        assert np.array_equal(fpu_sys.omega2, want)

    def test_omega2_annihilates_soft_block(self, fpu_sys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        assert np.array_equal((fpu_sys.omega2 @ x)[:3], np.zeros(3))

    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_force_is_negative_gradient(self, ell):
        sys_ = fpu_build(FpuParams(ell=ell, omega=50.0))
        rng = np.random.default_rng(ell)
        for _ in range(5):
            x = rng.standard_normal(2 * ell)
            fd = _fd_gradient(sys_.slow_potential, x)
            g = sys_.slow_force(x)
            assert np.max(np.abs(g + fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))

    def test_model_force_is_negative_gradient(self):
        sys_ = coupled_oscillator_build(50.0)
        q = np.array([1.3])
        fd = _fd_gradient(sys_.slow_potential, q)
        assert sys_.slow_force(q) == pytest.approx(-fd, rel=1e-8)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FpuParams(ell=0, omega=50.0)
        with pytest.raises(ValueError):
            FpuParams(ell=3, omega=0.0)
        # the canonical start's stiff position 1/omega would overflow
        with pytest.raises(ValueError, match="finite reciprocal"):
            FpuParams(ell=3, omega=5e-324)

    @pytest.mark.parametrize("ell", [2.5, float("nan")])
    def test_non_integer_ell_rejected(self, ell):
        with pytest.raises(ValueError, match="ell must be an integer"):
            FpuParams(ell=ell, omega=50.0)


class TestTransform:
    def test_zero(self):
        x, y = fpu_transform(np.zeros(2), np.zeros(2))
        assert np.array_equal(x, np.zeros(2)) and np.array_equal(y, np.zeros(2))

    def test_equal_pair_goes_to_average_slot(self):
        x, y = fpu_transform([1.0, 1.0], [0.0, 0.0])
        assert x == pytest.approx([np.sqrt(2.0), 0.0])

    def test_inverse_of_known_point(self):
        q, p = fpu_inverse_transform([np.sqrt(2.0), 0.0], [0.0, 0.0])
        assert q == pytest.approx([1.0, 1.0])

    @given(st.integers(0, 10_000))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        ell = int(rng.integers(1, 5))
        q = rng.standard_normal(2 * ell)
        p = rng.standard_normal(2 * ell)
        x, y = fpu_transform(q, p)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(q), rel=1e-12)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(p), rel=1e-12)

    @given(st.integers(0, 10_000))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        ell = int(rng.integers(1, 5))
        x = rng.standard_normal(2 * ell)
        y = rng.standard_normal(2 * ell)
        q, p = fpu_inverse_transform(x, y)
        x2, y2 = fpu_transform(q, p)
        assert np.max(np.abs(x2 - x)) <= 1e-14 * (1.0 + np.max(np.abs(x)))
        assert np.max(np.abs(y2 - y)) <= 1e-14 * (1.0 + np.max(np.abs(y)))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            fpu_transform(np.zeros(3), np.zeros(3))


def _per_mass_energy(q, p, omega):
    """Lattice energy in the per-mass coordinates with fixed walls."""
    kinetic = 0.5 * float(p @ p)
    stiff = 0.25 * omega * omega * float(np.sum((q[1::2] - q[0::2]) ** 2))
    walls = np.concatenate([[0.0], q, [0.0]])
    quartic = float(np.sum((walls[1::2] - walls[0::2]) ** 4))
    return kinetic + stiff + quartic


class TestEnergies:
    def test_hamiltonian_at_canonical_start(self, fpu_sys):
        state = fpu_initial_state(fpu_sys)
        want = 0.5 * 2.0 + 0.5 + 0.25 * (0.98 ** 4 + 1.02 ** 4)
        assert fpu_sys.total_energy(state.q, state.p) == pytest.approx(want, rel=1e-12)

    def test_hamiltonian_zero_state(self, fpu_sys):
        assert fpu_sys.total_energy(np.zeros(6), np.zeros(6)) == 0.0

    def test_hamiltonian_single_extension(self, fpu_sys):
        c = 0.37
        q = np.zeros(6)
        q[3] = c
        h = fpu_sys.total_energy(q, np.zeros(6))
        assert h == pytest.approx(2500.0 * c * c / 2.0 + c ** 4 / 2.0, rel=1e-12)

    def test_hamiltonian_agrees_with_per_mass_coordinates(self, fpu_sys):
        # the averaged/extension form must be the same function as the
        # per-mass form composed with the inverse transform
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            q, p = fpu_inverse_transform(x, y)
            want = _per_mass_energy(q, p, 50.0)
            got = fpu_sys.total_energy(x, y)
            assert got == pytest.approx(want, rel=1e-10)

    def test_stiff_energies_at_canonical_start(self, fpu_sys):
        s0 = fpu_initial_state(fpu_sys)
        per_spring = stiff_energies(fpu_sys, s0.q, s0.p)
        total = per_spring.sum()
        assert per_spring == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_stiff_energies_momentum_only(self, fpu_sys):
        p = np.zeros(6)
        p[4] = 3.0
        per_spring = stiff_energies(fpu_sys, np.zeros(6), p)
        total = per_spring.sum()
        assert per_spring == pytest.approx([0.0, 4.5, 0.0])
        assert total == pytest.approx(4.5)

    def test_stiff_energies_of_a_block_match_its_rows_bit_for_bit(self, fpu_sys):
        rng = np.random.default_rng(14)
        qs = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-20, 20, size=(50, 1))
        ps = rng.standard_normal((50, 6))
        got = stiff_energies(fpu_sys, qs, ps)
        assert got.shape == (50, 3)
        want = np.array([stiff_energies(fpu_sys, q, p) for q, p in zip(qs, ps)])
        assert np.array_equal(got, want)

    def test_lattice_helpers_reject_model_system(self, model50):
        state = State(0.0, [1.0], [0.0])
        with pytest.raises(ValueError):
            stiff_energies(model50, state.q, state.p)


class TestInitialState:
    def test_canonical_start(self, fpu_sys):
        s = fpu_initial_state(fpu_sys)
        assert s.t == 0.0
        assert s.q == pytest.approx([1.0, 0.0, 0.0, 0.02, 0.0, 0.0])
        assert s.p == pytest.approx([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
