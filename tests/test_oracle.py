"""Production steppers against a plain dense oracle of the same maps, and
against frozen copies of earlier hot loops.

The oracle keeps the textbook form of each method: a dense Omega^2, the
implicit midpoint fast step as a linear solve with I + (h^2/4) Omega^2
(numpy.linalg.solve), and the lattice slow force assembled spring by spring
from slices.  Production steps per axis, fuses the force and reuses the
half kick at the end of a step as the half kick at the start of the next,
so the two agree at roundoff, not bit for bit.

The frozen copies are earlier forms of the hot loops: the kernels that
carried the raw slow force, the allocating fast maps, slow force and
midpoint-full kernel that returned fresh arrays, and the resonance sweep's
einsum loop with its per-step blow-up reset.  Their replacements perform
the same floating-point operations on the same operands, or their exact
negations (RESPA's substeps kick with (-w2) q and add where the frozen
loop multiplies by w2 and subtracts), so they are pinned bit for bit
(np.array_equal; the kernel pins compare sign bits too, since array_equal
takes -0.0 == 0.0).  The sweep loop, which evaluates energies per block of
steps, is pinned at step counts around the block size; midpoint-full is
pinned where its change sits at the tolerance, on a basis block, and on
its no-convergence and overflow paths, each through the float kernel of a
one-axis state and through the array kernel that a plain force takes.

The module also keeps the one map that production no longer carries:
Stormer-Verlet with a mass matrix (verlet_with_mass_step), against which
the acceptance gate and test_steppers check the IMEX step's modified-mass
reading.  It keeps the earlier construction of the one-step matrices too,
from public steps of two basis States (basis_state_matrices), against which
analysis.propagation_matrix, one kernel step on a basis block, is pinned
bit for bit.

Bounds: 1e-13 (1 + |x|) componentwise over 1e3 steps at h = 0.01.  The
lattice is chaotic, so roundoff grows along a run.  Started one ulp apart
(in q_1), the oracle's own runs separate by at most 1.5e-14 in this measure
over 1e3 steps at h = 0.01, but by up to 4.9e-13 (RESPA, 10 substeps) at
h = 0.03, where a 1e-13 bound could not tell a correct map from a wrong one.
"""
import dataclasses

import numpy as np
import pytest

from oscint import experiments, steppers
from oscint.analysis import ENERGY_ERROR_CAP, propagation_matrix
from oscint.experiments import resonance_sweep
from oscint.linalg import spd_factor
from oscint.steppers import (
    Method,
    NoConvergence,
    StepperSpec,
    integrate,
    step_imex,
    step_midpoint_full,
    step_modified_impulse,
    step_respa,
    step_stormer_verlet,
)
from oscint.systems import (
    FpuParams,
    State,
    coupled_oscillator_build,
    fpu_build,
    fpu_initial_state,
)

ELL = 3
OMEGA = 50.0
H = 0.01
N_STEPS = 1000
SUBSTEPS = 10
BOUND = 1e-13


def slicing_force(ell):
    """The lattice slow force accumulated spring by spring."""

    def slow_force(x):
        x0, x1 = x[:ell], x[ell:]
        g0 = np.zeros(ell)
        g1 = np.zeros(ell)
        end_l = (x0[0] - x1[0]) ** 3
        g0[0] += end_l
        g1[0] -= end_l
        end_r = (x0[-1] + x1[-1]) ** 3
        g0[-1] += end_r
        g1[-1] += end_r
        mid = (x0[1:] - x1[1:] - x0[:-1] - x1[:-1]) ** 3
        g0[1:] += mid
        g1[1:] -= mid
        g0[:-1] -= mid
        g1[:-1] -= mid
        return -np.concatenate([g0, g1])

    return slow_force


class Oracle:
    """Dense one-step maps of the FPU lattice, each evaluating every force it needs."""

    def __init__(self, ell, omega):
        self.w = np.concatenate([np.zeros(ell), np.full(ell, omega)])
        self.omega2 = np.diag(self.w * self.w)
        self.force = slicing_force(ell)

    def imex(self, q, p, h):
        p = p + 0.5 * h * self.force(q)
        w2q = self.omega2 @ q
        lhs = np.eye(q.size) + 0.25 * h * h * self.omega2
        q1 = np.linalg.solve(lhs, q + h * p - 0.25 * h * h * w2q)
        p = p - 0.5 * h * (w2q + self.omega2 @ q1)
        return q1, p + 0.5 * h * self.force(q1)

    def sv(self, q, p, h):
        p = p + 0.5 * h * (self.force(q) - self.omega2 @ q)
        q1 = q + h * p
        return q1, p + 0.5 * h * (self.force(q1) - self.omega2 @ q1)

    def respa(self, q, p, h, substeps=SUBSTEPS):
        p = p + 0.5 * h * self.force(q)
        dt = h / substeps
        for _ in range(substeps):
            p = p - 0.5 * dt * (self.omega2 @ q)
            q = q + dt * p
            p = p - 0.5 * dt * (self.omega2 @ q)
        return q, p + 0.5 * h * self.force(q)

    def modified_impulse(self, q, p, h):
        a2 = (0.5 * h * self.w) ** 2
        p = p + 0.5 * h * self.force(q)
        q1 = ((1.0 - a2) * q + h * p) / (1.0 + a2)
        p1 = ((1.0 - a2) * p - h * self.w ** 2 * q) / (1.0 + a2)
        return q1, p1 + 0.5 * h * self.force(q1)


def _oracle_run(step, state0):
    q, p = state0.q, state0.p
    qs, ps = [q], [p]
    for _ in range(N_STEPS):
        q, p = step(q, p, H)
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


def _scaled_deviation(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


CASES = [
    (Method.IMEX, "imex", lambda sys_, s, h: step_imex(sys_, s, h)),
    (Method.SV, "sv", lambda sys_, s, h: step_stormer_verlet(sys_, s, h)),
    (Method.RESPA, "respa", lambda sys_, s, h: step_respa(sys_, s, h, SUBSTEPS)),
    (
        Method.MODIFIED_IMPULSE,
        "modified_impulse",
        lambda sys_, s, h: step_modified_impulse(sys_, s, h),
    ),
]


@pytest.fixture(scope="module")
def lattice():
    sys_ = fpu_build(FpuParams(ell=ELL, omega=OMEGA))
    return sys_, fpu_initial_state(sys_)


@pytest.mark.parametrize("method, oracle_name, public_step", CASES, ids=[c[1] for c in CASES])
def test_integrate_matches_oracle(lattice, method, oracle_name, public_step):
    sys_, state0 = lattice
    want_q, want_p = _oracle_run(getattr(Oracle(ELL, OMEGA), oracle_name), state0)
    spec = StepperSpec(method=method, h=H, substeps=SUBSTEPS)
    # (N - 1/2) h keeps the step count at N whatever the rounding of N h
    traj = integrate(sys_, spec, state0, (N_STEPS - 0.5) * H)
    assert traj.completed and len(traj.times) == N_STEPS + 1
    assert _scaled_deviation(traj.qs, want_q) <= BOUND
    assert _scaled_deviation(traj.ps, want_p) <= BOUND


@pytest.mark.parametrize("method, oracle_name, public_step", CASES, ids=[c[1] for c in CASES])
def test_public_step_matches_oracle(lattice, method, oracle_name, public_step):
    sys_, state0 = lattice
    want_q, want_p = _oracle_run(getattr(Oracle(ELL, OMEGA), oracle_name), state0)
    s = state0
    got_q, got_p = [s.q], [s.p]
    for _ in range(N_STEPS):
        s = public_step(sys_, s, H)
        got_q.append(s.q)
        got_p.append(s.p)
    assert _scaled_deviation(np.array(got_q), want_q) <= BOUND
    assert _scaled_deviation(np.array(got_p), want_p) <= BOUND


@pytest.mark.parametrize("ell", [1, 2, 3, 1000])
def test_fused_force_matches_slicing_force(ell):
    sys_ = fpu_build(FpuParams(ell=ell, omega=OMEGA))
    want_force = slicing_force(ell)
    rng = np.random.default_rng(ell)
    for _ in range(5):
        x = rng.standard_normal(2 * ell)
        want = want_force(x)
        got = sys_.slow_force(x)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def frozen_fpu_stretches(x, ell):
    x0, x1 = x[..., :ell], x[..., ell:]
    s = np.zeros(x.shape[:-1] + (ell + 1,))
    s[..., :-1] = x0 - x1
    s[..., 1:] -= x0 + x1
    return s


def frozen_fpu_slow_potential(ell):
    def slow_potential(x):
        return 0.25 * np.sum(frozen_fpu_stretches(x, ell) ** 4, axis=-1)

    return slow_potential


def frozen_fpu_slow_force(ell):
    """The lattice slow force that built its stretches and result afresh."""

    def slow_force(x):
        c = frozen_fpu_stretches(x, ell) ** 3
        return np.concatenate((c[..., 1:] - c[..., :-1], c[..., :-1] + c[..., 1:]), axis=-1)

    return slow_force


def frozen_unmasked_fpu_slow_force(ell):
    """The lattice slow force as bound before it cubed only the nonzero
    stretches: np.power, with an exponent array, on every stretch."""

    def slow_force(x):
        s = frozen_fpu_stretches(x, ell)
        c = np.power(s, np.full(s.shape, 3.0))
        return np.concatenate((c[..., 1:] - c[..., :-1], c[..., :-1] + c[..., 1:]), axis=-1)

    return slow_force


def frozen_model_slow_force(q):
    return -np.asarray(q, dtype=float)


def frozen_fast_midpoint(w2, h):
    half, quarter_h2 = 0.5 * h, 0.25 * h * h
    denom = 1.0 + quarter_h2 * w2

    def fast(q, p):
        w2q = w2 * q
        q1 = (q + h * p - quarter_h2 * w2q) / denom
        return q1, p - half * (w2q + w2 * q1)

    return fast


def frozen_fast_rotation(omega, h):
    a2 = (0.5 * h * omega) ** 2
    h_w2 = h * omega ** 2
    cos_num = 1.0 - a2
    denom = 1.0 + a2

    def fast(q, p):
        return (cos_num * q + h * p) / denom, (cos_num * p - h_w2 * q) / denom

    return fast


def frozen_fast_verlet(w2, h, substeps):
    dt = h / substeps
    half_dt = 0.5 * dt

    def fast(q, p):
        for _ in range(substeps):
            p = p - half_dt * (w2 * q)
            q = q + dt * p
            p = p - half_dt * (w2 * q)
        return q, p

    return fast


def frozen_splitting_kernel(force, fast, h):
    """The splitting kernel that carried the slow force f instead of (h/2) f."""
    half = 0.5 * h

    def kernel(q, p, f):
        if f is None:
            f = force(q)
        q1, p1 = fast(q, p + half * f)
        f1 = force(q1)
        return q1, p1 + half * f1, f1

    return kernel


def frozen_verlet_kernel(force, w2, h, mass=None):
    """The Verlet kernel that carried the slow force and rebuilt the kick;
    its drift uses mass^(-1) when a mass is given."""
    half = 0.5 * h
    solve = None if mass is None else spd_factor(mass).solve

    def kernel(q, p, f):
        if f is None:
            f = force(q)
        p = p + half * (f - w2 * q)
        q1 = q + h * (p if solve is None else solve(p))
        f1 = force(q1)
        return q1, p + half * (f1 - w2 * q1), f1

    return kernel


def verlet_with_mass_step(sys_, state, h, mass):
    """One Stormer-Verlet step on the system whose drift uses mass^(-1).

    With mass = modified_mass(h, Omega^2) this is the IMEX step read as
    Verlet with the modified mass M + (h^2/4) Omega^2; a01 and
    test_steppers compare the two maps.  The production steppers carry no
    mass, so the map lives here.
    """
    kernel = frozen_verlet_kernel(sys_.slow_force, sys_.w2, h, mass)
    q, p, _ = kernel(state.q, state.p, None)
    return State(state.t + h, q, p)


def frozen_midpoint_full_kernel(force, w2, h, fp_tol=1e-12, fp_max_iter=200):
    """The midpoint-full kernel that returned fresh arrays."""
    quarter_h2 = 0.25 * h * h

    def total_force(m):
        return force(m) - w2 * m

    def kernel(q, p, f):
        base = q + 0.5 * h * p
        m = base
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(fp_max_iter):
                m_next = base + quarter_h2 * total_force(m)
                if not np.isfinite(m_next).all():
                    raise NoConvergence(k + 1)
                done = float(np.max(np.abs(m_next - m))) <= fp_tol
                m = m_next
                if done:
                    break
            else:
                raise NoConvergence(fp_max_iter)
        return 2.0 * m - q, p + h * total_force(m), None

    return kernel


def frozen_midpoint_changes(force, w2, h, q, p, n_iter):
    """The changes m_next - m of the frozen midpoint-full kernel's first
    n_iter fixed-point iterations, computed as that kernel computes them."""
    quarter_h2 = 0.25 * h * h
    base = q + 0.5 * h * p
    m, changes = base, []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_iter):
            m_next = base + quarter_h2 * (force(m) - w2 * m)
            changes.append(m_next - m)
            m = m_next
    return changes


def frozen_linear_max_energy_errors(mats, spring, n_steps, q0, p0):
    """The sweep's einsum loop, which reset diverged rows to the cap each step."""
    n = mats.shape[0]
    x = np.empty((n, 2))
    x[:, 0] = q0
    x[:, 1] = p0
    h0 = 0.5 * x[:, 1] ** 2 + 0.5 * spring * x[:, 0] ** 2
    err = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            x = np.einsum("nij,nj->ni", mats, x)
            energy = 0.5 * x[:, 1] ** 2 + 0.5 * spring * x[:, 0] ** 2
            diff = np.abs(energy - h0)
            bad = ~np.isfinite(diff)
            if bad.any():
                err[bad] = ENERGY_ERROR_CAP
                x[bad] = 0.0
                diff = np.where(bad, 0.0, diff)
            err = np.fmax(err, diff)
    return np.minimum(err, ENERGY_ERROR_CAP)


def _pinned(sys_, force, name, h):
    """(spec, frozen kernel, public step) of one pinned method; force is the
    frozen copy of the system's slow force."""
    w2 = sys_.w2
    if name == "sv":
        return (StepperSpec(Method.SV, h), frozen_verlet_kernel(force, w2, h),
                lambda s: step_stormer_verlet(sys_, s, h))
    if name == "imex":
        return (StepperSpec(Method.IMEX, h),
                frozen_splitting_kernel(force, frozen_fast_midpoint(w2, h), h),
                lambda s: step_imex(sys_, s, h))
    if name == "respa":
        return (StepperSpec(Method.RESPA, h, substeps=SUBSTEPS),
                frozen_splitting_kernel(force, frozen_fast_verlet(w2, h, SUBSTEPS), h),
                lambda s: step_respa(sys_, s, h, SUBSTEPS))
    if name == "midpoint-full":
        return (StepperSpec(Method.MIDPOINT_FULL, h),
                frozen_midpoint_full_kernel(force, w2, h),
                lambda s: step_midpoint_full(sys_, s, h))
    return (StepperSpec(Method.MODIFIED_IMPULSE, h),
            frozen_splitting_kernel(force, frozen_fast_rotation(sys_.omega, h), h),
            lambda s: step_modified_impulse(sys_, s, h))


PINNED = ["sv", "imex", "respa", "modified-impulse", "midpoint-full"]


def _assert_same(got, want):
    # array_equal takes -0.0 == 0.0, so the signs are compared too
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_pinned(sys_, force, state0, name, h, n_steps):
    """integrate and the public step of one method reproduce the frozen
    kernel bit for bit over n_steps steps."""
    spec, frozen, public_step = _pinned(sys_, force, name, h)
    q, p, f = state0.q, state0.p, None
    want_q, want_p = [q], [p]
    for _ in range(n_steps):
        q, p, f = frozen(q, p, f)
        want_q.append(q)
        want_p.append(p)
    want_q, want_p = np.array(want_q), np.array(want_p)

    # (n - 1/2) h keeps the step count at n whatever the rounding of n h
    traj = integrate(sys_, spec, state0, state0.t + (n_steps - 0.5) * h)
    assert traj.completed and len(traj.times) == n_steps + 1
    _assert_same(traj.qs, want_q)
    _assert_same(traj.ps, want_p)

    s = state0
    got_q, got_p = [s.q], [s.p]
    for _ in range(n_steps):
        s = public_step(s)
        got_q.append(s.q)
        got_p.append(s.p)
    _assert_same(np.array(got_q), want_q)
    _assert_same(np.array(got_p), want_p)


@pytest.mark.parametrize("name", PINNED)
# exchange's lattice, which a single state steps in floats, and the
# smallest one past SCALAR_MAX_D axes, which it steps on the arrays
@pytest.mark.parametrize("ell", [ELL, steppers.SCALAR_MAX_D // 2 + 1])
def test_kernels_match_frozen_kernels_bit_for_bit(ell, name):
    sys_ = fpu_build(FpuParams(ell=ell, omega=OMEGA))
    # the canonical start, and a rest state of signed zeros (every sign
    # reads +0 after the first step)
    signed_zeros = State(0.0, [0.0, -0.0] * ell, [-0.0, 0.0] * ell)
    for start in (fpu_initial_state(sys_), signed_zeros):
        _assert_pinned(sys_, frozen_fpu_slow_force(ell), start, name, H, N_STEPS)


@pytest.mark.parametrize("name", PINNED)
def test_kernels_match_frozen_kernels_on_the_model_system(name):
    # the d = 1 system and start of the convergence study, at its coarsest
    # and its finest h; the rest state (+0, -0), which every method keeps at
    # p = -0 (g(+0) is -0), so each step's rounding of zero signs is pinned;
    # and omega = 50 at h = 0.03, where midpoint-full iterates longest
    start, rest = State(0.0, [1.0], [0.5]), State(0.0, [0.0], [-0.0])
    for omega, state0, h, n_steps in ((2.0, start, 0.1, 100), (2.0, rest, 0.1, 100),
                                      (2.0, start, 0.0125, 800), (50.0, start, 0.03, 100)):
        sys_ = coupled_oscillator_build(omega)
        _assert_pinned(sys_, frozen_model_slow_force, state0, name, h, n_steps)


@pytest.mark.parametrize("ell", [1, 3, 1000])
def test_bound_fpu_force_matches_frozen_force_bit_for_bit(ell):
    sys_ = fpu_build(FpuParams(ell=ell, omega=OMEGA))
    want_force = frozen_fpu_slow_force(ell)
    want_potential = frozen_fpu_slow_potential(ell)
    rng = np.random.default_rng(ell)
    # a 1-D state, a block of states spanning 60 decades (the production
    # force cubes with an exponent array, the frozen one with s ** 3), and
    # zeros of both signs (the wall springs' stretches are x - 0 and 0 - x)
    wide = rng.standard_normal((200, 2 * ell)) * 10.0 ** rng.integers(-30, 30, size=(200, 1))
    signed_zeros = np.array([0.0, -0.0] * ell)
    for x in (rng.standard_normal(2 * ell), wide, signed_zeros, -signed_zeros):
        want = want_force(x)
        got = sys_.slow_force(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(sys_.slow_potential(x), want_potential(x))

    # a bound force reads its input buffer as it is at each call
    x = np.empty(2 * ell)
    out = np.empty(2 * ell)
    force = sys_.slow_force.bind(x, out)
    for _ in range(3):
        x[:] = rng.standard_normal(2 * ell)
        force()
        assert np.array_equal(out, want_force(x))


# stretch kinds: zeros of both signs, cubes that underflow to +-0 or to a
# subnormal, cubes that overflow, NaN and infinities
STRETCH_KINDS = np.array([0.0, -0.0, 1.5, -1.5, 1e-110, -1e-110, 1e-105, -1e-105, 1e300,
                          -1e300, 1e-300, np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("ell", [1, 4, 1000])
def test_bound_fpu_force_cubes_nonzero_stretches_as_unmasked_power(ell):
    # the bound force cubes its nonzero stretches alone: each +-0 it skips
    # must keep its sign, every other stretch must cube as np.power did
    # (the sign reaches the force from ell = 2 on: at ell = 1, s_1 = 0 - b
    # is never -0, and a -0 s_0 alone adds or subtracts to +0)
    force = fpu_build(FpuParams(ell=ell, omega=OMEGA)).slow_force
    want_force = frozen_unmasked_fpu_slow_force(ell)
    rng = np.random.default_rng(ell)
    # x1 = -x0 gives the stretches s_i = 2 x0_i, each of x0's kind, where
    # x0 is finite (a NaN or infinity spoils its right neighbour)
    x0 = rng.choice(STRETCH_KINDS, (6, ell))
    mixed = np.concatenate([x0, -x0], axis=-1)
    no_zeros = rng.standard_normal(2 * ell) + 4.0
    zeros = np.zeros(2 * ell)
    signed_zeros = np.array([-0.0] * ell + [0.0] * ell)
    states = [*mixed, no_zeros, zeros, signed_zeros]
    blocks = [mixed[:2], mixed[2:4], np.stack([no_zeros, signed_zeros])]
    with np.errstate(all="ignore"):
        stretches = frozen_fpu_stretches(np.array(states), ell)
        assert np.count_nonzero(stretches[len(mixed)]) == ell + 1
        assert not stretches[len(mixed) + 1:].any()
        if ell == 1000:
            kinds = stretches[:len(mixed)]
            assert np.isnan(kinds).any() and np.isinf(kinds).any()
            assert (kinds < 0).any() and ((kinds != 0) & (kinds ** 3 == 0)).any()
            assert (np.signbit(kinds) & (kinds == 0)).any()
        for x in states + blocks:
            out = np.empty(x.shape)
            force.bind(x.copy(), out)()
            assert np.array_equal(out.view(np.int64), want_force(x).view(np.int64))


def _on_path(sys_, path, h):
    """The one-axis model system sys_ as it is (path "float": its force has
    scalar source, so a single state steps in generated float code) or with
    the plain force -x, which has none (path "array"), checked to bind the
    kernel of that path."""
    if path == "array":
        sys_ = dataclasses.replace(sys_, slow_force=lambda x: -x)
    kernel = steppers._kernel(sys_, Method.MIDPOINT_FULL, h, np.zeros(1), np.zeros(1))
    assert kernel.__self__.gi_code.co_name == {"float": "_scalar_kernel",
                                               "array": "_array_kernel"}[path]
    return sys_


MIDPOINT_PATHS = ["float", "array"]


@pytest.mark.parametrize("path", MIDPOINT_PATHS)
def test_midpoint_full_no_convergence_matches_frozen_kernel(model50, monkeypatch, path):
    # past its contraction limit the iteration fails after the same
    # number of iterations, and the step leaves its input untouched
    frozen = frozen_midpoint_full_kernel(frozen_model_slow_force, model50.w2, 0.05, 1e-12, 17)
    s0 = State(0.0, [1.0], [0.0])
    with pytest.raises(NoConvergence) as want:
        frozen(s0.q, s0.p, None)
    monkeypatch.setattr(steppers, "FP_MAX_ITER", 17)
    with pytest.raises(NoConvergence) as got:
        step_midpoint_full(_on_path(model50, path, 0.05), s0, 0.05)
    assert got.value.iterations == want.value.iterations
    assert s0.q[0] == 1.0 and s0.p[0] == 0.0


def test_midpoint_full_change_in_the_exact_test_band_matches_frozen_kernel(lattice, monkeypatch):
    # FP_TOL is set to the max norm of the third change, and to the float
    # below it: the step stops at the third iteration at the first tolerance
    # and goes on at the second.  That change's s = diff.diff lies between
    # FP_TOL^2/2 and 2 n FP_TOL^2, where a sum of squares cannot decide a
    # max-norm test, so the pin holds only for a test exact at the tolerance
    sys_, state0 = lattice
    force = frozen_fpu_slow_force(ELL)
    changes = frozen_midpoint_changes(force, sys_.w2, H, state0.q, state0.p, 3)
    tol = float(np.max(np.abs(changes[-1])))
    assert all(np.max(np.abs(c)) > tol for c in changes[:-1])
    s = float(changes[-1] @ changes[-1])
    results = []
    for fp_tol in (tol, np.nextafter(tol, 0.0)):
        assert fp_tol * fp_tol / 2.0 < s <= 2.0 * changes[-1].size * fp_tol * fp_tol
        want_q, want_p, _ = frozen_midpoint_full_kernel(force, sys_.w2, H, fp_tol)(
            state0.q, state0.p, None)
        monkeypatch.setattr(steppers, "FP_TOL", fp_tol)
        got = step_midpoint_full(sys_, state0, H)
        _assert_same(got.q, want_q)
        _assert_same(got.p, want_p)
        traj = integrate(sys_, StepperSpec(Method.MIDPOINT_FULL, H), state0, 0.5 * H)
        _assert_same(traj.final_state.q, want_q)
        results.append(got.q)
    # one more iteration moves the step, so the two runs stopped apart
    assert not np.array_equal(*results)


def test_midpoint_full_basis_block_matches_frozen_kernel():
    # propagation_matrix steps a (2, d) block of basis states; the stopping
    # rule's max norm runs over all 2 d elements
    h = 0.1
    omegas = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    sys_ = coupled_oscillator_build(omegas)
    q, p = np.repeat(np.eye(2)[..., np.newaxis], omegas.size, axis=-1)
    want_q, want_p, _ = frozen_midpoint_full_kernel(frozen_model_slow_force, sys_.w2, h)(q, p, None)
    want = np.moveaxis(np.stack([want_q, want_p]), -1, 0)
    got = propagation_matrix(StepperSpec("midpoint-full", h), omegas)
    assert got.shape == (omegas.size, 2, 2)
    _assert_same(got, want)


@pytest.mark.parametrize("path", MIDPOINT_PATHS)
def test_midpoint_full_overflowing_change_matches_frozen_no_convergence(path):
    # past the contraction limit ((h^2/4)(1 + omega^2) = 25) from q = 1e200,
    # the changes (~1e200 and growing) overflow their sum of squares while
    # the iterates stay finite, so the iteration must go on until an
    # iterate itself overflows, as in the frozen kernel
    sys_ = coupled_oscillator_build(200.0)
    h = 0.05
    q0, p0 = np.array([1e200]), np.array([0.0])
    changes = frozen_midpoint_changes(frozen_model_slow_force, sys_.w2, h, q0, p0, 20)
    with np.errstate(over="ignore"):
        assert all(np.isfinite(c).all() and c @ c == np.inf for c in changes)
    with pytest.raises(NoConvergence) as want:
        frozen_midpoint_full_kernel(frozen_model_slow_force, sys_.w2, h)(q0, p0, None)
    with pytest.raises(NoConvergence) as got:
        step_midpoint_full(_on_path(sys_, path, h), State(0.0, q0, p0), h)
    assert got.value.iterations == want.value.iterations
    assert 20 < got.value.iterations < steppers.FP_MAX_ITER


@pytest.mark.parametrize("path", MIDPOINT_PATHS)
def test_midpoint_full_change_overflowing_itself_matches_frozen_no_convergence(path):
    # with (h^2/4)(1 + omega^2) = 1.5 from q = 1e308 the iterates alternate
    # in sign: the second, 1.75e308, is finite while its change, 2.25e308,
    # overflows, so the iteration goes on, and stops at the third iterate,
    # which overflows, as in the frozen kernel
    sys_ = coupled_oscillator_build(0.0)
    h = np.sqrt(6.0)
    q0, p0 = np.array([1e308]), np.array([0.0])
    changes = frozen_midpoint_changes(frozen_model_slow_force, sys_.w2, h, q0, p0, 2)
    assert np.isfinite(changes[0]).all() and np.isinf(changes[1]).all()
    with pytest.raises(NoConvergence) as want:
        frozen_midpoint_full_kernel(frozen_model_slow_force, sys_.w2, h)(q0, p0, None)
    with pytest.raises(NoConvergence) as got:
        step_midpoint_full(_on_path(sys_, path, h), State(0.0, q0, p0), h)
    assert got.value.iterations == want.value.iterations == 3


def basis_state_matrices(step, d):
    """Per-axis one-step matrices, shape (d, 2, 2), of a State -> State step
    on d decoupled axes, from its action on the two basis States."""
    e1 = step(State(0.0, np.ones(d), np.zeros(d)))
    e2 = step(State(0.0, np.zeros(d), np.ones(d)))
    return np.stack([np.stack([e1.q, e2.q], axis=-1), np.stack([e1.p, e2.p], axis=-1)], axis=-2)


@pytest.mark.parametrize("h", [0.1, 0.0987])
def test_propagation_matrix_matches_basis_state_steps_bit_for_bit(h):
    # the resonance sweep's grid, omega h / pi = 0.01 .. 4.5
    omegas = 0.01 * np.arange(1, 451) * np.pi / h
    sys_ = coupled_oscillator_build(omegas)
    cases = [(StepperSpec(Method.RESPA, h, k), lambda s, k=k: step_respa(sys_, s, h, k))
             for k in (1, 100)]
    cases += [
        (StepperSpec(Method.IMEX, h), lambda s: step_imex(sys_, s, h)),
        (StepperSpec(Method.SV, h), lambda s: step_stormer_verlet(sys_, s, h)),
        (StepperSpec(Method.MODIFIED_IMPULSE, h), lambda s: step_modified_impulse(sys_, s, h)),
    ]
    for spec, step in cases:
        got = propagation_matrix(spec, omegas)
        want = basis_state_matrices(step, omegas.size)
        assert got.shape == (450, 2, 2)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # a scalar omega gives the (2, 2) matrix of the one-element vector
        one = propagation_matrix(spec, omegas[7])
        assert one.shape == (2, 2)
        assert np.array_equal(one, propagation_matrix(spec, omegas[7:8])[0])
        assert np.array_equal(one, got[7])


def _sweep_errors(rows):
    return np.array([(r.err_respa, r.err_imex) for r in rows])


def _frozen_sweep(monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(experiments, "_linear_max_energy_errors", frozen_linear_max_energy_errors)
        return resonance_sweep(**kwargs)


@pytest.mark.parametrize("h", [0.1, 0.0987])
def test_sweep_matches_frozen_loop_bit_for_bit(monkeypatch, h):
    got = _sweep_errors(resonance_sweep(h=h))
    assert np.array_equal(got, _sweep_errors(_frozen_sweep(monkeypatch, h=h)))


def test_sweep_overflow_rows_read_the_cap(monkeypatch):
    # one RESPA substep makes most impulse rows diverge to overflow; the
    # sweep has no per-step reset, and still reads exactly the cap there
    kwargs = dict(h=0.1, substeps=1, t_end=1000.0)
    got = _sweep_errors(resonance_sweep(**kwargs))
    assert np.array_equal(got, _sweep_errors(_frozen_sweep(monkeypatch, **kwargs)))
    err_respa, err_imex = got[:, 0], got[:, 1]
    assert len(got) == 450
    assert int(np.sum(err_respa == ENERGY_ERROR_CAP)) == 387
    assert np.all(np.isfinite(err_imex)) and np.all(err_imex < 1.0)


K = experiments.SWEEP_BLOCK


@pytest.mark.parametrize("n_steps", [1, K - 1, K, K + 1, 2 * K + 3, 200])
def test_sweep_loop_matches_frozen_loop_on_random_matrices(n_steps):
    # the sweep's own errors peak where the energy is mostly kinetic, so
    # they miss a last-bit change of the potential term; random matrices
    # and starts reach every term, and over half of them diverge in 200
    # steps.  The step counts around the block size K pin partial blocks.
    rng = np.random.default_rng(7)
    n = 1000
    spring = rng.uniform(0.5, 2e4, size=n)
    args = (rng.uniform(-1.5, 1.5, size=(n, 2, 2)), spring, n_steps,
            1.0 / np.sqrt(spring), rng.uniform(-1.0, 1.0, size=n))
    got = experiments._linear_max_energy_errors(*args)
    assert np.array_equal(got, frozen_linear_max_energy_errors(*args))
    if n_steps == 200:
        assert 0 < np.sum(got == ENERGY_ERROR_CAP) < n


def test_sweep_loop_caps_a_row_that_jumps_to_nan():
    # entries of 1e300 take a finite state straight to inf - inf = NaN, with
    # no inf energy on the way; the row must still read the cap
    mats = np.array([[[1e300, -1e300], [1e300, -1e300]], [[1.0, 0.0], [0.0, 1.0]]])
    spring = np.array([1.0, 1.0])
    args = (mats, spring, 3, 1e10, 1e10)
    got = experiments._linear_max_energy_errors(*args)
    assert np.array_equal(got, frozen_linear_max_energy_errors(*args))
    assert np.array_equal(got, [ENERGY_ERROR_CAP, 0.0])
