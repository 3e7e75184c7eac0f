"""Production steppers against a plain dense oracle of the same maps.

The oracle keeps the textbook form of each method: a dense Omega^2, the
implicit midpoint fast step as a linear solve with I + (h^2/4) Omega^2
(numpy.linalg.solve), and the lattice slow force assembled spring by spring
from slices.  Production steps per axis, fuses the force and reuses the
force at the end of a step as the force at the start of the next, so the
two agree at roundoff, not bit for bit.

Bounds: 1e-13 (1 + |x|) componentwise over 1e3 steps at h = 0.01.  The
lattice is chaotic, so roundoff grows along a run.  Started one ulp apart
(in q_1), the oracle's own runs separate by at most 1.5e-14 in this measure
over 1e3 steps at h = 0.01, but by up to 4.9e-13 (RESPA, 10 substeps) at
h = 0.03, where a 1e-13 bound could not tell a correct map from a wrong one.
"""
import numpy as np
import pytest

from oscint.steppers import (
    Method,
    StepperSpec,
    integrate,
    step_imex,
    step_modified_impulse,
    step_respa,
    step_stormer_verlet,
)
from oscint.systems import FpuParams, fpu_build, fpu_initial_state

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
