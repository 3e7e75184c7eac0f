"""Acceptance gate: the headline behavioral claims, one summary line each.

Every test here logs a PASS/FAIL line into the end-of-run "acceptance
summary" table (see conftest) and then asserts.  Two checks are left
failing deliberately, a05's h=0.03 clause and a08's tangent and step
clauses; their docstrings explain what was measured and why the bound is
not loosened to hide it.
"""
import math

import numpy as np
import pytest

from oscint.analysis import (
    imex_stability,
    modified_frequency,
    modified_mass,
    propagation_matrix,
    windowed_mean,
)
from oscint.experiments import convergence_study, windowed_stiff_diffs
from oscint.lagrangians import (
    DiscreteLagrangian,
    Quadrature,
    del_residual,
    ld_value,
)
from oscint.steppers import (
    BLOWUP,
    Method,
    StepperSpec,
    make_stepper,
    step_imex,
    step_modified_impulse,
    step_stormer_verlet,
)
from oscint.systems import State, coupled_oscillator_build
from test_oracle import verlet_with_mass_step

STABLE_H = (1.0, 1.9, 1.99)
UNSTABLE_H = (2.01, 2.5)
GRID_OMEGAS = (1.0, 10.0, 1e3, 1e6)


def test_a01_splitting_matches_verlet_with_modified_mass(fpu_sys, fpu_state0, acceptance_log):
    """The split step and plain Verlet carrying the modified mass are the
    same map; 1000 lattice steps at h=0.1 agree to the max norm."""
    h = 0.1
    mtilde = modified_mass(h, fpu_sys.omega2)
    s_a = s_b = fpu_state0
    worst = 0.0
    for _ in range(1000):
        s_a = step_imex(fpu_sys, s_a, h)
        s_b = verlet_with_mass_step(fpu_sys, s_b, h, mtilde)
        worst = max(
            worst,
            float(np.max(np.abs(s_a.q - s_b.q))),
            float(np.max(np.abs(s_a.p - s_b.p))),
        )
    ok = worst <= 1e-10
    acceptance_log(ok, "imex-vs-verlet-modified-mass", f"max deviation {worst:.3e} (bound 1e-10)")
    assert ok


def test_a02_quadrature_identity_of_discrete_lagrangians(fpu_sys, acceptance_log):
    """Split quadrature with unit mass and endpoint quadrature with the
    modified mass give the same discrete Lagrangian value."""
    h = 0.1
    split = DiscreteLagrangian(fpu_sys, h, Quadrature.IMEX)
    endpoint = DiscreteLagrangian(
        fpu_sys, h, Quadrature.TRAPEZOIDAL, mass=modified_mass(h, fpu_sys.omega2)
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        q0 = rng.standard_normal(6)
        q1 = rng.standard_normal(6)
        a = ld_value(split, q0, q1)
        b = ld_value(endpoint, q0, q1)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-12
    acceptance_log(ok, "discrete-lagrangian-identity", f"worst relative {worst:.3e} (bound 1e-12)")
    assert ok


def test_a03_stability_threshold_independent_of_stiffness(acceptance_log):
    """The split step is stable up to h = 2 and unstable past it, for every
    stiff frequency tested."""
    failures = []
    for omega in GRID_OMEGAS:
        for h in STABLE_H:
            if not imex_stability(h, omega).stable:
                failures.append((h, omega, "expected stable"))
        for h in UNSTABLE_H:
            if imex_stability(h, omega).stable:
                failures.append((h, omega, "expected unstable"))
    ok = not failures
    acceptance_log(
        ok,
        "stability-threshold",
        "stable for h<2, unstable past it, all omegas" if ok else f"misclassified {failures}",
    )
    assert ok, failures


def test_a04_resonance_spikes_and_flat_splitting_error(sweep_rows, acceptance_log):
    """Across the stiffness sweep the impulse method spikes near integer
    omega h / pi while the split step's energy error stays flat."""

    def row_at(r):
        row = sweep_rows[round(r / 0.01) - 1]
        assert row.omega_h_over_pi == pytest.approx(r, rel=1e-12)
        return row

    ratio_1 = row_at(1.0).err_respa / row_at(0.5).err_respa
    ratio_2 = row_at(2.0).err_respa / row_at(1.5).err_respa
    imex_errs = np.array([row.err_imex for row in sweep_rows])
    flatness = float(imex_errs.max() / imex_errs.min())
    ok = ratio_1 >= 1e3 and ratio_2 >= 1e3 and flatness < 10.0
    acceptance_log(
        ok,
        "resonance-sweep",
        f"impulse spike ratios {ratio_1:.3e}, {ratio_2:.3e} (>=1e3); "
        f"imex max/min {flatness:.6f} (<10)",
    )
    assert ratio_1 >= 1e3
    assert ratio_2 >= 1e3
    assert flatness < 10.0


def test_a05_exchange_tracks_fine_reference(
    exchange_traj_h003, exchange_traj_h01, reference_traj, acceptance_log
):
    """Windowed stiff-spring energies of the split step track the fine
    Verlet reference on [0, 200]: within 0.1 at h=0.03, within 0.2 at h=0.1.

    The h=0.03 half is left failing deliberately; the paper claims only
    that the exchange is preserved "accurately", which does not settle
    whether 0.1 is what the method owes.  The reference (Verlet at
    h=0.0005) is converged in this metric: halving its step moves it by
    at most 0.024.  Against it h=0.03 reads [0.089, 0.249, 0.332] on
    [0, 200], and already 0.136 on [0, 100], where references at h=0.001
    and finer give the same reading to 5e-4.  This is no unlucky pocket:
    every h from 0.01 to 0.07 reads 0.16 to 0.45, while h=0.1 reads
    [0.074, 0.114, 0.125].  A 1e-8 perturbation of the start moves the
    h=0.03 reading by up to 0.012.
    """
    diffs_coarse = windowed_stiff_diffs(exchange_traj_h003, reference_traj, 1.0)
    diffs_mid = windowed_stiff_diffs(exchange_traj_h01, reference_traj, 1.0)
    ok_coarse = bool(np.all(diffs_coarse <= 0.1))
    ok_mid = bool(np.all(diffs_mid <= 0.2))
    fmt = lambda v: "[" + ", ".join(f"{x:.4f}" for x in v) + "]"
    acceptance_log(
        ok_coarse and ok_mid,
        "exchange-tracking",
        f"sup windowed diffs h=0.03 {fmt(diffs_coarse)} (bound 0.1), "
        f"h=0.1 {fmt(diffs_mid)} (bound 0.2)",
    )
    assert ok_mid
    assert ok_coarse


def test_a06_windowed_adiabatic_invariant(reference_traj, long_imex_h01, acceptance_log):
    """The windowed total stiff energy stays near its initial value 1: on
    the fine reference within 0.05, and on the h=0.1 split-step run over
    [0, 4000] within 0.25 with the run completing."""
    ref_dev = float(np.max(np.abs(windowed_mean(reference_traj.times, reference_traj.stiff.sum(axis=1), 1.0) - 1.0)))
    long_dev = float(np.max(np.abs(windowed_mean(long_imex_h01.times, long_imex_h01.stiff.sum(axis=1), 1.0) - 1.0)))
    ok = ref_dev <= 0.05 and long_dev <= 0.25 and long_imex_h01.completed
    acceptance_log(
        ok,
        "adiabatic-invariant",
        f"reference max |I-1| {ref_dev:.4f} (<=0.05); "
        f"h=0.1 [0,4000] max |I-1| {long_dev:.4f} (<=0.25), status {long_imex_h01.status}",
    )
    assert ref_dev <= 0.05
    assert long_imex_h01.completed
    assert long_dev <= 0.25


def test_a07_large_step_run_blows_up(long_imex_h06, acceptance_log):
    """A large step blows up on the nonlinear lattice: the h=0.6 run on
    [0, 4000] ends in blow-up.

    Measured: the h=0.6 run escapes the norm cap at t = 4.8 (8 steps), and
    so did each of 200 starts perturbed by 1e-8, all at t = 4.8.  This is
    a fact about this start, not a check of the soft-frequency criterion
    h nu < 2: with nu read from the slow Hessian at unit mass h nu = 2.12
    at the start, but with the modified mass of the equivalent Verlet map
    it is 1.70 (see the FOUND line on the criterion in CHANGES.md).

    At h=0.3 the unperturbed run completes.  Blow-up at smaller steps is a
    transient-chaos onset, not a threshold: of 12 starts perturbed by 1e-8
    (numpy seed 2026), 1 escaped by t = 4000 at h=0.3 (t = 2941) and 8 at
    h=0.34 (t = 395 to 3520).
    """
    e_min = float(np.min(long_imex_h06.energies))
    e_max = float(np.max(long_imex_h06.energies))
    ok = long_imex_h06.status == BLOWUP
    acceptance_log(
        ok,
        "large-step-blowup",
        f"status {long_imex_h06.status} (expected blowup) at t={long_imex_h06.t_blowup}; "
        f"energy range [{e_min:.3g}, {e_max:.3g}]",
    )
    assert ok


def test_a08_per_axis_rotation_equivalence_and_frequency_identity(
    fpu_sys, fpu_state0, acceptance_log
):
    """The per-axis modified-frequency rotation reproduces the split step
    componentwise, and the modified frequency satisfies its defining
    tangent identity on the stability grid.

    The step clause reads 3.8e-12 against its 1e-12 bound, which sits at
    the roundoff sensitivity of this run rather than at a defect of either
    map: moving the start by 1 to 20 ulp in q_1 gave readings from 1.3e-13
    to 3.8e-12 (10 of 20 above 1e-12), and the same perturbations of the
    dense Cholesky-based step that read 4.4e-13 unperturbed gave 4.2e-13
    to 4.1e-12 (13 of 20 above 1e-12).  The bound is not loosened.  The
    tangent clause is left failing deliberately.  At omega = 1e6 no float64 value of the frequency
    can satisfy tan(h w~ / 2) = a, a = h omega / 2, to 1e-12 relative: one
    ulp of w~ moves the relative residual by kappa eps, where
    kappa = (h w~ / 2)(1 + a^2) / a ~ (pi/2) a, which is 4.4e-10 at
    (h, omega) = (2.5, 1e6).  The returned frequency reads at most
    0.43 kappa eps on the grid (worst residual 1.06e-10, at that point),
    no float64 value within 200 ulp of it reads lower there, and it is
    within 2 ulp of exact (see
    test_analysis.TestModifiedFrequency); the identity holds at 1e-12
    wherever float64 can express it (a up to ~1.5e3).
    """
    h = 0.1
    s_a = s_b = fpu_state0
    worst_step = 0.0
    for _ in range(1000):
        s_a = step_imex(fpu_sys, s_a, h)
        s_b = step_modified_impulse(fpu_sys, s_b, h)
        worst_step = max(
            worst_step,
            float(np.max(np.abs(s_a.q - s_b.q))),
            float(np.max(np.abs(s_a.p - s_b.p))),
        )
    worst_tan = 0.0
    worst_at = None
    for h_grid in STABLE_H + UNSTABLE_H:
        for omega in GRID_OMEGAS:
            a = 0.5 * h_grid * omega
            rel = abs(math.tan(0.5 * h_grid * modified_frequency(h_grid, omega)) - a) / a
            if rel > worst_tan:
                worst_tan, worst_at = rel, (h_grid, omega)
    ok_step = worst_step <= 1e-12
    ok_tan = worst_tan <= 1e-12
    acceptance_log(
        ok_step and ok_tan,
        "modified-impulse-equivalence",
        f"max step deviation {worst_step:.3e} (<=1e-12); "
        f"tangent identity worst {worst_tan:.3e} at (h, omega)={worst_at} (<=1e-12)",
    )
    assert ok_step
    assert ok_tan


def test_a09_structure_preservation(fpu_sys, acceptance_log):
    """Time-reversal symmetry of the one-step maps, unit determinant of the
    linear propagation matrices, and measured order two."""
    # ten steps forward, ten steps back
    rng = np.random.default_rng(13)
    s0 = State(0.0, rng.standard_normal(6), rng.standard_normal(6))
    roundtrips = {}
    for name, step in (
        ("sv", lambda s, h: step_stormer_verlet(fpu_sys, s, h)),
        ("imex", lambda s, h: step_imex(fpu_sys, s, h)),
        ("modified-impulse", lambda s, h: step_modified_impulse(fpu_sys, s, h)),
    ):
        s = s0
        for _ in range(10):
            s = step(s, 0.01 if name == "sv" else 0.1)
        for _ in range(10):
            s = step(s, -0.01 if name == "sv" else -0.1)
        roundtrips[name] = max(
            float(np.max(np.abs(s.q - s0.q))), float(np.max(np.abs(s.p - s0.p)))
        )
    worst_roundtrip = max(roundtrips.values())

    worst_det = 0.0
    for h in STABLE_H + UNSTABLE_H:
        for omega in GRID_OMEGAS:
            imex_mat = propagation_matrix(StepperSpec(Method.IMEX, h), omega)
            worst_det = max(worst_det, abs(np.linalg.det(imex_mat) - 1.0))
    # the baselines at experiment-scale parameters, where the float64
    # determinant is meaningful
    for omega in (1.0, 10.0, 50.0):
        sv_mat = propagation_matrix(StepperSpec(Method.SV, 0.1), omega)
        worst_det = max(worst_det, abs(np.linalg.det(sv_mat) - 1.0))
    for omega in (15.7, 47.1):
        respa_mat = propagation_matrix(StepperSpec(Method.RESPA, 0.1, 100), omega)
        worst_det = max(worst_det, abs(np.linalg.det(respa_mat) - 1.0))

    orders = {row.method.value: row.order for row in convergence_study()}
    ok_orders = all(1.9 <= order <= 2.1 for order in orders.values())
    ok = worst_roundtrip <= 1e-10 and worst_det <= 1e-12 and ok_orders
    order_txt = ", ".join(f"{k}={v:.4f}" for k, v in orders.items())
    acceptance_log(
        ok,
        "structure-preservation",
        f"roundtrip {worst_roundtrip:.3e} (<=1e-10); det-1 {worst_det:.3e} (<=1e-12); "
        f"orders {order_txt} (in [1.9, 2.1])",
    )
    assert worst_roundtrip <= 1e-10, roundtrips
    assert worst_det <= 1e-12
    assert ok_orders, orders


def test_a10_discrete_el_residual_along_trajectories(fpu_sys, fpu_state0, acceptance_log):
    """Each quadrature's discrete Euler-Lagrange residual vanishes along a
    trajectory of its matching stepper."""
    h = 0.01
    model = coupled_oscillator_build(50.0)
    cases = [
        (model, State(0.0, [1.0], [0.5]), Quadrature.TRAPEZOIDAL, Method.SV),
        (model, State(0.0, [1.0], [0.5]), Quadrature.MIDPOINT, Method.MIDPOINT_FULL),
        (model, State(0.0, [1.0], [0.5]), Quadrature.IMEX, Method.IMEX),
        (fpu_sys, fpu_state0, Quadrature.TRAPEZOIDAL, Method.SV),
        (fpu_sys, fpu_state0, Quadrature.MIDPOINT, Method.MIDPOINT_FULL),
        (fpu_sys, fpu_state0, Quadrature.IMEX, Method.IMEX),
    ]
    worst = 0.0
    worst_case = None
    for sys_, s0, variant, method in cases:
        step = make_stepper(sys_, StepperSpec(method=method, h=h))
        states = [s0]
        for _ in range(100):
            states.append(step(states[-1]))
        scale = 1.0 + max(float(np.max(np.abs(s.p))) for s in states)
        ld = DiscreteLagrangian(sys_, h, variant)
        for prev, mid, nxt in zip(states, states[1:], states[2:]):
            res = float(np.max(np.abs(del_residual(ld, prev.q, mid.q, nxt.q)))) / scale
            if res > worst:
                worst, worst_case = res, (sys_.label, variant.value)
    ok = worst <= 1e-10
    acceptance_log(
        ok,
        "discrete-el-residual",
        f"worst scaled residual {worst:.3e} at {worst_case} (bound 1e-10)",
    )
    assert ok
