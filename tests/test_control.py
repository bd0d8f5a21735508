"""Stationarity solves and the dual real-pair equivalence audit."""

import numpy as np
import pytest

from csoc.control import equivalence_audit, solve_optimal_control
from csoc.errors import AnalyticityError, DomainError, NonConvergenceError
from csoc.lagrangian import (
    EMFieldConfig,
    Lagrangian,
    em_lagrangian,
    free_particle_lagrangian,
    quadratic_lagrangian,
    vector_potential_preset,
)
from csoc.spacetime import LOWER, UPPER, ComplexFourVector, MOSTLY_PLUS

ETA = MOSTLY_PLUS.eta


def test_solve_free_particle_momentum_balance():
    # m w_mu = -dJ_mu, so the lower-index root mirrors the gradient
    res = solve_optimal_control(free_particle_lagrangian(), [1, 0, 0, 0])
    assert res.converged
    assert res.w_star.index == UPPER
    lower = res.w_star.flipped(MOSTLY_PLUS)
    assert np.allclose(lower.components, [-1, 0, 0, 0], atol=1e-10)
    assert np.allclose(res.w_star.components, [1, 0, 0, 0], atol=1e-10)


def test_solve_with_potential_shifts_the_root():
    A, _ = vector_potential_preset("constant(0.1,0,0,0)")
    lag = em_lagrangian(EMFieldConfig(q=2.0, A=A))
    res = solve_optimal_control(lag, [0.3, 0, 0, 0])
    lower = res.w_star.flipped(MOSTLY_PLUS)
    # m w_mu = -(dJ_mu + q A_mu) = -0.5
    assert np.allclose(lower.components, [-0.5, 0, 0, 0], atol=1e-10)


def test_solve_complex_gradient():
    dJ = np.array([0.1 + 0.2j, -0.05j, 0.2, 0], dtype=np.complex128)
    res = solve_optimal_control(free_particle_lagrangian(), dJ)
    lower = res.w_star.flipped(MOSTLY_PLUS)
    assert np.allclose(lower.components, -dJ, atol=1e-10)
    assert np.abs(res.residual_complex).max() < 1e-10
    assert np.abs(res.residual_real_pair).max() < 1e-10


def test_residual_pair_reconstructs_complex_residual():
    dJ = np.array([0.3 + 0.1j, 0.2, -0.4j, 0.05], dtype=np.complex128)
    res = solve_optimal_control(quadratic_lagrangian(a=1.5), dJ)
    rp = res.residual_real_pair
    assert np.array_equal(rp[:4] - 1j * rp[4:], res.residual_complex)


def test_solve_agrees_with_closed_form():
    A, _ = vector_potential_preset("constant(0.2,-0.1,0,0.05)")
    lag = em_lagrangian(EMFieldConfig(q=0.7, A=A))
    dJ = np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j
    res = solve_optimal_control(lag, dJ, tol=1e-12)
    want = lag.em.stationary_control(0.0, np.zeros(4, np.complex128), dJ)
    assert np.allclose(res.w_star.components, want, atol=1e-10)


def test_solve_validates_dj():
    lag = free_particle_lagrangian()
    with pytest.raises(DomainError):
        solve_optimal_control(lag, [1, 0, 0])
    upper = ComplexFourVector(np.ones(4), UPPER)
    with pytest.raises(DomainError):
        solve_optimal_control(lag, upper)
    lower = ComplexFourVector(np.array([0.2, 0, 0, 0], dtype=np.complex128), LOWER)
    res = solve_optimal_control(lag, lower)
    assert res.converged


def test_solver_reports_nonconvergence():
    stuck = Lagrangian(value=lambda tau, z, w: 0j,
                       gradient_w=lambda tau, z, w: np.full(4, 1.0 + 0j))
    with pytest.raises(NonConvergenceError):
        solve_optimal_control(stuck, [1, 0, 0, 0])


def quadratic_value_field(tau, z):
    return 0.1 * complex(np.sum(ETA * z * z)) + 0.3 * z[0] + 0.05 * tau


def random_probes(n, seed, half=0.4):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0, 1),
             rng.uniform(-half, half, 4) + 1j * rng.uniform(-half, half, 4))
            for _ in range(n)]


def test_audit_passes_analytic_quadratic_field():
    A, _ = vector_potential_preset("constant(0.05,0.02,0,0)")
    lag = em_lagrangian(EMFieldConfig(q=0.3, A=A))
    report = equivalence_audit(lag, quadratic_value_field,
                               random_probes(20, seed=3), h=1e-4)
    assert report.passed
    assert report.singular_probes == ()
    assert report.max_disagreement < 1e-8
    assert report.max_closed_form_disagreement < 1e-10


def test_audit_independent_sets_solve_from_scratch():
    report = equivalence_audit(free_particle_lagrangian(), quadratic_value_field,
                               random_probes(5, seed=4), h=1e-4)
    for probe in report.probes:
        assert probe.w_real_set is not None
        assert probe.w_imag_set is not None
        assert np.abs(probe.w_real_set - probe.w_imag_set).max() < 1e-8


def test_audit_flags_branch_point_as_singular():
    # zero field: the stationary velocity is w = 0, which sits on the
    # square-root branch point, not an interior stationarity
    report = equivalence_audit(free_particle_lagrangian(), lambda tau, z: 0j,
                               [(0.0, np.zeros(4, dtype=np.complex128))], h=1e-4)
    assert report.passed
    assert report.singular_probes == (0,)
    assert "no interior stationary point" in report.probes[0].note


def test_audit_refuses_nonanalytic_field():
    def contaminated(tau, z):
        return quadratic_value_field(tau, z) + 0.2 * complex(np.conj(z[1]))

    with pytest.raises(AnalyticityError):
        equivalence_audit(free_particle_lagrangian(), contaminated,
                          random_probes(5, seed=5), h=1e-4)


def test_audit_quadratic_lagrangian_has_no_branch_flag():
    # unconstrained quadratic Lagrangian: w = 0 is a fine stationary point
    report = equivalence_audit(quadratic_lagrangian(a=1.0), lambda tau, z: 0j,
                               [(0.0, np.zeros(4, dtype=np.complex128))], h=1e-4)
    assert report.passed
    assert report.singular_probes == ()


def test_audit_fails_when_the_stationarity_solve_does_not_converge():
    # a gradient with no root is a solver failure, not a branch point: the
    # probe stays in the pass criterion and fails it
    stuck = Lagrangian(value=lambda tau, z, w: 0j,
                       gradient_w=lambda tau, z, w: np.full(4, 1.0 + 0j))
    report = equivalence_audit(stuck, quadratic_value_field,
                               random_probes(3, seed=6), h=1e-4)
    assert not report.passed
    assert report.singular_probes == ()
    assert report.max_disagreement == float("inf")
    for probe in report.probes:
        assert probe.w_real_set is None
        assert "stationarity solve failed" in probe.note


def counted(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


def test_audit_evaluates_the_value_field_once_per_stencil_point():
    # the scan's stencils feed the solves: 16 points per probe, not 32
    field = counted(quadratic_value_field)
    probes = random_probes(4, seed=7)
    equivalence_audit(free_particle_lagrangian(), field, probes, h=1e-4)
    assert field.calls == 16 * len(probes)


def test_newton_jacobian_is_one_batched_gradient_call():
    A, _ = vector_potential_preset("constant(0.2,-0.1,0,0.05)")
    lag = em_lagrangian(EMFieldConfig(q=0.7, A=A))
    grad = counted(lag.gradient_w)
    lag = Lagrangian(value=lag.value, gradient_w=grad, em=lag.em)
    res = solve_optimal_control(lag, np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j)
    assert res.converged
    assert grad.calls <= 6
