"""Stationarity solves and the dual real-pair equivalence audit."""

import numpy as np
import pytest

from csoc.control import (AuditProbe, AuditReport, _newton8, equivalence_audit,
                          solve_optimal_control)
from csoc.errors import AnalyticityError, DomainError, NonConvergenceError
from csoc.lagrangian import (
    EMFieldConfig,
    Lagrangian,
    em_lagrangian,
    free_particle_lagrangian,
    quadratic_lagrangian,
    vector_potential_preset,
)
from csoc.spacetime import MOSTLY_PLUS

ETA = MOSTLY_PLUS.eta


def solved(res) -> bool:
    """Every real component of dL/dw + dJ at the root is below the solve's 1e-10."""
    g = res.residual_complex
    return bool(np.abs(np.concatenate([g.real, g.imag])).max() < 1e-10)


def root(res) -> np.ndarray:
    """w_star, checked to be a read-only (4,) complex array (upper index)."""
    w = res.w_star
    assert isinstance(w, np.ndarray) and w.shape == (4,) and w.dtype == np.complex128
    assert not w.flags.writeable
    return w


def test_solve_free_particle_momentum_balance():
    # m w_mu = -dJ_mu, so the lower-index root mirrors the gradient
    res = solve_optimal_control(free_particle_lagrangian(), [1, 0, 0, 0])
    assert solved(res)
    lower = MOSTLY_PLUS.eta * root(res)
    assert np.allclose(lower, [-1, 0, 0, 0], atol=1e-10)
    assert np.allclose(res.w_star, [1, 0, 0, 0], atol=1e-10)


def test_solve_with_potential_shifts_the_root():
    A, _ = vector_potential_preset("constant(0.1,0,0,0)")
    lag = em_lagrangian(EMFieldConfig(q=2.0, A=A))
    res = solve_optimal_control(lag, [0.3, 0, 0, 0])
    lower = MOSTLY_PLUS.eta * root(res)
    # m w_mu = -(dJ_mu + q A_mu) = -0.5
    assert np.allclose(lower, [-0.5, 0, 0, 0], atol=1e-10)


def test_solve_complex_gradient():
    dJ = np.array([0.1 + 0.2j, -0.05j, 0.2, 0], dtype=np.complex128)
    res = solve_optimal_control(free_particle_lagrangian(), dJ)
    lower = MOSTLY_PLUS.eta * root(res)
    assert np.allclose(lower, -dJ, atol=1e-10)
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
    res = solve_optimal_control(lag, dJ)
    want = lag.em.stationary_control(0.0, np.zeros(4, np.complex128), dJ)
    assert np.allclose(root(res), want, atol=1e-10)


def test_solve_validates_dj():
    lag = free_particle_lagrangian()
    for bad in ([1, 0, 0], np.ones((2, 4))):
        with pytest.raises(DomainError, match="4 components"):
            solve_optimal_control(lag, bad)
    res = solve_optimal_control(lag, np.array([0.2, 0, 0, 0], dtype=np.complex128))
    assert solved(res)
    assert np.allclose(root(res), [0.2, 0, 0, 0], atol=1e-10)


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
    assert not report.passed   # no probe was compared, so there is no evidence
    assert report.max_disagreement == report.max_closed_form_disagreement == np.inf
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
    assert solved(res)
    assert grad.calls <= 6


def rows_of(report):
    return [(p.w_real_set, p.w_imag_set, p.disagreement, p.closed_form_disagreement,
             p.singular, p.note) for p in report.probes]


def same_probe(a, b):
    (wr_a, wi_a, *rest_a), (wr_b, wi_b, *rest_b) = a, b
    same_roots = all(x is None and y is None or x.tobytes() == y.tobytes()
                     for x, y in ((wr_a, wr_b), (wi_a, wi_b)))
    return same_roots and rest_a == rest_b


def test_a_failing_row_fails_its_probe_alone():
    # x^0 > 0: a kink the Newton step climbs, so damping stalls; x^1 > 0.2: a
    # gradient flat in w, so the Jacobian is singular; elsewhere a root.
    # np.linalg.solve refuses a batch with one singular matrix, so the batch
    # falls back to solving each system on its own
    def gradient_w(tau, z, w):
        w = np.asarray(w, dtype=np.complex128)
        kink = np.where(z[..., :1].real > 0, 10.0, 0.0)
        slope = np.where(z[..., 1:2].real > 0.2, 0.0, 1.0)
        return 1 + slope * w + kink * (np.abs(w.real) + 1j * np.abs(w.imag))

    lag = Lagrangian(value=lambda tau, z, w: np.zeros(np.shape(w)[:-1], complex),
                     gradient_w=gradient_w)
    probes = random_probes(12, seed=11)
    report = equivalence_audit(lag, quadratic_value_field, probes, h=1e-4)
    notes = {p.note.split(" at")[0].split(" after")[0] for p in report.probes}
    assert notes == {"", "stationarity solve failed: damping stalled",
                     "stationarity solve failed: singular Jacobian"}
    assert not report.passed
    for probe, row in zip(probes, rows_of(report)):
        alone = rows_of(equivalence_audit(lag, quadratic_value_field, [probe], h=1e-4))[0]
        assert same_probe(row, alone)


def test_tau_dependent_potential_gives_the_same_roots_batched():
    def potential(tau, z):   # A_0 = tau z^1, tau one per row of z or a float
        z = np.asarray(z, dtype=np.complex128)
        a = np.zeros(z.shape, dtype=np.complex128)
        a[..., 0] = tau * z[..., 1]
        return a

    lag = em_lagrangian(EMFieldConfig(q=0.5, A=potential))
    probes = random_probes(8, seed=12)
    report = equivalence_audit(lag, quadratic_value_field, probes)
    assert report.passed and report.max_closed_form_disagreement < 1e-8
    for probe, row in zip(probes, rows_of(report)):
        assert same_probe(row, rows_of(equivalence_audit(lag, quadratic_value_field, [probe]))[0])


def test_a_gradient_that_ignores_w_still_broadcasts_over_rows():
    stuck = Lagrangian(value=lambda tau, z, w: 0j,
                       gradient_w=lambda tau, z, w: np.full(4, 1.0 + 0j))
    with pytest.raises(NonConvergenceError, match="singular Jacobian after 0 iterations"):
        solve_optimal_control(stuck, np.zeros(4))
    report = equivalence_audit(stuck, quadratic_value_field, random_probes(5, seed=13), h=1e-4)
    assert [p.note for p in report.probes] == [
        "stationarity solve failed: singular Jacobian after 0 iterations"] * 5


def test_each_row_of_a_newton_batch_ends_as_it_would_alone():
    # per row r = a theta + b theta^3 - c: rows converging after 0, 1 and
    # several iterations, and one (a = b = 0) whose Jacobian is singular
    a = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    b = np.array([0.0, 0.0, 1.0, 0.0, 5.0])
    c = np.array([0.0, 0.3, 2.0, 1.0, 10.0])[:, None] * np.linspace(0.5, 1.5, 8)

    def system(ids):
        def residual(rows, theta):
            lead = (ids[rows],) + (None,) * (theta.ndim - 2)   # rows, then theta's extra axes
            return a[lead][..., None] * theta + b[lead][..., None] * theta ** 3 - c[lead]
        return residual

    roots, residuals, iterations, failures = _newton8(system(np.arange(5)), 1e-12, 5)
    assert sorted(failures) == [3] and len(set(iterations[[0, 1, 2, 4]].tolist())) == 4
    for k in range(5):
        alone = _newton8(system(np.array([k])), 1e-12)
        assert roots[k].tobytes() == alone[0][0].tobytes()
        assert residuals[k].tobytes() == alone[1][0].tobytes()
        assert iterations[k] == alone[2][0]
        assert str(failures.get(k)) == str(alone[3].get(0))


def hand_built_audit(*disagreements):
    z = np.zeros(4, dtype=np.complex128)
    probes = tuple(AuditProbe(0.0, z, z, z, disagreement=d, closed_form_disagreement=d,
                              singular=False) for d in disagreements)
    return AuditReport(probes=probes, tol=1e-8,
                       passed=all(d < 1e-8 for d in disagreements))


@pytest.mark.parametrize("disagreements", [(1e-12, float("nan")), (float("nan"), 1e-12),
                                           (1e-12, float("nan"), 3e-12)])
def test_a_nan_disagreement_is_the_audits_maximum(disagreements):
    report = hand_built_audit(*disagreements)
    assert not report.passed
    assert np.isnan(report.max_disagreement)
    assert np.isnan(report.max_closed_form_disagreement)
