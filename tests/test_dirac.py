"""Gamma algebra, plane-wave eigenmodes, exponential substitution, dual routes."""

import numpy as np
import pytest

from csoc.dirac import (
    COMPONENT_SIGNS,
    GammaSet,
    build_gammas,
    hopf_cole_check,
    hopf_cole_order,
    linearization_check,
    linearized_residual,
    plane_wave,
    route_consistency,
)
from csoc.errors import DomainError
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS, contract

ETA = MOSTLY_PLUS.eta

PROBE_Z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])

P_LOWER = np.array([0.3, 0.2, -0.1, 0.4])
A_CONST = np.array([0.2, -0.1, 0.05, 0.15])


def test_component_signs():
    assert COMPONENT_SIGNS == (1.0, 1.0, -1.0, -1.0)


def test_gamma_squares_match_the_metric():
    gp = build_gammas(MOSTLY_PLUS)
    assert np.array_equal(gp.matrices[0] @ gp.matrices[0], -np.eye(4))
    assert np.array_equal(gp.matrices[1] @ gp.matrices[1], np.eye(4))
    gm = build_gammas(MOSTLY_MINUS)
    assert np.array_equal(gm.matrices[0] @ gm.matrices[0], np.eye(4))


def test_gamma_pairs_anticommute():
    g = build_gammas(MOSTLY_PLUS).matrices
    for mu in range(4):
        for nu in range(mu + 1, 4):
            assert np.all(g[mu] @ g[nu] + g[nu] @ g[mu] == 0)


def test_clifford_residual_both_conventions():
    assert build_gammas(MOSTLY_PLUS).anticommutator_residual() < 1e-14
    assert build_gammas(MOSTLY_MINUS).anticommutator_residual() < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("metric", [MOSTLY_PLUS, MOSTLY_MINUS], ids=lambda m: str(m.diag))
def test_a_gamma_set_that_is_not_finite_is_refused(metric, bad):
    # the anticommutator and linearization residuals of such a set would read
    # 0.0, a pass: a builtin max over a NaN residual keeps the finite maximum
    matrices = build_gammas(metric).matrices.copy()
    matrices[2, 1, 3] = bad
    with pytest.raises(DomainError, match="finite"):
        GammaSet(matrices, metric, "standard")


def test_representation_labels():
    assert build_gammas(MOSTLY_PLUS).representation == "standard-times-i"
    assert build_gammas(MOSTLY_MINUS).representation == "standard"


def test_slash_square_on_unit_vector():
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        gammas = build_gammas(metric)
        a = np.array([1.0, 0, 0, 0])
        s = gammas.slash(a)
        assert np.array_equal(s @ s, metric.eta[0] * np.eye(4))
        assert gammas.square_slash_residual(a) < 1e-14


def test_linearization_over_random_vectors():
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        assert linearization_check(build_gammas(metric), n=100, seed=0) < 1e-12


def test_linearization_check_needs_a_vector():
    # a maximum over no vectors would read as a pass
    for n in (0, -1):
        with pytest.raises(DomainError):
            linearization_check(build_gammas(MOSTLY_PLUS), n=n)


def test_gamma_payload_shape():
    payload = build_gammas(MOSTLY_PLUS).to_payload()
    assert payload["metric_diag"] == [-1, 1, 1, 1]
    mats = np.asarray(payload["matrices"])
    assert mats.shape == (4, 4, 4, 2)
    # gamma^0 = i diag(1,1,-1,-1): purely imaginary entries
    assert mats[0, 0, 0, 0] == 0.0
    assert mats[0, 0, 0, 1] == 1.0


def test_plane_wave_dispersion_from_eigenproblem():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)
    psq = complex(contract(P_LOWER, P_LOWER, MOSTLY_PLUS))
    # g must square to P.P without assuming which root the solver picked
    assert abs(wave.g ** 2 - psq) < 1e-12
    assert wave.eigen_residual < 1e-12
    assert wave.lam == pytest.approx(-(wave.g + psq), abs=1e-12)
    minus = plane_wave(gammas, P_LOWER, branch="-")
    assert minus.g == pytest.approx(-wave.g, abs=1e-12)


def test_plane_wave_phase_and_norm_conventions():
    wave = plane_wave(build_gammas(MOSTLY_PLUS), P_LOWER)
    chi = wave.chi
    assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-12)
    k = int(np.argmax(np.abs(chi)))
    assert chi[k].imag == pytest.approx(0.0, abs=1e-12)
    assert chi[k].real > 0
    # all four components live, so each log-map value field is usable
    assert np.abs(chi).min() > 1e-6


def test_plane_wave_rejects_light_cone():
    with pytest.raises(DomainError):
        plane_wave(build_gammas(MOSTLY_PLUS), np.array([0.3, 0.3, 0, 0]))


def test_plane_wave_rejects_non_finite_inputs():
    gammas = build_gammas(MOSTLY_PLUS)
    for kwargs in ({"m": np.inf}, {"c": np.inf}, {"hbar": np.nan}, {"q": np.inf},
                   {"q": -np.inf, "a_const": A_CONST}):
        with pytest.raises(DomainError):
            plane_wave(gammas, P_LOWER, **kwargs)
    with pytest.raises(DomainError):
        plane_wave(gammas, [0.3, np.nan, 0.0, 0.0])


def test_plane_wave_potential_bookkeeping():
    gammas = build_gammas(MOSTLY_PLUS)
    free = plane_wave(gammas, P_LOWER)
    assert free.potential() is None
    coupled = plane_wave(gammas, P_LOWER, q=0.5, a_const=A_CONST)
    assert np.array_equal(coupled.p + coupled.q * coupled.a_const, P_LOWER + 0.5 * A_CONST)
    A = coupled.potential()
    assert np.array_equal(A(0.3, PROBE_Z), A_CONST)


def test_linear_operator_annihilates_free_wave():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)
    res = linearized_residual(gammas, wave.phi, 0.3, PROBE_Z, lam=wave.lam)
    assert np.abs(res).max() < 1e-6


def test_linear_operator_annihilates_coupled_wave():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER, q=0.5, a_const=A_CONST)
    res = linearized_residual(gammas, wave.phi, 0.3, PROBE_Z, lam=wave.lam,
                              q=0.5, A=wave.potential())
    assert np.abs(res).max() < 1e-6


def test_linear_operator_stencil_tau_route():
    # without lam the tau derivative comes from a stencil; a plane wave's
    # phase is locally well resolved, so the residual stays small
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)
    res = linearized_residual(gammas, wave.phi, 0.3, PROBE_Z)
    assert np.abs(res).max() < 1e-5


def test_linear_operator_sees_non_solutions():
    gammas = build_gammas(MOSTLY_PLUS)
    chi = np.array([1.0, 2.0, -1.0, 0.5], dtype=np.complex128)
    phi = lambda tau, z: np.exp(0.2 * z[0] - 0.1 * z[1]) * chi
    res = linearized_residual(gammas, phi, 0.3, PROBE_Z, lam=0.0)
    assert np.abs(res).max() > 0.1


def test_hopf_cole_linear_field():
    a = np.array([0.3, -0.2, 0.1, 0.4])
    j_field = lambda tau, z: complex(np.sum(a * z))
    rep = hopf_cole_check(j_field, 0.0, PROBE_Z, h=1e-3)
    assert rep.residual < 1e-8
    assert rep.lhs == pytest.approx(complex(np.sum(ETA * a * a)), abs=1e-8)


def test_hopf_cole_quadratic_field():
    a = np.array([0.3, -0.2, 0.1, 0.4])
    j_field = lambda tau, z: 0.25 * complex(np.sum(ETA * z * z)) + complex(np.sum(a * z))
    rep = hopf_cole_check(j_field, 0.0, PROBE_Z, h=1e-3)
    assert rep.residual < 1e-6


def test_hopf_cole_constant_field_is_exact():
    rep = hopf_cole_check(lambda tau, z: 0.7 - 0.2j, 0.0, PROBE_Z)
    assert rep.lhs == 0j
    assert rep.rhs == 0j
    assert rep.residual == 0.0


def test_hopf_cole_second_order_convergence():
    a = np.array([0.3, -0.2, 0.1, 0.4])
    j_field = lambda tau, z: 0.25 * complex(np.sum(ETA * z * z)) + complex(np.sum(a * z))
    order = hopf_cole_order(j_field, 0.0, PROBE_Z)
    assert 1.7 < order < 2.3


def test_hopf_cole_exp_side_evaluates_no_new_point():
    # the centre and 8 single-axis points; the exp side reads J's values
    calls = []

    def j_field(tau, z):
        calls.append(z)
        return 0.25 * complex(np.sum(ETA * z * z))

    hopf_cole_check(j_field, 0.0, PROBE_Z, h=1e-3)
    assert len(calls) == 9


def test_hopf_cole_rejects_vanishing_exponential():
    j_field = lambda tau, z: -50.0 + z[0]
    with pytest.raises(DomainError):
        hopf_cole_check(j_field, 0.0, PROBE_Z)


def test_routes_agree_away_from_solutions():
    # the identity between the substituted nonlinear form and the scaled
    # linear operator holds field by field, not only on solutions
    gammas = build_gammas(MOSTLY_PLUS)
    chi = np.array([1.0, 2.0, -1.0, 0.5], dtype=np.complex128)
    k = np.array([0.2, -0.1, 0.15, 0.05])
    phi = lambda tau, z: np.exp(complex(np.sum(k * z)) + 0.1 * tau) * chi
    report = route_consistency(gammas, phi, 0.3, PROBE_Z)
    assert np.abs(report.route_a).max() > 0.01
    assert report.max_discrepancy < 1e-6


def test_routes_agree_for_constant_spinor_with_potential():
    gammas = build_gammas(MOSTLY_PLUS)
    chi = np.array([1.0, 2.0, -1.0, 0.5], dtype=np.complex128)
    phi = lambda tau, z: chi
    A = lambda tau, z: A_CONST.astype(np.complex128)
    report = route_consistency(gammas, phi, 0.3, PROBE_Z, q=0.7, A=A)
    # constant fields make every stencil exact, leaving pure roundoff
    assert report.max_discrepancy < 1e-10


def test_routes_agree_on_free_plane_wave():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)
    report = route_consistency(gammas, wave.phi, 0.3, PROBE_Z,
                               components=(0, 2))
    assert report.max_discrepancy < 1e-6
    # a genuine solution sends both routes to zero individually
    assert np.abs(report.route_a).max() < 1e-6
    assert np.abs(report.route_b).max() < 1e-6


def test_routes_agree_on_coupled_plane_wave_all_components():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER, q=0.5, a_const=A_CONST)
    report = route_consistency(gammas, wave.phi, 0.3, PROBE_Z, q=0.5,
                               A=wave.potential())
    assert report.components == (0, 1, 2, 3)
    assert report.max_discrepancy < 1e-6


def test_route_consistency_rejects_dead_component():
    gammas = build_gammas(MOSTLY_PLUS)
    chi = np.array([1.0, 2.0, 0.0, 0.5], dtype=np.complex128)
    phi = lambda tau, z: np.exp(0.1 * z[0]) * chi
    with pytest.raises(DomainError):
        route_consistency(gammas, phi, 0.3, PROBE_Z, components=(2,))
    # dead components drop out of the coupling sum for live ones
    report = route_consistency(gammas, phi, 0.3, PROBE_Z, components=(0,))
    assert report.max_discrepancy < 1e-6


def test_route_consistency_validates_arguments():
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)
    # out of range, negative (no wrap-around to component 3) and empty
    for components in ((5,), (-1,), ()):
        with pytest.raises(DomainError):
            route_consistency(gammas, wave.phi, 0.3, PROBE_Z, components=components)


def test_route_consistency_evaluates_each_spinor_point_once():
    # the centre, 8 first-step, 8 second-step and 2 tau points, shared by
    # every component's log map and by the linear operator
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER, q=0.5, a_const=A_CONST)
    calls = []

    def phi(tau, z):
        calls.append(tau)
        return wave.phi(tau, z)

    route_consistency(gammas, phi, 0.3, PROBE_Z, q=0.5, A=wave.potential(),
                      components=(0, 2))
    assert len(calls) == 19


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_route_consistency_refuses_non_finite_spinor_values(value):
    # a NaN or infinite spinor value at the probe is named as such, not
    # taken for a vanishing component
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER)

    def phi(tau, z):
        out = wave.phi(tau, z).copy()
        out[1] = value
        return out

    with pytest.raises(DomainError, match="not finite"):
        route_consistency(gammas, phi, 0.3, PROBE_Z, components=(0,))


def test_plane_wave_phase_has_the_bits_of_numpys_reduction():
    # phi sums p.z in Python, paired as numpy reduces four complex values;
    # it must return what the numpy expression of the phase returns
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, P_LOWER, q=0.5, a_const=A_CONST)
    rng = np.random.default_rng(11)
    zs = rng.uniform(-2, 2, (300, 4)) + 1j * rng.uniform(-2, 2, (300, 4))
    zs[0] = [complex(-0.0, 0.3), complex(0.2, -0.0), 0j, complex(-0.0, -0.0)]
    for tau, z in zip(rng.uniform(0, 1, 300).tolist(), zs):
        p_z = complex(np.add.reduce(wave.p * z))
        want = np.exp(1j * p_z / wave.hbar - 1j * wave.lam * tau) * wave.chi
        assert wave.phi(tau, z).tobytes() == want.tobytes()
