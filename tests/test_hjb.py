"""Combined-equation residuals, pair recombination, covariance, probes."""

import numpy as np
import pytest

from csoc.ccalc import DomainBox, second_complex_derivative
from csoc.errors import DomainError
from csoc.hjb import (
    HJBProblem,
    boundary_residual,
    covariance_check,
    dalembertian,
    hjb_residual_complex,
    hjb_residual_pair,
    hjb_residual_probe,
    optimal_control_at,
    probe_points,
    rest_shell_velocity,
)
from csoc.lagrangian import free_particle_lagrangian
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS
from csoc.wiener import DiffusionSpec

ETA = MOSTLY_PLUS.eta

PROBE_Z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])


def free_problem(metric=MOSTLY_PLUS, tau_f=1.0):
    return HJBProblem(
        lagrangian=free_particle_lagrangian(metric=metric),
        diffusion=DiffusionSpec.natural(metric=metric),
        tau_f=tau_f,
    )


def test_problem_rejects_metric_disagreement():
    with pytest.raises(DomainError):
        HJBProblem(lagrangian=free_particle_lagrangian(metric=MOSTLY_MINUS),
                   diffusion=DiffusionSpec.natural(metric=MOSTLY_PLUS),
                   tau_f=1.0)
    with pytest.raises(DomainError):
        HJBProblem(lagrangian=free_particle_lagrangian(),
                   diffusion=DiffusionSpec.natural(), tau_f=np.inf)


def test_rest_shell_velocity_is_on_shell_both_conventions():
    from csoc.spacetime import weak_equation_residual

    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        w = rest_shell_velocity(metric, 2.0)
        assert np.array_equal(w, [2, 0, 0, 0])
        assert weak_equation_residual(w, metric, 2.0) == 0


def test_free_particle_value_solves_the_equation():
    # J = sigma_tilde m c^2 (tau_f - tau): gradient-free, so the control is
    # shell-degenerate and the bracket cancels the tau derivative exactly
    problem = free_problem()
    value = lambda tau, z: complex(-(1.0 - tau))
    for tau, z in ((0.2, PROBE_Z), (0.5, np.zeros(4, np.complex128)),
                   (0.8, 0.5 * PROBE_Z)):
        probe = hjb_residual_probe(problem, value, tau, z, h=1e-3)
        assert abs(probe.residual) < 1e-10
        assert probe.control_method == "shell-degenerate"
        assert np.array_equal(probe.w_star, [1, 0, 0, 0])
    assert boundary_residual(problem, value, [PROBE_Z, np.zeros(4)]) == 0.0


def test_free_particle_value_mostly_minus():
    problem = free_problem(metric=MOSTLY_MINUS)
    value = lambda tau, z: complex(1.0 - tau)
    res = hjb_residual_complex(problem, value, 0.4, PROBE_Z, h=1e-3)
    assert abs(res) < 1e-10


def test_degenerate_fallback_threshold():
    problem = free_problem()
    w, method = optimal_control_at(problem, np.full(4, 1e-12 + 0j), 0.0, PROBE_Z)
    assert method == "shell-degenerate"
    w2, method2 = optimal_control_at(problem, np.array([0.3, 0, 0, 0.1 + 0j]),
                                     0.0, PROBE_Z)
    assert method2 == "closed-form"
    assert np.allclose(w2, ETA * np.array([-0.3, 0, 0, -0.1]))


def test_probe_record_shape():
    problem = free_problem()
    probe = hjb_residual_probe(problem, lambda tau, z: complex(-(1 - tau)),
                               0.3, PROBE_Z, h=1e-3)
    rec = probe.to_record()
    assert sorted(rec) == ["residual_im", "residual_re", "tau",
                           "w_star_im", "w_star_re", "z_im", "z_re"]
    assert rec["tau"] == 0.3
    assert rec["z_re"] == [0.11, -0.23, 0.17, 0.05]
    assert rec["w_star_re"] == [1.0, 0.0, 0.0, 0.0]


FIELDS = [
    lambda tau, z: 0.2 * complex(np.sum(ETA * z * z)) + 0.1 * z[0] + 0.05 * tau ** 2,
    lambda tau, z: 0.1 * np.exp(z[0]) + 0.3 * z[1] + 0.02 * tau,
    lambda tau, z: 0.05 * np.sin(z[1]) + 0.1 * z[2] ** 2 + 0.07 * np.cos(z[3])
                   + 0.01 * tau ** 2,
]


@pytest.mark.parametrize("field_idx", [0, 1, 2])
def test_pair_residuals_recombine_into_complex_residual(field_idx):
    # the two real equations, evaluated purely from real stencils of J_R and
    # J_I, must reproduce (re, im) of the complex-route residual
    problem = free_problem()
    field = FIELDS[field_idx]

    def field_r(tau, x, y):
        return float(np.real(field(tau, x + 1j * y)))

    def field_i(tau, x, y):
        return float(np.imag(field(tau, x + 1j * y)))

    tau = 0.37
    h = 1e-3
    res_c = hjb_residual_complex(problem, field, tau, PROBE_Z, h=h)
    res_r, res_i = hjb_residual_pair(problem, field_r, field_i, tau,
                                     PROBE_Z.real, PROBE_Z.imag, h=h)
    assert abs(res_r - res_c.real) < 1e-5
    assert abs(res_i - res_c.imag) < 1e-5


def test_pair_residuals_quadratic_field_tight():
    # every stencil is exact on quadratics, so only roundoff separates routes
    problem = free_problem()
    field = FIELDS[0]
    res_c = hjb_residual_complex(problem, field, 0.37, PROBE_Z, h=1e-3)
    res_r, res_i = hjb_residual_pair(
        problem,
        lambda tau, x, y: float(np.real(field(tau, x + 1j * y))),
        lambda tau, x, y: float(np.imag(field(tau, x + 1j * y))),
        0.37, PROBE_Z.real, PROBE_Z.imag, h=1e-3)
    assert abs(res_r - res_c.real) < 1e-8
    assert abs(res_i - res_c.imag) < 1e-8


def test_pair_residual_validates_shapes():
    problem = free_problem()
    with pytest.raises(DomainError):
        hjb_residual_pair(problem, lambda t, x, y: 0.0, lambda t, x, y: 0.0,
                          0.3, np.zeros(3), np.zeros(4))


def test_dalembertian_of_metric_square():
    # d2/dz2 of eta z z is 2 eta per axis; contracting with eta gives 8
    val = dalembertian(lambda tau, z: complex(np.sum(ETA * z * z)), 0.0,
                       PROBE_Z, MOSTLY_PLUS, h=1e-2)
    assert val == pytest.approx(8.0, abs=1e-8)


def test_covariance_of_dalembertian_quadratic():
    value = lambda tau, z: complex(np.sum(ETA * z * z))
    for axis in (1, 2, 3):
        disc = covariance_check(value, MOSTLY_PLUS, 0.3, axis, 0.0, PROBE_Z,
                                h=1e-2)
        assert disc < 1e-8


def test_covariance_of_dalembertian_cubic():
    # z0-cubed has a position-dependent d'Alembertian, -6 z^0, and cubic
    # fields keep second-difference stencils exact
    value = lambda tau, z: z[0] ** 3 + 0.5 * z[1] ** 2
    disc = covariance_check(value, MOSTLY_PLUS, 0.5, 1, 0.0, PROBE_Z, h=1e-2)
    assert disc < 1e-8


def test_covariance_asymmetric_quadratic():
    value = lambda tau, z: z[0] ** 2 + z[1] ** 2
    disc = covariance_check(value, MOSTLY_PLUS, 0.3, 1, 0.0, PROBE_Z, h=1e-2)
    assert disc < 1e-6


def test_probe_points_deterministic_and_interior():
    box = DomainBox.cube(1.0)
    pts_a = probe_points(box, n=64)
    pts_b = probe_points(box, n=64)
    assert len(pts_a) == 64
    for (ta, za), (tb, zb) in zip(pts_a, pts_b):
        assert ta == tb
        assert np.array_equal(za, zb)
    for tau, z in pts_a:
        assert 0.05 <= tau <= 0.95
        assert np.all(np.abs(z.real) <= 0.9 + 1e-12)
        assert np.all(np.abs(z.imag) <= 0.9 + 1e-12)


def test_probe_points_non_power_of_two():
    pts = probe_points(DomainBox.cube(0.5), n=50)
    assert len(pts) == 50
    with pytest.raises(DomainError):
        probe_points(DomainBox.cube(0.5), n=0)
    with pytest.raises(DomainError):
        probe_points(DomainBox.cube(0.5), n=8, shrink=0.7)


def test_pair_residual_evaluates_each_stencil_point_once():
    # 8 first-route, 1 centre, 8 second-route (shared with the first at one
    # h), 16 mixed and 2 tau points: 35 per field
    calls = {"r": 0, "i": 0}

    def make(part, key):
        def field(tau, x, y):
            calls[key] += 1
            return float(part(FIELDS[0](tau, x + 1j * y)))
        return field

    hjb_residual_pair(free_problem(), make(np.real, "r"), make(np.imag, "i"),
                      0.37, PROBE_Z.real, PROBE_Z.imag, h=1e-3)
    assert calls == {"r": 35, "i": 35}


@pytest.mark.parametrize("h", [None, 1e-3])
def test_dalembertian_evaluates_only_the_xx_route(h):
    # centre plus 8 xx-route points; the covariance check takes two of them
    calls = []

    def field(tau, z):
        calls.append(z)
        return FIELDS[2](tau, z)

    val = dalembertian(field, 0.2, PROBE_Z, MOSTLY_PLUS, h=h)
    assert len(calls) == 9
    rep2 = second_complex_derivative(FIELDS[2], 0.2, PROBE_Z, h=h)
    assert val == complex(np.sum(ETA * rep2.d2_z))
    calls.clear()
    covariance_check(field, MOSTLY_PLUS, 0.3, 1, 0.2, PROBE_Z, h=h)
    assert len(calls) == 18
