"""Combined-equation residuals, pair recombination, covariance, probes."""

import hashlib

import numpy as np
import pytest

from csoc.ccalc import (
    DomainBox,
    complex_derivative,
    second_complex_derivative,
    tau_derivative,
)
from csoc.errors import DomainError
from csoc.hjb import (
    HJBProblem,
    _SHRINK,
    _sobol_unit,
    boundary_residual,
    covariance_check,
    dalembertian,
    hjb_residual_pair,
    hjb_residual_probe,
    optimal_control_at,
    probe_points,
    rest_shell_velocity,
)
from csoc.lagrangian import free_particle_lagrangian
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS
from csoc.wiener import DiffusionSpec, complex_sigma_squared

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
        w = rest_shell_velocity(2.0)
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
    res = hjb_residual_probe(problem, value, 0.4, PROBE_Z, h=1e-3).residual
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
    res_c = hjb_residual_probe(problem, field, tau, PROBE_Z, h=h).residual
    res_r, res_i = hjb_residual_pair(problem, field_r, field_i, tau,
                                     PROBE_Z.real, PROBE_Z.imag, h=h)
    assert abs(res_r - res_c.real) < 1e-5
    assert abs(res_i - res_c.imag) < 1e-5


def test_pair_residuals_quadratic_field_tight():
    # every stencil is exact on quadratics, so only roundoff separates routes
    problem = free_problem()
    field = FIELDS[0]
    res_c = hjb_residual_probe(problem, field, 0.37, PROBE_Z, h=1e-3).residual
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


def test_boundary_residual_propagates_nan():
    problem = free_problem()
    nan_field = lambda tau, z: complex(np.nan, 0.0)
    assert np.isnan(boundary_residual(problem, nan_field, [PROBE_Z, np.zeros(4)]))
    with pytest.raises(DomainError):
        boundary_residual(problem, nan_field, [])


def test_probe_points_reject_a_non_finite_box():
    for box in (DomainBox.cube(np.inf), DomainBox.cube(0.5, tau_hi=np.inf),
                DomainBox.cube(0.5, tau_lo=-np.inf)):
        with pytest.raises(DomainError):
            probe_points(box, n=8)


def test_probe_points_reject_a_finite_box_whose_span_overflows():
    # hi - lo overflows to inf here; the probes would be NaN
    for box in (DomainBox.cube(1e308), DomainBox.cube(0.5, tau_lo=-1e308, tau_hi=1e308)):
        with np.errstate(over="raise"), pytest.raises(DomainError, match="span"):
            probe_points(box, n=8)


def test_probe_points_non_power_of_two():
    pts = probe_points(DomainBox.cube(0.5), n=50)
    assert len(pts) == 50
    with pytest.raises(DomainError):
        probe_points(DomainBox.cube(0.5), n=0)


# the first 8 unscrambled 9-D Sobol points, in eighths (Joe-Kuo directions)
SOBOL_FIRST_8 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [4, 4, 4, 4, 4, 4, 4, 4, 4],
    [6, 2, 2, 2, 6, 6, 2, 6, 6],
    [2, 6, 6, 6, 2, 2, 6, 2, 2],
    [3, 3, 5, 7, 3, 1, 3, 7, 7],
    [7, 7, 1, 3, 7, 5, 7, 3, 3],
    [5, 1, 7, 5, 5, 7, 1, 1, 1],
    [1, 5, 3, 1, 1, 3, 5, 5, 5],
]
# sha256 of the little-endian float64 bytes of the first 4096 points
SOBOL_4096_SHA256 = "9c4901a351fa59c136ea7166c280ea32b31d7b944edccee4ae582756401d8d2c"


def test_sobol_points_match_the_pinned_table_and_digest():
    assert np.array_equal(_sobol_unit(8), np.array(SOBOL_FIRST_8) / 8)
    unit = _sobol_unit(4096)
    assert unit.shape == (4096, 9)
    assert 0.0 <= unit.min() and unit.max() < 1.0
    assert hashlib.sha256(unit.astype("<f8").tobytes()).hexdigest() == SOBOL_4096_SHA256
    assert np.array_equal(_sobol_unit(1), np.zeros((1, 9)))


def test_probe_points_are_a_prefix_of_a_longer_sequence():
    box = DomainBox.cube(0.5)
    short, long_ = probe_points(box, 50), probe_points(box, 64)
    for (ta, za), (tb, zb) in zip(short, long_[:50], strict=True):
        assert ta == tb
        assert np.array_equal(za, zb)
    unit_box = DomainBox(0.0, 1.0, (0.0,) * 4, (1.0,) * 4, (0.0,) * 4, (1.0,) * 4)
    rows = [[tau, *z.real, *z.imag] for tau, z in probe_points(unit_box, 64)]
    lo, hi = _SHRINK, 1.0 - _SHRINK   # the unit box shrunk at either end
    assert np.array_equal(rows, _sobol_unit(64) * (hi - lo) + lo)


def test_probe_points_reject_an_empty_box_and_too_many_points():
    for box in (DomainBox.cube(0.0), DomainBox.cube(0.5, tau_lo=1.0, tau_hi=1.0),
                DomainBox.cube(0.5, tau_lo=1.0, tau_hi=0.0)):
        with pytest.raises(DomainError):
            probe_points(box, n=8)
    with pytest.raises(DomainError):
        probe_points(DomainBox.cube(0.5), n=2 ** 30 + 1)


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


@pytest.mark.parametrize("h, n_calls", [(None, 19), (1e-3, 11)])
def test_residual_probe_shares_one_stencil(h, n_calls):
    # only the routes the residual reads: 8 x-route, the centre plus 8
    # xx-route and 2 tau points; at one explicit h the 8 x-route points are
    # xx-route points too
    calls = []

    def field(tau, z):
        calls.append(z)
        return FIELDS[1](tau, z)

    problem = free_problem()
    probe = hjb_residual_probe(problem, field, 0.37, PROBE_Z, h=h)
    assert len(calls) == n_calls
    # the public derivatives, each on its own stencil, give the same bits
    dj = complex_derivative(FIELDS[1], 0.37, PROBE_Z, h=h).d_x
    d2j = second_complex_derivative(FIELDS[1], 0.37, PROBE_Z, h=h).route_xx
    w_star, method = optimal_control_at(problem, dj, 0.37, PROBE_Z)
    bracket = complex(np.asarray(problem.lagrangian.value(0.37, PROBE_Z, w_star))) \
        + complex(np.sum(w_star * dj))
    second = 0.5 * complex(np.sum(complex_sigma_squared(problem.diffusion) * d2j))
    residual = -tau_derivative(FIELDS[1], 0.37, PROBE_Z, h=h) - bracket - second
    assert np.array_equal(probe.dJ, dj) and np.array_equal(probe.d2J, d2j)
    assert np.array_equal(probe.w_star, w_star) and probe.control_method == method
    assert probe.residual == residual


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
    assert val == complex(np.sum(ETA * rep2.route_xx))
    calls.clear()
    covariance_check(field, MOSTLY_PLUS, 0.3, 1, 0.2, PROBE_Z, h=h)
    assert len(calls) == 18
