"""Two-route complex differentiation and analyticity scans."""

import cmath

import numpy as np
import pytest

from csoc.ccalc import (
    DomainBox,
    ScalarField,
    analyticity_scan,
    complex_derivative,
    default_step,
    second_complex_derivative,
    tau_derivative,
)
from csoc.dirac import (build_gammas, hopf_cole_check, linearized_residual,
                        plane_wave, route_consistency)
from csoc.errors import DomainError
from csoc.hjb import HJBProblem, hjb_residual_pair, hjb_residual_probe
from csoc.lagrangian import Lagrangian, free_particle_lagrangian
from csoc.spacetime import MOSTLY_PLUS
from csoc.wiener import DiffusionSpec

ETA = MOSTLY_PLUS.eta


def quad_form(tau, z):
    return complex(np.sum(ETA * z * z))


def test_default_step_matches_cube_root_of_eps():
    assert default_step() == pytest.approx(np.finfo(float).eps ** (1 / 3))
    assert default_step(2.0) == pytest.approx(2 * np.finfo(float).eps ** (1 / 3))
    with pytest.raises(DomainError):
        default_step(0.0)


def test_first_derivative_of_metric_square():
    z = np.array([1 + 1j, 0, 0, 0], dtype=np.complex128)
    rep = complex_derivative(quad_form, 0.0, z, h=1e-4)
    # d/dz^0 of eta z z is 2 eta_00 z^0 = -2 (1+i); quadratic, so the
    # central stencil is exact up to roundoff
    assert rep.d_z[0] == pytest.approx(-2 - 2j, abs=1e-10)
    assert np.all(rep.cr_residuals < 1e-8)
    assert np.all(rep.consistency_residuals < 1e-8)
    assert rep.max_residual < 1e-8


def test_first_derivative_of_constant_is_zero():
    rep = complex_derivative(lambda tau, z: 3.7 - 0.2j, 0.0, np.zeros(4))
    assert np.all(np.abs(rep.d_z) < 1e-12)
    assert rep.max_residual < 1e-12


def test_conjugate_field_breaks_the_route_agreement():
    z = np.array([0.4 + 0.2j, 0, 0, 0], dtype=np.complex128)
    rep = complex_derivative(lambda tau, zz: complex(np.conj(zz[0])), 0.0, z)
    # d/dx conj = 1 but -i d/dy conj = -1: both diagnostics see the gap of 2
    assert rep.cr_residuals[0] == pytest.approx(2.0, abs=1e-6)
    assert rep.consistency_residuals[0] == pytest.approx(2.0, abs=1e-6)
    assert rep.cr_residuals[0] > 0.1


def test_first_derivative_of_exponential():
    z = np.array([0.3 + 0.1j, 0, 0, 0], dtype=np.complex128)
    rep = complex_derivative(lambda tau, zz: cmath.exp(zz[0]), 0.0, z)
    assert abs(rep.d_z[0] - cmath.exp(0.3 + 0.1j)) < 1e-6
    assert rep.max_residual < 1e-6


def test_second_derivative_routes_agree_on_square():
    z = np.array([0, 0.5 - 0.3j, 0, 0], dtype=np.complex128)
    rep = second_complex_derivative(lambda tau, zz: zz[1] ** 2, 0.0, z, h=1e-3)
    assert rep.d2_z[1] == pytest.approx(2.0, abs=1e-8)
    assert rep.route_xx[1] == pytest.approx(rep.route_yy[1], abs=1e-6)
    assert rep.route_xx[1] == pytest.approx(rep.route_xy[1], abs=1e-6)
    assert rep.max_discrepancy < 1e-6


def test_second_derivative_of_linear_is_zero():
    a = np.array([0.3, -0.2, 0.1, 0.7], dtype=np.complex128)
    rep = second_complex_derivative(lambda tau, zz: complex(a @ zz), 0.0,
                                    np.zeros(4), h=1e-3)
    assert np.all(np.abs(rep.d2_z) < 1e-8)


def test_second_derivative_routes_exact_for_cubics():
    # all three stencils are exact through cubic terms, so only roundoff
    # separates the routes at a generous step
    def cubic(tau, zz):
        return zz[0] ** 3 - 2.0 * zz[1] ** 2 * zz[0] + 0.5 * zz[2] ** 3

    z = np.array([0.3 + 0.1j, -0.2 + 0.05j, 0.4, 0.1j], dtype=np.complex128)
    rep = second_complex_derivative(cubic, 0.0, z, h=1e-2)
    assert rep.max_discrepancy < 1e-10


def test_tau_derivative_quadratic_exact():
    val = tau_derivative(lambda tau, z: complex(tau * tau), 0.4, np.zeros(4))
    assert val == pytest.approx(0.8, abs=1e-10)


def test_scan_passes_analytic_field():
    def field(tau, z):
        return quad_form(tau, z) + 0.1 * cmath.exp(z[0]) + tau * z[1]

    rng = np.random.default_rng(0)
    probes = [(rng.uniform(0, 1),
               rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4))
              for _ in range(50)]
    report = analyticity_scan(field, probes, h=1e-4)
    assert report.passed
    assert report.n_failed == 0
    assert report.worst.scaled_residual < 1e-6


def test_scan_rejects_conjugate_contamination():
    def field(tau, z):
        return quad_form(tau, z) + 0.5 * complex(np.conj(z[0]))

    rng = np.random.default_rng(1)
    probes = [(0.0, rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4))
              for _ in range(10)]
    report = analyticity_scan(field, probes, h=1e-4)
    assert not report.passed
    assert report.n_failed == len(probes)
    assert report.worst.scaled_residual > 0.1


def test_scan_rejects_modulus_square_off_real_axis():
    def field(tau, z):
        return complex(abs(z[0]) ** 2)

    probe = (0.0, np.array([0.5 + 0.3j, 0, 0, 0], dtype=np.complex128))
    report = analyticity_scan(field, [probe], h=1e-4)
    assert not report.passed
    assert report.worst.residual > 0.1


def test_scan_zero_field_has_zero_residual():
    probes = [(0.0, np.zeros(4, dtype=np.complex128))]
    report = analyticity_scan(lambda tau, z: 0j, probes)
    assert report.passed
    assert report.worst.scaled_residual == 0.0


def test_scan_requires_probes():
    with pytest.raises(DomainError):
        analyticity_scan(lambda tau, z: 0j, [])


def test_component_extraction_identities():
    # Z = re(Z) - i re(iZ) and Z = im(iZ) + i im(Z): the pair-route bridges
    rng = np.random.default_rng(2)
    zz = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.array_equal(zz.real - 1j * (1j * zz).real, zz)
    assert np.array_equal((1j * zz).imag + 1j * zz.imag, zz)


def test_box_restricts_stencils():
    box = DomainBox.cube(0.5)
    field = ScalarField(f=quad_form, box=box)
    edge = np.array([0.499, 0, 0, 0], dtype=np.complex128)
    with pytest.raises(DomainError):
        complex_derivative(field, 0.5, edge, h=1e-2)
    inside = np.array([0.4, 0, 0, 0], dtype=np.complex128)
    rep = complex_derivative(field, 0.5, inside, h=1e-2)
    assert rep.max_residual < 1e-8
    with pytest.raises(DomainError):
        complex_derivative(field, 2.0, inside, h=1e-2)


def test_box_membership_with_margin():
    box = DomainBox.cube(1.0)
    z = np.array([0.95, 0, 0, 0], dtype=np.complex128)
    assert box.contains(0.5, z)
    assert not box.contains(0.5, z, margin=0.1)
    assert not box.contains(-0.1, z)


def _explicit_step_entry_points():
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    lag = free_particle_lagrangian()
    problem = HJBProblem(lagrangian=lag, diffusion=DiffusionSpec.natural(), tau_f=1.0)
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, [0.3, 0.2, -0.1, 0.4])
    real = lambda tau, x, y: float(np.sum(x * x - y * y))
    return {
        "analyticity_scan": lambda h: analyticity_scan(quad_form, [(0.3, z)], h=h),
        "hjb_residual_probe": lambda h: hjb_residual_probe(problem, quad_form, 0.3, z, h=h),
        "hjb_residual_pair": lambda h: hjb_residual_pair(problem, real, real, 0.3,
                                                         z.real, z.imag, h=h),
        "hopf_cole_check": lambda h: hopf_cole_check(quad_form, 0.3, z, h=h),
        "route_consistency": lambda h: route_consistency(gammas, wave.phi, 0.3, z, h=h),
        "linearized_residual": lambda h: linearized_residual(gammas, wave.phi, 0.3, z,
                                                             lam=wave.lam, h=h),
        "Lagrangian.grad": lambda h: Lagrangian(value=lag.value).grad(
            0.3, z, np.array([1.0, 0.2, 0, 0], dtype=np.complex128), h=h),
    }


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan")])
@pytest.mark.parametrize("entry", sorted(_explicit_step_entry_points()))
def test_an_explicit_step_must_be_positive(entry, h):
    call = _explicit_step_entry_points()[entry]
    call(1e-3)   # a positive step goes through
    with pytest.raises(DomainError, match="h must be positive"):
        call(h)
