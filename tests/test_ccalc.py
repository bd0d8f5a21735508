"""Two-route complex differentiation and analyticity scans."""

import cmath

import numpy as np
import pytest

from csoc.ccalc import (
    DomainBox,
    ScalarField,
    _probe_stencil,
    analyticity_scan,
    complex_derivative,
    second_complex_derivative,
    tau_derivative,
)
from csoc.control import equivalence_audit, solve_optimal_control
from csoc.dirac import (build_gammas, hopf_cole_check, linearized_residual,
                        plane_wave, route_consistency)
from csoc.errors import DomainError
from csoc.hjb import (HJBProblem, boundary_residual, covariance_check, dalembertian,
                      hjb_residual_pair, hjb_residual_probe, optimal_control_at)
from csoc.lagrangian import Lagrangian, free_particle_lagrangian, quadratic_lagrangian
from csoc.sde import bellman_consistency, constant_policy, integrate
from csoc.spacetime import MOSTLY_PLUS
from csoc.wiener import DiffusionSpec

ETA = MOSTLY_PLUS.eta


def quad_form(tau, z):
    return complex(np.sum(ETA * z * z))


def test_default_step_matches_cube_root_of_eps():
    # the step scales with max(1, max |z^mu|): eps^(1/3) for first
    # differences, eps^(1/4) for second ones
    eps = np.finfo(float).eps
    for scale in (1.0, 2.0):
        z = np.array([0.5, -scale, 0.25j, 0])
        assert complex_derivative(quad_form, 0.0, z).h == pytest.approx(scale * eps ** (1 / 3))
        assert second_complex_derivative(quad_form, 0.0, z).h == pytest.approx(scale * eps ** (1 / 4))


def test_first_derivative_of_metric_square():
    z = np.array([1 + 1j, 0, 0, 0], dtype=np.complex128)
    rep = complex_derivative(quad_form, 0.0, z, h=1e-4)
    # d/dz^0 of eta z z is 2 eta_00 z^0 = -2 (1+i); quadratic, so the
    # central stencil is exact up to roundoff
    assert rep.d_x[0] == pytest.approx(-2 - 2j, abs=1e-10)
    assert np.all(rep.cr_residuals < 1e-8)
    assert np.all(rep.consistency_residuals < 1e-8)
    assert max(rep.cr_residuals.max(), rep.consistency_residuals.max()) < 1e-8


def test_first_derivative_of_constant_is_zero():
    rep = complex_derivative(lambda tau, z: 3.7 - 0.2j, 0.0, np.zeros(4))
    assert np.all(np.abs(rep.d_x) < 1e-12)
    assert max(rep.cr_residuals.max(), rep.consistency_residuals.max()) < 1e-12


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
    assert abs(rep.d_x[0] - cmath.exp(0.3 + 0.1j)) < 1e-6
    assert max(rep.cr_residuals.max(), rep.consistency_residuals.max()) < 1e-6


def test_second_derivative_routes_agree_on_square():
    z = np.array([0, 0.5 - 0.3j, 0, 0], dtype=np.complex128)
    rep = second_complex_derivative(lambda tau, zz: zz[1] ** 2, 0.0, z, h=1e-3)
    assert rep.route_xx[1] == pytest.approx(2.0, abs=1e-8)
    assert rep.route_xx[1] == pytest.approx(rep.route_yy[1], abs=1e-6)
    assert rep.route_xx[1] == pytest.approx(rep.route_xy[1], abs=1e-6)
    assert rep.max_discrepancy < 1e-6


def test_second_derivative_of_linear_is_zero():
    a = np.array([0.3, -0.2, 0.1, 0.7], dtype=np.complex128)
    rep = second_complex_derivative(lambda tau, zz: complex(a @ zz), 0.0,
                                    np.zeros(4), h=1e-3)
    assert np.all(np.abs(rep.route_xx) < 1e-8)


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


def test_a_nan_probe_is_the_scans_worst():
    # probe 3's field is NaN; the worst is that probe, not the largest finite residual
    def field(tau, z):
        return complex("nan") if tau == 0.3 else quad_form(tau, z) + tau * z[1]

    rng = np.random.default_rng(2)
    probes = [(i / 10, rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4))
              for i in range(8)]
    report = analyticity_scan(field, probes, h=1e-4)
    assert not report.passed
    assert report.worst_index == 3
    assert np.isnan(report.worst.scaled_residual)


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
    assert max(rep.cr_residuals.max(), rep.consistency_residuals.max()) < 1e-8
    with pytest.raises(DomainError):
        complex_derivative(field, 2.0, inside, h=1e-2)


def test_box_membership_checks_tau_x_and_y():
    # the box is closed; a point is in it when tau and every x and y are
    box = DomainBox.cube(1.0)
    z = np.array([0.95, 0, 0, 0], dtype=np.complex128)
    assert box.contains(0.5, z)
    assert box.contains(1.0, z + 0.05 - 1j)
    assert not box.contains(0.5, z + 0.1)
    assert not box.contains(0.5, z - 1.01j)
    assert not box.contains(-0.1, z)


@pytest.mark.parametrize("entry", ["hopf_cole_check", "boundary_residual",
                                   "bellman_consistency"])
def test_a_boxed_field_checks_every_evaluation(entry):
    # these evaluate the field themselves, not through a ccalc derivative;
    # the field's own box still refuses a point outside it
    field = ScalarField(f=quad_form, box=DomainBox.cube(0.5))
    problem = HJBProblem(lagrangian=free_particle_lagrangian(),
                         diffusion=DiffusionSpec.natural(), tau_f=1.0)
    call = {
        "hopf_cole_check": lambda tau, z: hopf_cole_check(field, tau, z, h=1e-2),
        "boundary_residual": lambda tau, z: boundary_residual(
            HJBProblem(problem.lagrangian, problem.diffusion, tau_f=tau), field, [z]),
        "bellman_consistency": lambda tau, z: bellman_consistency(
            field, problem.lagrangian, constant_policy(np.zeros(4)), problem.diffusion, tau, z,
            d_tau=0.01, n_paths=4, seed=0),
    }[entry]
    call(0.5, np.zeros(4))
    with pytest.raises(DomainError, match="outside its domain box"):
        call(2.0, np.zeros(4))
    with pytest.raises(DomainError, match="outside its domain box"):
        call(0.5, np.array([0.9, 0, 0, 0], dtype=np.complex128))


def test_an_explicit_step_is_the_tau_step_too():
    # every stencil steps tau by an explicit h, as it steps each coordinate
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    problem = HJBProblem(lagrangian=free_particle_lagrangian(),
                         diffusion=DiffusionSpec.natural(), tau_f=1.0)
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, [0.3, 0.2, -0.1, 0.4])
    taus = []

    def spinor(tau, p):
        taus.append(tau)
        return wave.phi(tau, p)

    def real(tau, x, y):
        taus.append(tau)
        return float(np.sum(x * x - y * y)) + tau

    def field(tau, p):
        taus.append(tau)
        return quad_form(tau, p)

    calls = {
        "tau_derivative": lambda: tau_derivative(field, 0.3, z, h=1e-3),
        "hjb_residual_probe": lambda: hjb_residual_probe(problem, field, 0.3, z, h=1e-3),
        "hjb_residual_pair": lambda: hjb_residual_pair(problem, real, real, 0.3,
                                                       z.real, z.imag, h=1e-3),
        "linearized_residual": lambda: linearized_residual(gammas, spinor, 0.3, z, h=1e-3),
        "route_consistency": lambda: route_consistency(gammas, spinor, 0.3, z, h=1e-3),
    }
    for name, call in calls.items():
        taus.clear()
        call()
        assert set(taus) - {0.3} == {0.3 + 1e-3, 0.3 - 1e-3}, name


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


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf"), 1e300, 1e-200])
@pytest.mark.parametrize("entry", sorted(_explicit_step_entry_points()))
def test_an_explicit_step_must_be_positive(entry, h):
    call = _explicit_step_entry_points()[entry]
    call(1e-3)   # a positive step goes through
    with pytest.raises(DomainError, match="h must be positive"):
        call(h)


def _point_entry_points():
    lag = free_particle_lagrangian()
    problem = HJBProblem(lagrangian=lag, diffusion=DiffusionSpec.natural(), tau_f=1.0)
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, [0.3, 0.2, -0.1, 0.4])
    dj = np.array([0.3, -0.2, 0.1, 0.05], dtype=np.complex128)
    return {
        "optimal_control_at": lambda z: optimal_control_at(problem, dj, 0.3, z),
        "hjb_residual_probe": lambda z: hjb_residual_probe(problem, quad_form, 0.3, z),
        "covariance_check": lambda z: covariance_check(quad_form, MOSTLY_PLUS, 0.3, 1,
                                                       0.3, z),
        "solve_optimal_control": lambda z: solve_optimal_control(quadratic_lagrangian(),
                                                                 dj, z=z),
        "equivalence_audit": lambda z: equivalence_audit(
            lag, lambda tau, p: 0.1 * quad_form(tau, p) + 0.3 * complex(p[0]), [(0.3, z)]),
        "linearized_residual": lambda z: linearized_residual(gammas, wave.phi, 0.3, z,
                                                             lam=wave.lam),
        "route_consistency": lambda z: route_consistency(gammas, wave.phi, 0.3, z),
        "hopf_cole_check": lambda z: hopf_cole_check(quad_form, 0.3, z),
        "integrate": lambda z: integrate(constant_policy(dj), DiffusionSpec.natural(),
                                         z, 1e-3, 2, 2, seed=0),
        "constant_policy": constant_policy,
    }


@pytest.mark.parametrize("entry", sorted(_point_entry_points()))
def test_a_point_must_be_four_upper_components(entry):
    call = _point_entry_points()[entry]
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    call(z)
    for bad in (z[:3], z[None, :]):
        with pytest.raises(DomainError, match="4 components"):
            call(bad)


def _probe_entry_points():
    spec = DiffusionSpec.natural()
    closed_form = HJBProblem(lagrangian=free_particle_lagrangian(), diffusion=spec, tau_f=1.0)
    newton = HJBProblem(lagrangian=quadratic_lagrangian(), diffusion=spec, tau_f=1.0)
    gammas = build_gammas(MOSTLY_PLUS)
    wave = plane_wave(gammas, [0.3, 0.2, -0.1, 0.4])
    real = lambda tau, x, y: float(np.sum(x * x - y * y)) + tau
    good = (0.4, np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.4j, 0.5 + 0.3j]))
    return {
        "complex_derivative": lambda tau, z: complex_derivative(quad_form, tau, z),
        "second_complex_derivative": lambda tau, z: second_complex_derivative(quad_form, tau, z),
        "tau_derivative": lambda tau, z: tau_derivative(quad_form, tau, z),
        "analyticity_scan": lambda tau, z: analyticity_scan(quad_form, [good, (tau, z)]),
        "dalembertian": lambda tau, z: dalembertian(quad_form, tau, z, MOSTLY_PLUS),
        "hopf_cole_check": lambda tau, z: hopf_cole_check(quad_form, tau, z),
        "hjb_residual_probe.closed-form": lambda tau, z: hjb_residual_probe(
            closed_form, quad_form, tau, z),
        "hjb_residual_probe.newton": lambda tau, z: hjb_residual_probe(newton, quad_form, tau, z),
        "hjb_residual_pair": lambda tau, z: hjb_residual_pair(closed_form, real, real, tau,
                                                              z.real, z.imag, h=1e-3),
        "route_consistency": lambda tau, z: route_consistency(gammas, wave.phi, tau, z),
        "linearized_residual": lambda tau, z: linearized_residual(gammas, wave.phi, tau, z),
        "linearized_residual.separable": lambda tau, z: linearized_residual(
            gammas, wave.phi, tau, z, lam=wave.lam),
    }


@pytest.mark.parametrize("where", ["tau", "z.real", "z.imag"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("entry", sorted(_probe_entry_points()))
def test_a_probe_must_be_finite(entry, value, where):
    # refused where the probe's stencil is built: no NaN result, no numpy
    # warning (an error in this suite) and no Newton failure first
    call = _probe_entry_points()[entry]
    tau, z = 0.3, np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    call(tau, z)
    if where == "tau":
        tau = value
    else:
        x, y = z[2].real, z[2].imag
        z = z.copy()
        z[2] = complex(value, y) if where == "z.real" else complex(x, value)
    with pytest.raises(DomainError, match="must be finite"):
        call(tau, z)


PROBE_Z = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.15 - 0.05j, 0.5j])


def counted(fn):
    """fn with a count of its calls."""
    def counting(*args):
        counting.calls += 1
        return fn(*args)
    counting.calls = 0
    return counting


@pytest.mark.parametrize("map_name", ["exp", "log"])
@pytest.mark.parametrize("h", [None, 1e-3])
def test_a_map_applies_g_once_and_evaluates_no_point(map_name, h):
    f = counted(lambda tau, z: complex(np.sum(ETA * z * z)) + 0.5 * tau)
    st = _probe_stencil(f, 0.2, PROBE_Z, h, blocks=("center", "x1", "x2", "tau"))
    anchor = st()   # the log map is anchored at the probe, as route_consistency's is
    g = np.exp if map_name == "exp" else lambda v: np.log(v / anchor)
    calls, g_calls = f.calls, counted(g)
    mapped = st.map(g_calls)
    assert g_calls.calls == 1   # at the map, not at first use
    for name, values in st._blocks.items():
        assert np.array_equal(mapped._blocks[name], g(values), equal_nan=True)
    mapped.diff1(), mapped.diff1(order=2), mapped.diff2(), mapped.diff_tau(), mapped()
    assert (f.calls, g_calls.calls) == (calls, 1)


@pytest.mark.parametrize("read", ["mixed", "y1", "diff_tau"])
def test_a_mapped_stencil_refuses_a_block_its_source_never_took(read):
    f = counted(quad_form)
    st = _probe_stencil(f, 0.2, PROBE_Z, blocks=("center", "x1", "x2"))
    mapped, calls = st.map(np.exp), f.calls
    with pytest.raises(DomainError, match="mapped stencil"):
        {"mixed": mapped.mixed, "y1": lambda: mapped.diff1(1j),
         "diff_tau": mapped.diff_tau}[read]()
    assert f.calls == calls
    st.diff_tau()   # the source still evaluates what it lacks
    assert f.calls == calls + 2


def test_a_stencil_with_no_block_has_nothing_to_map():
    f = counted(quad_form)
    st = _probe_stencil(f, 0.2, PROBE_Z)
    with pytest.raises(DomainError, match="nothing to map"):
        st.map(np.exp)
    assert f.calls == 0
