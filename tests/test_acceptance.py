"""End-to-end acceptance gate: ten co-designed checks over the whole library.

Each test prints one criterion line; tolerances are pinned, not derived.
"""

import time

import numpy as np

from csoc.ccalc import DomainBox, analyticity_scan
from csoc.cli import main as cli_main
from csoc.control import equivalence_audit
from csoc.dirac import (
    build_gammas,
    hopf_cole_check,
    hopf_cole_order,
    linearization_check,
    linearized_residual,
    plane_wave,
    route_consistency,
)
from csoc.hjb import (
    HJBProblem,
    boundary_residual,
    covariance_check,
    hjb_residual_pair,
    hjb_residual_probe,
    probe_points,
)
from csoc.lagrangian import EMFieldConfig, em_lagrangian, free_particle_lagrangian
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS
from csoc.wiener import DiffusionSpec, complex_sigma_squared, moment_check

ETA = MOSTLY_PLUS.eta

BOX = DomainBox.cube(1.0)


def _criterion(k: int, ok: bool):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_increment_moments_at_scale():
    t0 = time.perf_counter()
    spec = DiffusionSpec(sigma_x=1.0, sigma_y=1.0, epsilon=1, metric=MOSTLY_PLUS)
    report = moment_check(spec, [0.0] * 4, [0.0] * 4, d_tau=0.01,
                          n=1_000_000, seed=42)
    elapsed = time.perf_counter() - t0
    by_name = {ln.name: ln for ln in report.lines}
    ok = (len(report.lines) == 44
          and report.n_flagged == 0
          and abs(report.worst.zscore) < 5.0
          and by_name["dx0dy0"].target == -0.01
          and by_name["dx1dy1"].target == 0.01
          and by_name["dx2dy2"].target == 0.01
          and by_name["dx3dy3"].target == 0.01
          and elapsed < 30.0)
    _criterion(1, ok)


def test_criterion_02_complex_diffusion_algebra_exact():
    ok = True
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        for epsilon in (1, -1):
            for hbar, m in ((1.0, 1.0), (0.7, 1.3)):
                spec = DiffusionSpec.natural(hbar=hbar, m=m, epsilon=epsilon,
                                             metric=metric)
                ss = complex_sigma_squared(spec)
                want_im = 2.0 * epsilon * metric.eta * (hbar / m)
                ok = ok and bool(np.all(ss.real == 0.0))
                ok = ok and bool(np.allclose(ss.imag, want_im, rtol=1e-14))
    _criterion(2, ok)


def test_criterion_03_analyticity_scans():
    t0 = time.perf_counter()
    analytic_fields = [
        lambda tau, z: complex(np.sum(ETA * z * z)),
        lambda tau, z: 0.2 * np.exp(z[0]) + 0.1 * z[1] + tau * z[2],
        lambda tau, z: np.sin(z[1]) + 0.3 * np.cos(z[3]),
        lambda tau, z: z[0] ** 3 - 2.0 * z[0] * z[2] ** 2 + 0.5 * z[3],
        lambda tau, z: 1.0 / (2.0 + z[0]) + 0.05 * z[1] * z[2],
    ]
    non_analytic_fields = [
        lambda tau, z: complex(np.sum(ETA * z * z)) + 0.5 * complex(np.conj(z[0])),
        lambda tau, z: complex(abs(z[1]) ** 2) + 0.1 * z[0],
    ]
    probes = probe_points(DomainBox.cube(0.5), 50)
    ok = True
    for field in analytic_fields:
        report = analyticity_scan(field, probes, h=1e-4, tol=1e-6)
        ok = ok and report.passed and report.worst.scaled_residual < 1e-6
    for field in non_analytic_fields:
        report = analyticity_scan(field, probes, h=1e-4, tol=1e-6)
        ok = ok and (not report.passed) and report.worst.scaled_residual > 0.1
    ok = ok and (time.perf_counter() - t0) < 5.0
    _criterion(3, ok)


def test_criterion_04_stationarity_route_equivalence():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.3)
        beta = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-0.1, 0.1, 4)
        a_const = rng.uniform(-0.3, 0.3, 4)
        q = rng.uniform(0.2, 1.0)

        def value_field(tau, z, alpha=alpha, beta=beta):
            return alpha * complex(np.sum(ETA * z * z)) + complex(beta @ z)

        def potential(tau, z, a_const=a_const):
            return np.broadcast_to(a_const.astype(np.complex128), np.shape(z)).copy()

        lag = em_lagrangian(EMFieldConfig(q=q, A=potential))
        probe_z = rng.uniform(-0.4, 0.4, 4) + 1j * rng.uniform(-0.4, 0.4, 4)
        report = equivalence_audit(lag, value_field, [(0.3, probe_z)], h=1e-4)
        probe = report.probes[0]
        ok = ok and (not probe.singular)
        ok = ok and probe.disagreement < 1e-8
        ok = ok and probe.closed_form_disagreement < 1e-10
    _criterion(4, ok)


HJB_FIELDS = [
    lambda tau, z: 0.2 * complex(np.sum(ETA * z * z)) + 0.1 * z[0] + 0.05 * tau ** 2,
    lambda tau, z: 0.1 * np.exp(z[0]) + 0.3 * z[1] + 0.02 * tau,
    lambda tau, z: 0.05 * np.sin(z[1]) + 0.1 * z[2] ** 2 + 0.07 * np.cos(z[3])
                   + 0.01 * tau ** 2,
]


def test_criterion_05_pair_complex_recombination():
    problem = HJBProblem(lagrangian=free_particle_lagrangian(),
                         diffusion=DiffusionSpec.natural(), tau_f=1.0)
    pts = probe_points(BOX, 64)
    h = 1e-3
    ok = True
    for field in HJB_FIELDS:
        def field_r(tau, x, y, field=field):
            return float(np.real(field(tau, x + 1j * y)))

        def field_i(tau, x, y, field=field):
            return float(np.imag(field(tau, x + 1j * y)))

        for tau, z in pts:
            res_c = hjb_residual_probe(problem, field, tau, z, h=h).residual
            res_c_half = hjb_residual_probe(problem, field, tau, z, h=h / 2).residual
            # truncation scale of the stencils from step halving; floored by
            # the roundoff of second differences at this step
            stencil = max(abs(res_c - res_c_half) * 4.0 / 3.0, 1e-8)
            res_r, res_i = hjb_residual_pair(problem, field_r, field_i, tau,
                                             z.real, z.imag, h=h)
            gap = abs(complex(res_r, res_i) - res_c)
            ok = ok and gap < 5.0 * stencil

    # equal sheet amplitudes: the non-mixed second-derivative contributions
    # cancel pairwise for an analytic field, leaving only the mixed term
    spec = DiffusionSpec.natural()
    sx2 = spec.sigma_x * spec.sigma_x
    field = HJB_FIELDS[1]
    for tau, z in pts[:8]:
        x, y = z.real, z.imag
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = h
            f0 = field(tau, x + 1j * y).real
            dxx = (field(tau, x + e + 1j * y).real - 2 * f0
                   + field(tau, x - e + 1j * y).real) / (h * h)
            dyy = (field(tau, x + 1j * (y + e)).real - 2 * f0
                   + field(tau, x + 1j * (y - e)).real) / (h * h)
            ok = ok and abs(0.5 * sx2[mu] * (dxx + dyy)) < 1e-6
    _criterion(5, ok)


def test_criterion_06_free_particle_value_field():
    ok = True
    problem = HJBProblem(lagrangian=free_particle_lagrangian(),
                         diffusion=DiffusionSpec.natural(), tau_f=1.0)
    st = problem.metric.sigma_tilde
    value = lambda tau, z: complex(st * (1.0 - tau))
    pts = probe_points(BOX, 64)
    worst = 0.0
    for tau, z in pts:
        probe = hjb_residual_probe(problem, value, tau, z)
        worst = max(worst, abs(probe.residual))
        ok = ok and probe.control_method == "shell-degenerate"
    ok = ok and worst < 1e-6
    ok = ok and boundary_residual(problem, value, [z for _, z in pts]) < 1e-12
    _criterion(6, ok)


def test_criterion_07_boost_invariant_second_order_term():
    fields = [
        lambda tau, z: complex(np.sum(ETA * z * z)),
        lambda tau, z: z[0] ** 2 + z[1] ** 2 - 0.5 * z[2] * z[3],
        lambda tau, z: complex(np.sum((0.3 * z[0] - 0.2 * z[1] + 0.1 * z[3]) ** 2)),
    ]
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    ok = True
    for field in fields:
        for rapidity in (0.1, 0.25, 0.5):
            for axis in (1, 2, 3):
                disc = covariance_check(field, MOSTLY_PLUS, rapidity, axis,
                                        0.0, z)
                ok = ok and disc < 1e-6
    _criterion(7, ok)


def test_criterion_08_clifford_and_linearization():
    ok = True
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        gammas = build_gammas(metric)
        ok = ok and gammas.anticommutator_residual() < 1e-14
        ok = ok and linearization_check(gammas, n=100, seed=0) < 1e-12
    _criterion(8, ok)


def test_criterion_09_exponential_substitution():
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    a = np.array([0.3, -0.2, 0.1, 0.4])
    linear = lambda tau, zz: complex(np.sum(a * zz))
    quadratic = lambda tau, zz: 0.25 * complex(np.sum(ETA * zz * zz)) + complex(np.sum(a * zz))
    ok = hopf_cole_check(linear, 0.0, z).residual < 1e-6
    ok = ok and hopf_cole_check(quadratic, 0.0, z).residual < 1e-6
    order = hopf_cole_order(quadratic, 0.0, z)
    ok = ok and 1.7 < order < 2.3
    _criterion(9, ok)


def test_criterion_10_route_consistency_and_runner(tmp_path):
    gammas = build_gammas(MOSTLY_PLUS)
    p = np.array([0.3, 0.2, -0.1, 0.4])
    a_const = np.array([0.2, -0.1, 0.05, 0.15])
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])

    free = plane_wave(gammas, p)
    coupled = plane_wave(gammas, p, q=0.5, a_const=a_const)

    # one component from each sign pair of the log map
    report_free = route_consistency(gammas, free.phi, 0.3, z, components=(0, 2))
    report_coupled = route_consistency(gammas, coupled.phi, 0.3, z, q=0.5,
                                       A=coupled.potential(), components=(0, 2))
    ok = report_free.max_discrepancy < 1e-6
    ok = ok and report_coupled.max_discrepancy < 1e-6

    res_free = linearized_residual(gammas, free.phi, 0.3, z, lam=free.lam)
    res_coupled = linearized_residual(gammas, coupled.phi, 0.3, z,
                                      lam=coupled.lam, q=0.5,
                                      A=coupled.potential())
    ok = ok and np.abs(res_free).max() < 1e-6
    ok = ok and np.abs(res_coupled).max() < 1e-6

    t0 = time.perf_counter()
    code = cli_main(["run", "all", "--out-dir", str(tmp_path / "all")])
    elapsed = time.perf_counter() - t0
    ok = ok and code == 0 and elapsed < 120.0
    _criterion(10, ok)
