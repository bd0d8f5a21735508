"""The block stencil engine against a per-point reference.

ReferenceStencil is a per-point engine: every point is its own field call,
cached under its offset's bytes, and every difference is Python arithmetic
on the values the field returned. The reference functions are the scalar
code of each library function, run on it. Each library function must return
the same bits, so a block engine that rounds any division, product or sum
differently (numpy's complex division, say) fails here.
"""

import copy

import numpy as np
import pytest

from csoc.ccalc import (_EPS_CBRT, _EPS_QRT, analyticity_scan, complex_derivative,
                        second_complex_derivative, tau_derivative)
from csoc.control import equivalence_audit, solve_optimal_control
from csoc.dirac import (COMPONENT_SIGNS, build_gammas, hopf_cole_check, linearized_residual,
                        plane_wave, route_consistency)
from csoc.hjb import (HJBProblem, dalembertian, hjb_residual_pair, hjb_residual_probe,
                      optimal_control_at)
from csoc.lagrangian import (EMFieldConfig, Lagrangian, em_lagrangian, quadratic_lagrangian,
                             vector_potential_preset)
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS
from csoc.wiener import DiffusionSpec, complex_sigma_squared

METRICS = {"mostly-plus": MOSTLY_PLUS, "mostly-minus": MOSTLY_MINUS}
UNIT = np.eye(4, dtype=np.complex128)
STEPS = (None, 1e-3)


class ReferenceStencil:
    """The per-point stencil: one field call per distinct offset."""

    def __init__(self, f, tau, z, h=None):
        self.f, self.tau, self.z = f, tau, z
        scale = np.abs(z).max(axis=-1, initial=1.0)
        self.h1 = h if h is not None else _EPS_CBRT * scale
        self.h2 = h if h is not None else _EPS_QRT * scale
        self.h_tau = h if h is not None else _EPS_CBRT * max(1.0, abs(tau))
        self._values = {}

    def __call__(self, dz=None, dt=None):
        key = (dt, None if dz is None else dz.tobytes())
        if key not in self._values:
            self._values[key] = self._eval(dz, dt)
        return self._values[key]

    def _eval(self, dz, dt):
        return self.f(self.tau if dt is None else self.tau + dt,
                      self.z if dz is None else self.z + dz)

    def map(self, g):
        mapped = copy.copy(self)
        mapped._values = {}
        mapped._eval = lambda dz, dt: g(self(dz, dt))
        return mapped

    def _axes(self, h, unit):
        if self.z.ndim == 1:
            return unit * h * UNIT
        return np.moveaxis(unit * np.multiply.outer(h, UNIT), -2, 0)

    def diff1(self, unit=1, order=1):
        h = self.h1 if order == 1 else self.h2
        steps = self._axes(h, unit)
        return np.array([(self(v) - self(w)) / (2 * h) for v, w in zip(steps, -steps)],
                        dtype=np.complex128)

    def diff2(self, unit=1):
        h, f0 = self.h2, self()
        steps = self._axes(h, unit)
        return np.array([(self(v) - 2 * f0 + self(w)) / (h * h)
                         for v, w in zip(steps, -steps)], dtype=np.complex128)

    def mixed(self):
        h = self.h2
        e, ie = h * UNIT, 1j * h * UNIT
        corners = zip(e + ie, e - ie, -e + ie, -e - ie)
        return np.array([(self(pp) - self(pm) - self(mp) + self(mm)) / (4 * h * h)
                         for pp, pm, mp, mm in corners], dtype=np.complex128)

    def diff_tau(self):
        h = self.h_tau
        return (self(dt=h) - self(dt=-h)) / (2 * h)


# ------------------------------------------------------- reference functions

def ref_complex_derivative(f, tau, z, h):
    st = ReferenceStencil(f, tau, z, h)
    d_x, d_y = st.diff1(), st.diff1(1j)
    cr = np.abs(d_x.real - d_y.imag) + np.abs(d_x.imag + d_y.real)
    return d_x, d_y, cr, np.abs(d_x - -1j * d_y)


def ref_second(f, tau, z, h):
    st = ReferenceStencil(f, tau, z, h)
    xx, yy, xy = st.diff2(), -st.diff2(1j), -1j * st.mixed()
    disc = np.maximum(np.abs(xx - yy), np.maximum(np.abs(xx - xy), np.abs(yy - xy)))
    return xx, yy, xy, disc


def ref_hjb_probe(problem, f, tau, z, h):
    st = ReferenceStencil(f, tau, z, h)
    dj, d2j = st.diff1(), st.diff2()
    w_star, _ = optimal_control_at(problem, dj, tau, z)
    lval = complex(np.asarray(problem.lagrangian.value(tau, z, w_star)))
    bracket = lval + complex(np.sum(w_star * dj))
    second = 0.5 * complex(np.sum(complex_sigma_squared(problem.diffusion) * d2j))
    return dj, d2j, w_star, -st.diff_tau() - bracket - second


def ref_pair(problem, field_r, field_i, tau, z, h):
    def partials(field):
        st = ReferenceStencil(lambda t, p: field(t, p.real, p.imag), tau, z, h)
        parts = (st.diff1(), st.diff1(1j), st.diff2(), st.diff2(1j), st.mixed())
        return tuple(part.real for part in parts) + (st.diff_tau(),)

    dxr, dyr, dxxr, dyyr, dxyr, dtau_r = partials(field_r)
    dxi, dyi, dxxi, dyyi, dxyi, dtau_i = partials(field_i)
    w_star, _ = optimal_control_at(problem, dxr + 1j * dxi, tau, z)
    v, u = w_star.real, w_star.imag
    lval = complex(np.asarray(problem.lagrangian.value(tau, z, w_star)))
    spec = problem.diffusion
    sx2, sy2 = spec.sigma_x * spec.sigma_x, spec.sigma_y * spec.sigma_y
    mix = 2.0 * spec.epsilon * problem.metric.eta * spec.sigma_x * spec.sigma_y
    bracket_r = lval.real + float(np.sum(v * dxr)) + float(np.sum(u * dyr))
    second_r = 0.5 * float(np.sum(sx2 * dxxr + mix * dxyr + sy2 * dyyr))
    bracket_i = lval.imag + float(np.sum(v * dxi)) + float(np.sum(u * dyi))
    second_i = 0.5 * float(np.sum(sx2 * dxxi + mix * dxyi + sy2 * dyyi))
    return float(-dtau_r - bracket_r - second_r), float(-dtau_i - bracket_i - second_i)


def ref_hopf_cole(f, tau, z, eta, h):
    st = ReferenceStencil(lambda t, p: complex(f(t, p)), tau, z, h)
    e0 = np.exp(st())
    dj, d2j = st.diff1(order=2), st.diff2()
    d2phi = st.map(np.exp).diff2()
    lhs = sum(eta[mu] * (dj[mu] * dj[mu] + d2j[mu]) for mu in range(4))
    rhs = sum(eta[mu] * d2phi[mu] / e0 for mu in range(4))
    return lhs, rhs


def ref_linearized(gammas, st, lam, q, A, hbar, m, c):
    tau, z, phi0 = st.tau, st.z, st()
    eta = gammas.metric.eta
    dphi, d2phi = st.diff1(), st.diff2()
    dtau_phi = -1j * lam * phi0 if lam is not None else st.diff_tau()
    a_val = np.zeros(4, dtype=np.complex128)
    if A is not None:
        a_val = np.asarray(A(tau, z), dtype=np.complex128)
    gamma_d = np.einsum("mij,mj->i", gammas.matrices, dphi)
    gamma_a = gammas.slash(a_val) @ phi0
    box = np.einsum("m,mj->j", eta, d2phi)
    a_dot_d = np.einsum("m,m,mj->j", eta, a_val, dphi)
    a_sq = complex(np.sum(eta * a_val * a_val))
    return (1j * hbar * m * dtau_phi - 1j * hbar * m * c * gamma_d + m * c * q * gamma_a
            - hbar * hbar * box - 2j * hbar * q * a_dot_d + q * q * a_sq * phi0)


def spinor_stencil(phi, tau, z, h):
    return ReferenceStencil(lambda t, p: np.asarray(phi(t, p), dtype=np.complex128), tau, z, h)


def ref_route(gammas, phi, tau, z, q, A, hbar, m, c, comps, h):
    st = spinor_stencil(phi, tau, z, h)
    phi0 = st()
    eta = gammas.metric.eta
    eps = np.asarray(COMPONENT_SIGNS)
    live = np.abs(phi0) > 1e-12 * float(np.abs(phi0).max())
    jst = st.map(lambda v: np.array([
        -1j * eps[s] * hbar * np.log(complex(v[s]) / complex(phi0[s])) if live[s] else 0j
        for s in range(4)]))
    dj, d2j, dtau_j = jst.diff1().T, jst.diff2(), jst.diff_tau()
    a_val = np.asarray(A(tau, z), dtype=np.complex128)
    lin = ref_linearized(gammas, st, None, q, A, hbar, m, c)
    route_a, route_b = [], []
    for r in comps:
        box_j = sum(eta[mu] * d2j[mu, r] for mu in range(4))
        coupling = 0.0 + 0.0j
        for s in range(4):
            rho = complex(phi0[s]) / complex(phi0[r])
            if not live[s]:
                continue
            grad = eps[s] * dj[s]
            coupling += complex(np.sum(gammas.matrices[:, r, s] * (grad + q * a_val))) * rho
        grad_sq = complex(np.sum(eta * dj[r] * dj[r]))
        a_grad = complex(np.sum(eta * a_val * dj[r]))
        a_sq = complex(np.sum(eta * a_val * a_val))
        route_a.append(-dtau_j[r] + eps[r] * c * coupling - 1j * hbar / m * box_j
                       + eps[r] / m * grad_sq + 2.0 * q / m * a_grad
                       + eps[r] * q * q / m * a_sq)
        route_b.append(eps[r] * complex(lin[r]) / (m * complex(phi0[r])))
    return np.array(route_a, dtype=np.complex128), np.array(route_b, dtype=np.complex128)


# ------------------------------------------------------------------ inputs

def bits(x):
    return np.asarray(x, dtype=np.complex128).tobytes()


def probes(metric_name, n=6):
    seed = 17 if metric_name == "mostly-plus" else 23
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.05, 0.95, n)
    zs = rng.uniform(-0.9, 0.9, (n, 4)) + 1j * rng.uniform(-0.9, 0.9, (n, 4))
    # signed zeros: a point offset along another axis keeps or flips them
    zs[0] = [complex(-0.0, 0.3), complex(0.2, -0.0), 0j, complex(-0.0, -0.0)]
    # probe 1 keeps numpy's float: a field then returns numpy complex values,
    # which numpy divides, where a Python float tau gives CPython's division
    return [(t if i == 1 else float(t), z) for i, (t, z) in enumerate(zip(taus, zs))]


def python_field(eta):
    """Returns Python complex: its differences divide as CPython does."""
    def f(tau, z):
        return (complex(np.sum(eta * z * z)) + 0.1 * complex(np.exp(z[0]))
                + tau * complex(z[1]) + complex(np.sin(z[2] * z[3])))
    return f


def numpy_field(eta):
    """Returns numpy complex scalars: its differences divide as numpy does."""
    def f(tau, z):
        return np.sum(eta * z * z * z) + np.exp(0.3 * tau) * z[1]
    return f


def pair_fields(eta):
    f = python_field(eta)
    return (lambda tau, x, y: f(tau, x + 1j * y).real,
            lambda tau, x, y: f(tau, x + 1j * y).imag)


def spinor(metric):
    gammas = build_gammas(metric)
    a_const = np.array([0.2, -0.1, 0.05, 0.15])
    wave = plane_wave(gammas, [0.3, 0.2, -0.1, 0.4], q=0.5, a_const=a_const)

    def phi(tau, z):
        return wave.phi(tau, z) * (1.0 + 0.05 * z[1] * z[2] + 0.02j * tau)
    return gammas, wave, phi


def problems(metric):
    spec = DiffusionSpec.natural(metric=metric)
    a_fn, _ = vector_potential_preset("linear-electric(0.3)")
    em = em_lagrangian(EMFieldConfig(q=0.5, A=a_fn, metric=metric))
    return (HJBProblem(lagrangian=em, diffusion=spec, tau_f=1.0),
            HJBProblem(lagrangian=quadratic_lagrangian(1.1, metric), diffusion=spec, tau_f=1.0))


CASES = [(name, h) for name in METRICS for h in STEPS]


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("metric_name, h", CASES)
def test_derivatives_match_the_per_point_stencil(metric_name, h):
    eta = METRICS[metric_name].eta
    for make in (python_field, numpy_field):
        f = make(eta)
        pts = probes(metric_name)
        scan = analyticity_scan(f, pts, h=h, tol=1.0)
        for (tau, z), scanned in zip(pts, scan.results):
            # the scan passes each row its tau as a Python float
            for rep, t in ((complex_derivative(f, tau, z, h=h), tau),
                           (scanned.derivatives, float(tau))):
                d_x, d_y, cr, cons = ref_complex_derivative(f, t, z, h)
                assert bits(rep.d_x) == bits(d_x) and bits(rep.d_y) == bits(d_y)
                assert bits(rep.cr_residuals) == bits(cr)
                assert bits(rep.consistency_residuals) == bits(cons)
            rep2 = second_complex_derivative(f, tau, z, h=h)
            for got, want in zip((rep2.route_xx, rep2.route_yy, rep2.route_xy,
                                  rep2.route_discrepancies), ref_second(f, tau, z, h)):
                assert bits(got) == bits(want)
            want = ReferenceStencil(f, tau, z, h).diff_tau()
            got = tau_derivative(f, tau, z, h=h)
            assert type(got) is type(want) and bits(got) == bits(want)
            want = complex(np.sum(eta * ReferenceStencil(f, tau, z, h).diff2()))
            assert bits(dalembertian(f, tau, z, METRICS[metric_name], h=h)) == bits(want)
            got = hopf_cole_check(f, tau, z, METRICS[metric_name], h=h)
            lhs, rhs = ref_hopf_cole(f, tau, z, eta, h)
            assert bits(got.lhs) == bits(lhs) and bits(got.rhs) == bits(rhs)


@pytest.mark.parametrize("metric_name, h", CASES)
def test_hjb_residuals_match_the_per_point_stencil(metric_name, h):
    metric = METRICS[metric_name]
    f = python_field(metric.eta)
    field_r, field_i = pair_fields(metric.eta)
    for problem in problems(metric):
        for tau, z in probes(metric_name, n=4):
            probe = hjb_residual_probe(problem, f, tau, z, h=h)
            dj, d2j, w_star, residual = ref_hjb_probe(problem, f, tau, z, h)
            assert bits(probe.dJ) == bits(dj) and bits(probe.d2J) == bits(d2j)
            assert bits(probe.w_star) == bits(w_star)
            assert bits(probe.residual) == bits(residual)
            got = hjb_residual_pair(problem, field_r, field_i, tau, z.real, z.imag, h=h)
            assert got == ref_pair(problem, field_r, field_i, tau, z, h)


@pytest.mark.parametrize("metric_name, h", CASES)
def test_spinor_routes_match_the_per_point_stencil(metric_name, h):
    gammas, wave, phi = spinor(METRICS[metric_name])
    A = wave.potential()
    common = dict(q=0.5, A=A, hbar=1.0, m=1.3, c=0.9)
    for tau, z in probes(metric_name, n=4):
        for lam in (None, wave.lam):
            got = linearized_residual(gammas, phi, tau, z, lam=lam, h=h, **common)
            want = ref_linearized(gammas, spinor_stencil(phi, tau, z, h), lam, **common)
            assert bits(got) == bits(want)
        for comps in ((0, 2), (3, 1, 2, 0)):
            rep = route_consistency(gammas, phi, tau, z, components=comps, h=h, **common)
            route_a, route_b = ref_route(gammas, phi, tau, z, comps=comps, h=h, **common)
            assert bits(rep.route_a) == bits(route_a)
            assert bits(rep.route_b) == bits(route_b)


@pytest.mark.parametrize("h", STEPS)
def test_batched_lagrangian_gradient_matches_the_per_point_stencil(h):
    eta = MOSTLY_PLUS.eta

    def value(tau, z, w):
        return 0.5 * np.sum(eta * w * w, axis=-1) * (1 + tau) + np.sum(z * w, axis=-1) ** 3

    lag = Lagrangian(value=value)
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    tau = rng.uniform(0, 1, 6)
    for t in (0.3, tau):   # a float tau, and one per row of z
        st = ReferenceStencil(lambda t_, v: value(t_, z, v), 0.3, w, h)
        st.tau = t
        want = np.moveaxis(st.diff1(), 0, -1)
        assert bits(lag.grad(t, z, w, h=h)) == bits(want)


def test_the_audit_reads_the_per_point_derivatives():
    # the audit's roots come from the scan's derivatives: equal derivatives,
    # equal closed-form comparisons
    eta = MOSTLY_PLUS.eta
    field = lambda tau, z: 0.1 * complex(np.sum(eta * z * z)) + 0.3 * complex(z[0]) + 0.05 * tau
    lag = em_lagrangian(EMFieldConfig(q=0.5, A=vector_potential_preset("constant(0.1,0,0,0.05)")[0]))
    pts = probes("mostly-plus")
    report = equivalence_audit(lag, field, pts)
    for (tau, z), probe in zip(pts, report.probes):
        d_x, _, _, _ = ref_complex_derivative(field, tau, z, None)
        w_cf = lag.em.stationary_control(tau, z, d_x)
        cf = float(max(np.abs(probe.w_real_set - w_cf).max(),
                       np.abs(probe.w_imag_set - w_cf).max()))
        assert probe.closed_form_disagreement == cf


def test_a_field_gets_the_callers_tau_or_a_python_float_per_row():
    # the type of tau decides how a field's values divide (numpy's float makes
    # tau * complex(...) numpy complex), so it reaches the field unchanged at
    # one probe, and the scan hands each row a Python float
    seen = []

    def f(tau, z):
        seen.append(type(tau))
        return tau * complex(z[1])

    z = probes("mostly-plus")[1][1]
    for tau in (0.3, np.float64(0.3)):
        seen.clear()
        complex_derivative(f, tau, z)
        tau_derivative(f, tau, z)
        assert set(seen) == {type(tau)}
    seen.clear()
    analyticity_scan(f, [(0.3, z), (np.float64(0.4), z)], tol=1.0)
    assert set(seen) == {float}


# ------------------------------------------- the callables the probe sweep passes

@pytest.mark.parametrize("metric_name, h", CASES)
def test_plane_wave_phi_itself_matches_the_per_point_stencil(metric_name, h):
    # the bound method PlaneWave.phi, as the probe sweep passes it, not a wrapper
    gammas, wave, _ = spinor(METRICS[metric_name])
    A = wave.potential()
    common = dict(q=0.5, A=A, hbar=1.0, m=1.0, c=1.0)
    for tau, z in probes(metric_name, n=4):
        for lam in (None, wave.lam):
            got = linearized_residual(gammas, wave.phi, tau, z, lam=lam, h=h, **common)
            want = ref_linearized(gammas, spinor_stencil(wave.phi, tau, z, h), lam, **common)
            assert bits(got) == bits(want)
        rep = route_consistency(gammas, wave.phi, tau, z, components=(0, 2), h=h, **common)
        route_a, route_b = ref_route(gammas, wave.phi, tau, z, comps=(0, 2), h=h, **common)
        assert bits(rep.route_a) == bits(route_a) and bits(rep.route_b) == bits(route_b)


def ref_newton(residual, tol=1e-10, max_iter=100):
    """The damped Newton of solve_optimal_control, one point at a time: the
    Jacobian column by column from central differences at eps**(1/3) *
    max(1, |theta_k|), the step from np.linalg.solve, halved up to 11 times
    until the largest residual component does not grow (or is below tol).
    Returns the root, the residual there and the iterations taken."""
    theta = np.zeros(8)
    r = residual(theta)
    for it in range(max_iter):
        norm = np.abs(r).max()
        if norm < tol:
            return theta, r, it
        step = _EPS_CBRT * np.maximum(1.0, np.abs(theta))
        jac = np.empty((8, 8))
        for k in range(8):
            e = np.zeros(8)
            e[k] = step[k]
            jac[:, k] = (residual(theta + e) - residual(theta - e)) / (2 * step[k])
        delta = np.linalg.solve(jac, -r)
        scale = 1.0
        for _ in range(12):
            cand = theta + scale * delta if scale != 1.0 else theta + delta
            r_cand = residual(cand)
            n_cand = np.abs(r_cand).max()
            if np.isfinite(n_cand) and (n_cand <= norm or n_cand < tol):
                theta, r = cand, r_cand
                break
            scale *= 0.5
        else:
            raise AssertionError("the reference Newton stalled")
    assert np.abs(r).max() < tol
    return theta, r, max_iter


def newton_lagrangians(metric):
    eta = metric.eta

    def value(tau, z, w):   # no closed-form gradient: central differences in w
        return 0.5 * np.sum(eta * w * w, axis=-1) + 0.1 * np.sum(w * w * w, axis=-1)

    return {"quadratic": quadratic_lagrangian(1.1, metric), "cubic": Lagrangian(value=value)}


@pytest.mark.parametrize("metric_name", METRICS)
def test_one_row_newton_matches_the_per_iteration_reference(metric_name):
    metric = METRICS[metric_name]
    iterations = set()
    for name, lag in newton_lagrangians(metric).items():
        for tau, z in probes(metric_name, n=4):
            for dj in (0.3 * z + 0.1, 1.5 * z * z - 0.4j):
                got = solve_optimal_control(lag, dj, tau, z)

                def residual(theta):
                    g = lag.grad(tau, z, theta[:4] + 1j * theta[4:]) + dj
                    return np.concatenate([g.real, g.imag])

                theta, r, its = ref_newton(residual)
                g = lag.grad(tau, z, theta[:4] + 1j * theta[4:]) + dj
                assert bits(got.w_star) == bits(theta[:4] + 1j * theta[4:]), name
                assert bits(got.residual_complex) == bits(g), name
                assert got.residual_real_pair.tobytes() == np.concatenate(
                    [g.real, -g.imag]).tobytes(), name
                assert got.iterations == its, name
                iterations.add((name, its))
    # the cubic needs more than one step, the quadratic exactly one
    assert {its for name, its in iterations if name == "quadratic"} == {1}
    assert max(its for name, its in iterations if name == "cubic") > 1


@pytest.mark.parametrize("metric_name", METRICS)
def test_a_quadratic_lagrangian_probe_goes_through_newton(metric_name):
    _, quadratic = problems(METRICS[metric_name])
    f = python_field(METRICS[metric_name].eta)
    for tau, z in probes(metric_name, n=2):
        assert hjb_residual_probe(quadratic, f, tau, z).control_method == "newton"
