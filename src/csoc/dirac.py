"""Gamma algebra, plane waves, and the two routes to the spinor residual.

The linear operator acting on a four-component field phi(tau, z) is

    Lin[phi] = i hbar m dphi/dtau
             + m c sum_mu gamma^mu (-i hbar d_mu + q A_mu) phi
             + sum_mu eta^{mumu} (-i hbar d_mu + q A_mu)(-i hbar d_nu + q A_nu) phi

expanded with constant-in-z coefficients as

    i hbar m d_tau phi - i hbar m c gamma.d phi + m c q gamma.A phi
      - hbar^2 box phi - 2 i hbar q A.d phi + q^2 A.A phi.

Each component defines a value field through the log map

    J^(s) = -i eps_s hbar log phi_s,   eps = (+1, +1, -1, -1),

and the nonlinear residual of those fields (route A) must agree with
Lin[phi]_r / (eps_r m phi_r) (route B) identically. route_consistency
evaluates both routes by stencils and reports the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .spacetime import Metric, MOSTLY_PLUS, _vector, contract
from .ccalc import _probe_stencil, _Stencil

SpinorFieldFn = Callable[[float, np.ndarray], np.ndarray]
PotentialFn = Callable[[float, np.ndarray], np.ndarray]
_H_COARSE, _H_FINE = 0.02, 0.01   # the two steps of hopf_cole_order

# signs eps_s of the per-component log map J = -i eps hbar log phi. They are
# a convention: route A and route B agree for any sign pattern, all +1
# included, so route_consistency does not pin this one
COMPONENT_SIGNS = (1.0, 1.0, -1.0, -1.0)
_SIGNS = np.array(COMPONENT_SIGNS)

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def _base_gammas() -> np.ndarray:
    """Standard representation, anticommuting to 2 diag(1,-1,-1,-1)."""
    g = np.zeros((4, 4, 4), dtype=np.complex128)
    g[0] = np.diag([1.0, 1.0, -1.0, -1.0])
    for i, sig in enumerate(_PAULI, start=1):
        g[i, :2, 2:] = sig
        g[i, 2:, :2] = -sig
    return g


@dataclass(frozen=True)
class GammaSet:
    """Four gamma matrices tied to the metric they anticommute into."""

    matrices: np.ndarray
    metric: Metric
    representation: str

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=np.complex128)
        if m.shape != (4, 4, 4):
            raise DomainError(f"matrices must have shape (4, 4, 4), got {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("gamma matrices must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrices", m)

    @cached_property
    def _by_component(self) -> np.ndarray:
        """gamma^mu_rs indexed [r, s, mu], contiguous, built on first use."""
        return np.ascontiguousarray(self.matrices.transpose(1, 2, 0))

    def slash(self, a) -> np.ndarray:
        """sum_mu gamma^mu a_mu for a lower-index four-vector a."""
        return np.einsum("m,mij->ij", _vector(a), self.matrices)

    def anticommutator_residual(self) -> float:
        """max |{gamma^mu, gamma^nu} - 2 eta^{munu} I| over all pairs."""
        g = self.matrices
        products = g[:, None] @ g[None]   # [mu, nu] is gamma^mu gamma^nu
        anti = products + products.transpose(1, 0, 2, 3)
        anti[range(4), range(4)] -= 2.0 * self.metric.eta[:, None, None] * np.eye(4)
        return float(np.max(np.abs(anti)))

    def square_slash_residual(self, a) -> float:
        """max |(gamma.a)^2 - (sum a^mu a_mu) I| for lower-index a."""
        a = _vector(a)
        s = self.slash(a)
        norm = contract(a, a, self.metric)
        return float(np.abs(s @ s - norm * np.eye(4)).max())

    def to_payload(self) -> dict:
        """JSON dump: four matrices, row-major, entries as [re, im] pairs."""
        stacked = np.stack([self.matrices.real, self.matrices.imag], axis=-1)
        return {
            "representation": self.representation,
            "metric_diag": [int(d) for d in self.metric.diag],
            "matrices": stacked.tolist(),
        }


def build_gammas(metric: Metric = MOSTLY_PLUS) -> GammaSet:
    """Gamma matrices anticommuting to twice the given metric.

    The standard representation closes on diag(1, -1, -1, -1); an overall
    factor of i flips every square, which lands it on diag(-1, 1, 1, 1).
    """
    base = _base_gammas()
    if metric.sigma_tilde == 1:
        return GammaSet(base, metric, "standard")
    return GammaSet(1j * base, metric, "standard-times-i")


def linearization_check(gammas: GammaSet, n: int = 100, seed: int = 0) -> float:
    """Worst (gamma.a)^2 defect over n >= 1 random complex four-vectors.

    Vector k is real part then imaginary part, drawn in that order, and all
    n are checked as one batch, each as square_slash_residual checks it.
    """
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    parts = np.random.default_rng(seed).normal(size=(n, 2, 4))
    a = parts[:, 0] + 1j * parts[:, 1]
    s = np.einsum("km,mij->kij", a, gammas.matrices)
    norm = np.add.reduce(gammas.metric.eta * a * a, axis=-1)
    return float(np.max(np.abs(s @ s - norm[:, None, None] * np.eye(4))))


@dataclass(frozen=True)
class PlaneWave:
    """Eigenmode phi = exp(i p.z / hbar - i lam tau) chi of the linear operator.

    p and the constant potential a_const carry lower indices. chi solves the
    4x4 eigenproblem slash(P) chi = g chi with P = p + q a_const; lam follows
    from the dispersion relation lam = -(m c g + P.P) / (hbar m).
    """

    p: np.ndarray
    a_const: np.ndarray
    q: float
    hbar: float
    m: float
    c: float
    gammas: GammaSet
    branch: str
    g: complex
    lam: complex
    chi: np.ndarray
    eigen_residual: float

    def phi(self, tau: float, z: np.ndarray) -> np.ndarray:
        # p.z in Python arithmetic: a real p times a complex z rounds as numpy's
        # product does, and the sum is paired as numpy reduces four complex
        # values, so the phase has the bits of np.add.reduce(p * z)
        p0, p1, p2, p3 = self._p_list
        z0, z1, z2, z3 = np.asarray(z, dtype=np.complex128).tolist()
        p_z = (p0 * z0 + p1 * z1) + (p2 * z2 + p3 * z3)
        return np.exp(1j * p_z / self.hbar - 1j * self.lam * tau) * self.chi

    @cached_property
    def _p_list(self) -> list:
        """p as Python floats, built on first use."""
        return self.p.tolist()

    def potential(self) -> Optional[PotentialFn]:
        if self.q == 0.0 and not np.any(self.a_const):
            return None
        a = self.a_const
        return lambda tau, z: a


def plane_wave(gammas: GammaSet, p, *, q: float = 0.0, a_const=None,
               hbar: float = 1.0, m: float = 1.0, c: float = 1.0,
               branch: str = "+") -> PlaneWave:
    """Build a plane-wave eigenmode from the numerical slash eigenproblem."""
    p = np.array(p, dtype=float)   # a read-only copy, as phi caches it as Python floats
    p.flags.writeable = False
    if p.shape != (4,):
        raise DomainError(f"p must have 4 components, got shape {p.shape}")
    if a_const is None:
        a_const = np.zeros(4)
    a_const = np.asarray(a_const, dtype=float)
    if a_const.shape != (4,):
        raise DomainError(f"a_const must have 4 components, got {a_const.shape}")
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    # checked before P = p + q a_const, where inf * 0 would make a NaN
    if not np.isfinite([*p, *a_const, q, hbar, m, c]).all():
        raise DomainError("p, a_const, q, hbar, m and c must all be finite")

    big_p = p + q * a_const
    p_scale = float(np.sum(np.abs(big_p) ** 2))
    p_sq = contract(big_p, big_p, gammas.metric)
    if abs(p_sq) < 1e-12 * max(p_scale, 1e-30):
        # slash(P) is nilpotent on the light cone: no separated eigenvalue
        # branches exist, and eig noise there is O(eps^(1/4)), not O(eps)
        raise DomainError("P is on the light cone, sum P^mu P_mu = 0; "
                          "the eigenvalue branches are not separated")
    slash = gammas.slash(big_p)
    vals, vecs = np.linalg.eig(slash)
    scale = max(float(np.abs(vals).max()), 1e-30)
    keyed = sorted(range(4), key=lambda k: (vals[k].real, vals[k].imag))
    pick = keyed[-1] if branch == "+" else keyed[0]
    g = vals[pick]
    close = [k for k in range(4) if abs(vals[k] - g) <= 1e-8 * scale]
    chi = vecs[:, close[0]].copy()
    if len(close) > 1 and float(np.abs(chi).min()) < 1e-6 * float(np.abs(chi).max()):
        # degenerate pair: mix the basis to pull every component off zero
        mixed = vecs[:, close].sum(axis=1)
        if float(np.abs(mixed).min()) > float(np.abs(chi).min()):
            chi = mixed
    k = int(np.argmax(np.abs(chi)))
    chi = chi * np.exp(-1j * np.angle(chi[k]))  # phase convention: largest entry real positive
    chi = chi / np.linalg.norm(chi)
    chi.flags.writeable = False

    eig_res = float(np.abs(slash @ chi - g * chi).max())
    lam = -(m * c * g + p_sq) / (hbar * m)
    return PlaneWave(p=p, a_const=a_const, q=q, hbar=hbar, m=m, c=c,
                     gammas=gammas, branch=branch, g=complex(g),
                     lam=complex(lam), chi=chi, eigen_residual=eig_res)


def linearized_residual(gammas: GammaSet, phi: SpinorFieldFn, tau: float, z,
                        *, lam: Optional[complex] = None, q: float = 0.0,
                        A: Optional[PotentialFn] = None, hbar: float = 1.0,
                        m: float = 1.0, c: float = 1.0,
                        h: Optional[float] = None) -> np.ndarray:
    """The linear operator applied to phi at one probe, via central stencils.

    Returns the four-component residual vector. phi must accept complex z
    shifted along the real axes; derivatives are holomorphic x-route stencils.
    For a separable field exp(-i lam tau) chi(z) pass lam and the tau
    derivative is taken analytically instead of by stencil.
    """
    st = _spinor_stencil(phi, tau, z, h, "x1", "x2", *(() if lam is not None else ("tau",)))
    return _linearized(gammas, st, *_potential_terms(gammas, A, st), lam=lam, q=q,
                       hbar=hbar, m=m, c=c)


def _spinor_stencil(phi: SpinorFieldFn, tau: float, z, h: Optional[float], *blocks) -> _Stencil:
    """The spinor's stencil at the probe, the centre and the named blocks in
    one sweep, refused unless phi gives four components."""
    st = _probe_stencil(phi, tau, z, h, dtype=np.complex128, blocks=("center",) + blocks)
    if st().shape != (4,):
        raise DomainError(f"phi must return 4 components, got {st().shape}")
    return st


def _potential_terms(gammas: GammaSet, A: Optional[PotentialFn], st: _Stencil) -> tuple:
    """A_mu at the probe, zeros without a potential, and sum eta A A."""
    a_val = np.zeros(4, dtype=np.complex128)
    if A is not None:
        a_val = np.asarray(A(st.tau, st.z), dtype=np.complex128)
        if a_val.shape != (4,):
            raise DomainError(f"A must return 4 components, got {a_val.shape}")
    return a_val, complex(np.add.reduce(gammas.metric.eta * a_val * a_val))


def _linearized(gammas: GammaSet, st: _Stencil, a_val: np.ndarray, a_sq: complex, *,
                lam, q, hbar, m, c) -> np.ndarray:
    """linearized_residual on a spinor stencil that route_consistency shares."""
    phi0 = st()
    eta = gammas.metric.eta
    dphi = st.diff1()     # [mu, component]
    d2phi = st.diff2()
    dtau_phi = -1j * lam * phi0 if lam is not None else st.diff_tau()

    gamma_d = np.einsum("mij,mj->i", gammas.matrices, dphi)
    gamma_a = np.einsum("m,mij->ij", a_val, gammas.matrices) @ phi0   # slash(A) phi
    box = np.einsum("m,mj->j", eta, d2phi)
    a_dot_d = np.einsum("m,m,mj->j", eta, a_val, dphi)

    return (1j * hbar * m * dtau_phi
            - 1j * hbar * m * c * gamma_d
            + m * c * q * gamma_a
            - hbar * hbar * box
            - 2j * hbar * q * a_dot_d
            + q * q * a_sq * phi0)


@dataclass(frozen=True)
class HopfColeReport:
    """Both sides of the exponential-substitution identity at one probe."""

    lhs: complex
    rhs: complex
    h: float

    @property
    def residual(self) -> float:
        return float(abs(self.lhs - self.rhs))


def hopf_cole_check(j_field, tau: float, z, metric: Metric = MOSTLY_PLUS,
                    h: Optional[float] = None) -> HopfColeReport:
    """Compare sum eta [(dJ)^2 + d2J] against box(exp J)/exp J by stencils.

    Both sides are evaluated with the same step so the residual measures the
    stencil error of pushing the exponential through the derivatives.
    """
    eta = metric.eta
    st = _probe_stencil(lambda t, p: complex(j_field(t, p)), tau, z, h)
    e0 = np.exp(st())
    if abs(e0) < 1e-12:
        raise DomainError("exp(J) is numerically zero at the probe")
    dj, d2j = st.diff1(order=2), st.diff2()   # dJ at the second-difference step too
    d2phi = st.map(np.exp).diff2()   # reads J's points, evaluates none
    # the builtin sum adds in axis order; np.sum would round the residual differently
    lhs = sum(eta[mu] * (dj[mu] * dj[mu] + d2j[mu]) for mu in range(4))
    rhs = sum(eta[mu] * d2phi[mu] / e0 for mu in range(4))
    return HopfColeReport(lhs=lhs, rhs=rhs, h=float(st.h2))


def hopf_cole_order(j_field, tau: float, z, metric: Metric = MOSTLY_PLUS) -> float:
    """Observed convergence order of the identity residual between two steps."""
    r_c = hopf_cole_check(j_field, tau, z, metric, h=_H_COARSE).residual
    r_f = hopf_cole_check(j_field, tau, z, metric, h=_H_FINE).residual
    if r_f == 0.0:
        raise DomainError("fine-step residual vanished; order is undefined")
    return float(np.log(r_c / r_f) / np.log(_H_COARSE / _H_FINE))


@dataclass(frozen=True)
class RouteReport:
    """Route A (value fields) against route B (linear operator) per component."""

    components: tuple
    route_a: np.ndarray
    route_b: np.ndarray

    @property
    def discrepancies(self) -> np.ndarray:
        return np.abs(self.route_a - self.route_b)

    @property
    def max_discrepancy(self) -> float:
        return float(np.maximum.reduce(self.discrepancies))


def route_consistency(gammas: GammaSet, phi: SpinorFieldFn, tau: float, z,
                      *, q: float = 0.0, A: Optional[PotentialFn] = None,
                      hbar: float = 1.0, m: float = 1.0, c: float = 1.0,
                      components: Sequence[int] = (0, 1, 2, 3),
                      h: Optional[float] = None) -> RouteReport:
    """Evaluate the nonlinear residual two ways at one probe.

    Route A substitutes the log-map fields J^(s) into the coupled first-order
    form and differentiates them directly. Route B applies the linear
    operator to phi and divides by eps_r m phi_r. The two agree identically
    for exact derivatives; the report shows the stencil-level discrepancy on
    each of the requested components, a nonempty selection of 0..3.
    """
    comps = tuple(map(int, components))
    if not comps or not set(comps) <= {0, 1, 2, 3}:
        raise DomainError(f"components must be a nonempty choice of 0..3, got {components!r}")
    # one stencil for both routes: every component's log map reads the same
    # spinor values, and the linear operator reuses them
    st = _spinor_stencil(phi, tau, z, h, "x1", "x2", "tau")
    phi0 = st()
    modulus = np.abs(phi0)
    top = float(np.maximum.reduce(modulus))
    if not top < np.inf:
        raise DomainError(f"phi values at the probe are not finite: {phi0}")
    # components this small are treated as structural zeros: their rho factor
    # kills the coupling term and their own value field is rejected
    live = modulus > 1e-12 * top
    for r in comps:
        if not live[r]:
            raise DomainError(f"phi component {r} vanishes at the probe; "
                              "its value field is undefined there")
    cols = live.nonzero()[0]
    eps = _SIGNS
    coef = -1j * eps[cols] * hbar
    values = phi0.tolist()
    anchor = [values[s] for s in cols.tolist()]

    # value fields of the live components (zero elsewhere), the log anchored at
    # the probe so no point straddles the cut; the ratios are Python's complex
    # divisions, whose rounding dominates the reported discrepancy
    def log_map(block):
        live_values = block[:, cols]
        ratios = [v / a for v, a in zip(live_values.ravel().tolist(), anchor * len(block))]
        ratios = np.array(ratios, dtype=np.complex128).reshape(live_values.shape)
        out = np.zeros(block.shape, dtype=np.complex128)
        out[:, cols] = coef * np.log(ratios)
        return out

    # the log map reads the blocks the linear operator reads
    a_val, a_sq = _potential_terms(gammas, A, st)
    lin = _linearized(gammas, st, a_val, a_sq, lam=None, q=q, hbar=hbar, m=m, c=c)
    jst = st.map(log_map)
    dj = np.ascontiguousarray(jst.diff1().T)   # [component, mu]
    d2j = jst.diff2()                          # [mu, component]
    dtau_j = jst.diff_tau().tolist()

    # each requested component r with the rounding of the scalar expression it
    # stands for: the sums over mu stay numpy reductions over contiguous rows
    # (taken for every component, the dead ones zero), the rest is Python
    # arithmetic on Python complex values
    eta = gammas.metric.eta
    grad_sq = np.add.reduce(eta * dj * dj, axis=-1).tolist()
    a_grad = np.add.reduce(eta * a_val * dj, axis=-1).tolist()
    grad = eps[cols, None] * dj[cols]                          # [s, mu]
    # sum_mu gamma^mu_rs (grad_s + q A)_mu for every r and live s
    terms = np.add.reduce(gammas._by_component[:, cols] * (grad + q * a_val), axis=-1).tolist()
    box = (eta[:, None] * d2j).T.tolist()                      # [r, mu]
    route_a = []
    for r in comps:
        e, phi_r, b = COMPONENT_SIGNS[r], values[r], box[r]
        # the coupling sums the gamma-term times rho = phi_s / phi_r over the live s
        coupling = sum((t * (p / phi_r) for t, p in zip(terms[r], anchor)), 0.0 + 0.0j)
        box_j = (((0 + b[0]) + b[1]) + b[2]) + b[3]             # the builtin sum, in axis order
        route_a.append(-dtau_j[r] + e * c * coupling - 1j * hbar / m * box_j
                       + e / m * grad_sq[r] + 2.0 * q / m * a_grad[r] + e * q * q / m * a_sq)
    rs = np.array(comps)
    route_b = eps[rs] * lin[rs] / (m * phi0[rs])

    return RouteReport(components=comps, route_a=np.array(route_a, dtype=np.complex128),
                       route_b=route_b)
