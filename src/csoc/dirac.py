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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .spacetime import LOWER, ComplexFourVector, Metric, MOSTLY_PLUS, contract
from .ccalc import _UNIT, _scale, _Stencil, _step

SpinorFieldFn = Callable[[float, np.ndarray], np.ndarray]
PotentialFn = Callable[[float, np.ndarray], np.ndarray]
_H_COARSE, _H_FINE = 0.02, 0.01   # the two steps of hopf_cole_order

# signs eps_s of the per-component log map J = -i eps hbar log phi
COMPONENT_SIGNS = (1.0, 1.0, -1.0, -1.0)

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
        m.flags.writeable = False
        object.__setattr__(self, "matrices", m)

    def slash(self, a) -> np.ndarray:
        """sum_mu gamma^mu a_mu for a lower-index four-vector a."""
        if isinstance(a, ComplexFourVector):
            if a.index != LOWER:
                a = a.flipped(self.metric)
            a = a.components
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (4,):
            raise DomainError(f"a must have 4 components, got shape {a.shape}")
        return np.einsum("m,mij->ij", a, self.matrices)

    def anticommutator_residual(self) -> float:
        """max |{gamma^mu, gamma^nu} - 2 eta^{munu} I| over all pairs."""
        g = self.matrices
        eye2 = 2.0 * np.eye(4)
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                target = eye2 * self.metric.eta[mu] if mu == nu else 0.0
                worst = max(worst, float(np.abs(anti - target).max()))
        return worst

    def square_slash_residual(self, a) -> float:
        """max |(gamma.a)^2 - (sum a^mu a_mu) I| for lower-index a."""
        if isinstance(a, ComplexFourVector):
            if a.index != LOWER:
                a = a.flipped(self.metric)
            a = a.components
        a = np.asarray(a, dtype=np.complex128)
        s = self.slash(a)
        norm = contract(a, a, self.metric, default_index=LOWER)
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


def clifford_check(gammas: GammaSet) -> float:
    return gammas.anticommutator_residual()


def linearization_check(gammas: GammaSet, n: int = 100, seed: int = 0) -> float:
    """Worst (gamma.a)^2 defect over n random complex four-vectors."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        worst = max(worst, gammas.square_slash_residual(a))
    return worst


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

    @property
    def total_momentum(self) -> np.ndarray:
        return self.p + self.q * self.a_const

    def phi(self, tau: float, z: np.ndarray) -> np.ndarray:
        z = np.asarray(getattr(z, "components", z), dtype=np.complex128)
        phase = 1j * complex(np.sum(self.p * z)) / self.hbar - 1j * self.lam * tau
        return np.exp(phase) * self.chi

    def potential(self) -> Optional[PotentialFn]:
        if self.q == 0.0 and not np.any(self.a_const):
            return None
        a = self.a_const
        return lambda tau, z: a


def plane_wave(gammas: GammaSet, p, *, q: float = 0.0, a_const=None,
               hbar: float = 1.0, m: float = 1.0, c: float = 1.0,
               branch: str = "+") -> PlaneWave:
    """Build a plane-wave eigenmode from the numerical slash eigenproblem."""
    p = np.asarray(p, dtype=float)
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
    p_sq = complex(contract(big_p, big_p, gammas.metric, default_index=LOWER))
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
    return _linearized(gammas, _spinor_stencil(phi, tau, z), lam=lam, q=q, A=A,
                       hbar=hbar, m=m, c=c, h=h)


def _spinor_stencil(phi: SpinorFieldFn, tau: float, z) -> _Stencil:
    z = np.asarray(getattr(z, "components", z), dtype=np.complex128)
    st = _Stencil(lambda t, p: np.asarray(phi(t, p), dtype=np.complex128), tau, z)
    if st().shape != (4,):
        raise DomainError(f"phi must return 4 components, got {st().shape}")
    return st


def _linearized(gammas: GammaSet, st: _Stencil, *, lam, q, A, hbar, m, c,
                h) -> np.ndarray:
    """linearized_residual on a spinor stencil that route_consistency shares."""
    tau, z, phi0 = st.tau, st.z, st()
    eta = gammas.metric.eta
    h1, h2 = _step(_scale(z), 1, h), _step(_scale(z), 2, h)
    dphi = st.diff1(h1 * _UNIT, h1)     # [mu, component]
    d2phi = st.diff2(h2 * _UNIT, h2)
    if lam is not None:
        dtau_phi = -1j * lam * phi0
    else:
        dtau_phi = st.diff_tau(_step(max(1.0, abs(tau))))

    a_val = np.zeros(4, dtype=np.complex128)
    if A is not None:
        a_val = np.asarray(A(tau, z), dtype=np.complex128)
        if a_val.shape != (4,):
            raise DomainError(f"A must return 4 components, got {a_val.shape}")

    gamma_d = np.einsum("mij,mj->i", gammas.matrices, dphi)
    gamma_a = gammas.slash(a_val) @ phi0
    box = np.einsum("m,mj->j", eta, d2phi)
    a_dot_d = np.einsum("m,m,mj->j", eta, a_val, dphi)
    a_sq = complex(np.sum(eta * a_val * a_val))

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
    z = np.asarray(getattr(z, "components", z), dtype=np.complex128)
    eta = metric.eta
    h = float(_step(_scale(z), 2, h))
    st = _Stencil(lambda t, p: complex(j_field(t, p)), tau, z)
    e0 = np.exp(st())
    if abs(e0) < 1e-12:
        raise DomainError("exp(J) is numerically zero at the probe")
    steps = h * _UNIT
    dj, d2j = st.diff1(steps, h), st.diff2(steps, h)
    d2phi = st.map(np.exp).diff2(steps, h)   # reads J's points, evaluates none
    # the builtin sum adds in axis order; np.sum would round the residual differently
    lhs = sum(eta[mu] * (dj[mu] * dj[mu] + d2j[mu]) for mu in range(4))
    rhs = sum(eta[mu] * d2phi[mu] / e0 for mu in range(4))
    return HopfColeReport(lhs=lhs, rhs=rhs, h=h)


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
    signing: str

    @property
    def discrepancies(self) -> np.ndarray:
        return np.abs(self.route_a - self.route_b)

    @property
    def max_discrepancy(self) -> float:
        return float(self.discrepancies.max())


def route_consistency(gammas: GammaSet, phi: SpinorFieldFn, tau: float, z,
                      *, q: float = 0.0, A: Optional[PotentialFn] = None,
                      hbar: float = 1.0, m: float = 1.0, c: float = 1.0,
                      components: Sequence[int] = (0, 1, 2, 3),
                      signing: str = "exact",
                      h: Optional[float] = None) -> RouteReport:
    """Evaluate the nonlinear residual two ways at one probe.

    Route A substitutes the log-map fields J^(s) into the coupled first-order
    form and differentiates them directly. Route B applies the linear
    operator to phi and divides by eps_r m phi_r. The two agree identically
    for exact derivatives; the report shows the stencil-level discrepancy on
    each of the requested components, a nonempty selection of 0..3.

    signing selects the bookkeeping of the eps factors in route A. "exact"
    is the arrangement that follows from the log map on every component;
    "unsigned" drops the component signs from the gradient coupling and
    moves one onto the box term, which only matches on plus-sign components
    with decoupled off-diagonal terms.
    """
    if signing not in ("exact", "unsigned"):
        raise DomainError(f"signing must be 'exact' or 'unsigned', got {signing!r}")
    comps = tuple(int(r) for r in components)
    if not comps or any(r not in (0, 1, 2, 3) for r in comps):
        raise DomainError(f"components must be a nonempty choice of 0..3, got {components!r}")
    # one stencil for both routes: every component's log map reads the same
    # spinor values, and the linear operator reuses them
    st = _spinor_stencil(phi, tau, z)
    z, phi0 = st.z, st()
    eta = gammas.metric.eta
    eps = np.asarray(COMPONENT_SIGNS)
    h1, h2 = _step(_scale(z), 1, h), _step(_scale(z), 2, h)
    ht = _step(max(1.0, abs(tau)))
    # components this small are treated as structural zeros: their rho factor
    # kills the coupling term and their own value field is rejected
    live = np.abs(phi0) > 1e-12 * float(np.abs(phi0).max())

    # value fields of the live components (zero elsewhere), the log anchored at
    # the probe so no point straddles the cut; Python complex division per
    # component fixes the rounding, which dominates the reported discrepancy
    jst = st.map(lambda v: np.array([
        -1j * eps[s] * hbar * np.log(complex(v[s]) / complex(phi0[s])) if live[s] else 0j
        for s in range(4)]))
    dj = jst.diff1(h1 * _UNIT, h1).T       # [component, mu]
    d2j = jst.diff2(h2 * _UNIT, h2)        # [mu, component]
    dtau_j = jst.diff_tau(ht)

    a_val = np.zeros(4, dtype=np.complex128)
    if A is not None:
        a_val = np.asarray(A(tau, z), dtype=np.complex128)

    lin = _linearized(gammas, st, lam=None, q=q, A=A, hbar=hbar, m=m, c=c, h=h)

    route_a = np.zeros(len(comps), dtype=np.complex128)
    route_b = np.zeros(len(comps), dtype=np.complex128)
    for out, r in enumerate(comps):
        if not live[r]:
            raise DomainError(f"phi component {r} vanishes at the probe; "
                              "its value field is undefined there")
        box_j = sum(eta[mu] * d2j[mu, r] for mu in range(4))   # in axis order

        coupling = 0.0 + 0.0j
        for s in range(4):
            rho = complex(phi0[s]) / complex(phi0[r])
            if not live[s]:
                continue  # rho vanishes with phi_s, the product drops out
            grad = eps[s] * dj[s] if signing == "exact" else dj[s]
            coupling += complex(np.sum(gammas.matrices[:, r, s] * (grad + q * a_val))) * rho

        grad_sq = complex(np.sum(eta * dj[r] * dj[r]))
        a_grad = complex(np.sum(eta * a_val * dj[r]))
        a_sq = complex(np.sum(eta * a_val * a_val))

        if signing == "exact":
            route_a[out] = (-dtau_j[r]
                            + eps[r] * c * coupling
                            - 1j * hbar / m * box_j
                            + eps[r] / m * grad_sq
                            + 2.0 * q / m * a_grad
                            + eps[r] * q * q / m * a_sq)
        else:
            route_a[out] = (-dtau_j[r]
                            + eps[r] * c * coupling
                            - 1j * eps[r] * hbar / m * box_j
                            + (grad_sq + 2.0 * q * a_grad + q * q * a_sq) / m)
        route_b[out] = eps[r] * complex(lin[r]) / (m * complex(phi0[r]))

    return RouteReport(components=comps, route_a=route_a, route_b=route_b,
                       signing=signing)

