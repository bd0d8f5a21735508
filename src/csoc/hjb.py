"""Dynamic-programming residuals for candidate value fields.

The combined complex equation reads

    -dJ/dtau = min_w ( L + sum w^mu dJ/dz^mu ) + (1/2) sum sigma^mu sigma^mu d2J/dz^mu dz^mu

with terminal condition J(tau_f, z) = 0. The minimization is removed by
substituting the stationary control before evaluation, so the residual is

    residual = -dJ/dtau - [ L(w*) + sum w*^mu dJ/dz^mu ] - (1/2) sum sigmasq^mu d2J^mu.

For the EM Lagrangian the stationary control is the closed form
w*_mu = -(dJ/dz^mu + q A_mu)/m. When dJ + qA vanishes the closed form lands
on the square-root branch point; the shell-restricted minimization is then
degenerate, every shell velocity gives the same bracket, and the evaluator
substitutes the representative shell velocity w* = (c, 0, 0, 0), which is on
shell in both metric conventions.

The paired real form is evaluated by hjb_residual_pair from independent
stencils of two real fields J_R(tau, x, y) and J_I(tau, x, y); for analytic
J = J_R + i J_I the pair residuals recombine into the complex residual, and
their numerical difference is pure stencil error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .spacetime import Metric, _vector
from .wiener import DiffusionSpec, complex_sigma_squared
from .ccalc import DomainBox, _probe_stencil
from .lagrangian import Lagrangian
from .control import solve_optimal_control

PairFieldFn = Callable[[float, np.ndarray, np.ndarray], float]
_DEGENERATE_TOL = 1e-8   # |dJ + qA| / (m c) below which the control is shell-degenerate


@dataclass(frozen=True)
class HJBProblem:
    """A Lagrangian, a diffusion and a horizon, sharing one metric."""

    lagrangian: Lagrangian
    diffusion: DiffusionSpec
    tau_f: float

    def __post_init__(self):
        em = self.lagrangian.em
        if em is not None and em.metric != self.diffusion.metric:
            raise DomainError("lagrangian and diffusion disagree on the metric")
        if not np.isfinite(self.tau_f):
            raise DomainError("tau_f must be finite")

    @property
    def metric(self) -> Metric:
        return self.diffusion.metric

    @cached_property
    def _sigma_squared(self) -> np.ndarray:
        return complex_sigma_squared(self.diffusion)

    @cached_property
    def _pair_weights(self) -> tuple:
        """The weights of d2/dx2, d2/dx dy and d2/dy2 in the paired second-order term."""
        spec = self.diffusion
        # epsilon * eta, not sign_copy: these weights stay independent of the draw
        return (spec.sigma_x * spec.sigma_x,
                2.0 * spec.epsilon * self.metric.eta * spec.sigma_x * spec.sigma_y,
                spec.sigma_y * spec.sigma_y)


def rest_shell_velocity(c: float) -> np.ndarray:
    """The representative shell point (c, 0, 0, 0), on shell either convention."""
    w = np.zeros(4, dtype=np.complex128)
    w[0] = c
    return w


def optimal_control_at(problem: HJBProblem, dJ: np.ndarray, tau: float, z) -> tuple[np.ndarray, str]:
    """Stationary control for the residual, upper index, and how it was found.

    For the EM Lagrangian (lagrangian.em set) the control is the closed form
    em.stationary_control, labelled "closed-form"; when dJ + qA vanishes it
    is the rest shell velocity, labelled "shell-degenerate". Every other
    Lagrangian goes through the Newton solver, labelled "newton".
    """
    z = _vector(z)
    em = problem.lagrangian.em
    if em is not None:
        p = em._momentum(tau, z, dJ)
        if float(np.maximum.reduce(np.abs(p))) < _DEGENERATE_TOL * em.m * em.c:
            return rest_shell_velocity(em.c), "shell-degenerate"
        return em._control(p), "closed-form"
    result = solve_optimal_control(problem.lagrangian, dJ, tau=tau, z=z)
    return result.w_star, "newton"


@dataclass(frozen=True)
class ResidualProbe:
    """Everything the residual evaluation saw at one probe."""

    tau: float
    z: np.ndarray
    residual: complex
    w_star: np.ndarray
    control_method: str
    dJ: np.ndarray
    d2J: np.ndarray

    def to_record(self) -> dict:
        """The per-probe JSON record shape used by the CLI."""
        return {
            "tau": self.tau,
            "z_re": [float(v) for v in self.z.real],
            "z_im": [float(v) for v in self.z.imag],
            "residual_re": float(self.residual.real),
            "residual_im": float(self.residual.imag),
            "w_star_re": [float(v) for v in self.w_star.real],
            "w_star_im": [float(v) for v in self.w_star.imag],
        }


def hjb_residual_probe(problem: HJBProblem, value_field, tau: float, z,
                       h: Optional[float] = None) -> ResidualProbe:
    """Complex-route residual with its ingredients at one interior probe."""
    # one stencil, so routes share points
    st = _probe_stencil(value_field, tau, z, h, blocks=("x1", "x2", "center", "tau"))
    z = st.z
    dj = st.diff1()     # the x-route, as complex_derivative's d_x
    d2j = st.diff2()    # the xx-route, as second_complex_derivative's route_xx
    w_star, method = optimal_control_at(problem, dj, tau, z)
    lval = complex(np.asarray(problem.lagrangian.value(tau, z, w_star)))
    bracket = lval + complex(np.add.reduce(w_star * dj))
    dtau_j = st.diff_tau()
    second = 0.5 * complex(np.add.reduce(problem._sigma_squared * d2j))
    residual = -dtau_j - bracket - second
    return ResidualProbe(tau=float(tau), z=z, residual=residual, w_star=w_star,
                         control_method=method, dJ=dj, d2J=d2j)


def hjb_residual_pair(problem: HJBProblem, field_r: PairFieldFn, field_i: PairFieldFn,
                      tau: float, x, y, h: Optional[float] = None) -> tuple[float, float]:
    """Residuals of the paired real equations at one probe.

    field_r and field_i are real fields of (tau, x, y). All their partials
    come from real stencils, one for both fields, so first and second routes
    share points; the stationary control is built from the pair gradient
    dJ = dJ_R/dx + i dJ_I/dx.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (4,) or y.shape != (4,):
        raise DomainError("x and y must each have 4 components")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):   # before 1j * y meets an inf
        raise DomainError(f"the probe must be finite, got x={x}, y={y}")

    def pair(t, p):
        x, y = p.real, p.imag
        return field_r(t, x, y), field_i(t, x, y)

    z = x + 1j * y
    st = _probe_stencil(pair, tau, z, h, dtype=np.float64,
                        blocks=("x1", "y1", "x2", "y2", "center", "mixed", "tau"))
    # each part with rows J_R and J_I and columns the axes, rows contiguous
    parts = np.array([st.diff1(), st.diff1(1j), st.diff2(), st.diff2(1j), st.mixed()])
    dx, dy, dxx, dyy, dxy = parts.transpose(0, 2, 1).copy()
    dtau = st.diff_tau()

    w_star, _ = optimal_control_at(problem, dx[0] + 1j * dx[1], tau, z)
    lval = complex(np.asarray(problem.lagrangian.value(tau, z, w_star)))
    sx2, mix, sy2 = problem._pair_weights
    bracket = (np.array([lval.real, lval.imag]) + np.add.reduce(w_star.real * dx, axis=-1)
               + np.add.reduce(w_star.imag * dy, axis=-1))
    second = 0.5 * np.add.reduce(sx2 * dxx + mix * dxy + sy2 * dyy, axis=-1)
    residual = -dtau - bracket - second
    return float(residual[0]), float(residual[1])


def dalembertian(value_field, tau: float, z, metric: Metric,
                 h: Optional[float] = None) -> complex:
    """sum eta^{mumu} d2J/dz^mu dz^mu via the xx-route stencils."""
    st = _probe_stencil(value_field, tau, z, h, blocks=("x2", "center"))
    return complex(np.sum(metric.eta * st.diff2()))


def covariance_check(value_field, metric: Metric, rapidity: float, axis: int,
                     tau: float, z, h: Optional[float] = None) -> float:
    """|d'Alembertian at z - d'Alembertian of the boosted field at the boosted point|."""
    from .spacetime import boost_matrix

    z = _vector(z)
    lam = boost_matrix(rapidity, axis)
    lam_inv = boost_matrix(-rapidity, axis)

    def boosted(tau_: float, zp: np.ndarray) -> complex:
        return value_field(tau_, lam_inv @ zp)

    d_plain = dalembertian(value_field, tau, z, metric, h=h)
    d_boost = dalembertian(boosted, tau, lam @ z, metric, h=h)
    return float(abs(d_plain - d_boost))


def boundary_residual(problem: HJBProblem, value_field,
                      points: Sequence[np.ndarray]) -> float:
    """max |J(tau_f, z)| over the probe points, NaN if any value is NaN."""
    if not len(points):
        raise DomainError("boundary point list is empty")
    return float(np.max([abs(complex(value_field(problem.tau_f, _vector(z))))
                         for z in points]))


# Sobol direction numbers: the first nine dimensions of Joe and Kuo's table,
# as (primitive polynomial, initial m_k) with the polynomial's leading and
# trailing bits included; dimension 0 has m_k = 1 for every k
_SOBOL_BITS = 30
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41)
_SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5))


def _sobol_directions() -> np.ndarray:
    """(bits, 9) direction numbers v_k = m_k 2^(bits-1-k).

    m_k for k past the initial values follows the Bratley-Fox recurrence
    m_k = 2 a_1 m_{k-1} ^ ... ^ 2^(s-1) a_{s-1} m_{k-s+1} ^ 2^s m_{k-s} ^ m_{k-s}
    for a polynomial of degree s with inner coefficients a_1 .. a_{s-1}.
    """
    cols = []
    for poly, vinit in zip(_SOBOL_POLY, _SOBOL_VINIT):
        s = poly.bit_length() - 1
        m = list(vinit)
        while len(m) < _SOBOL_BITS:
            k = len(m)
            new = 1 if s == 0 else m[k - s] ^ (m[k - s] << s)
            for j in range(1, s):
                if poly >> (s - j) & 1:
                    new ^= m[k - j] << j
            m.append(new)
        cols.append([mk << (_SOBOL_BITS - 1 - k) for k, mk in enumerate(m)])
    return np.array(cols, dtype=np.int64).T


_SOBOL_V = _sobol_directions()


def _sobol_unit(n: int) -> np.ndarray:
    """The first n unscrambled Sobol points in [0, 1)^9, in gray-code order.

    Point 0 is the origin; point i is point i-1 XORed with the direction
    numbers of the lowest zero bit of i-1, which is the lowest set bit of i.
    """
    i = np.arange(1, n, dtype=np.int64)
    bit = np.log2(i & -i).astype(np.int64)   # exact: i & -i is a power of two
    steps = np.vstack([np.zeros((1, 9), dtype=np.int64), _SOBOL_V[bit]])
    return np.bitwise_xor.accumulate(steps, axis=0) / 2.0 ** _SOBOL_BITS


_SHRINK = 0.05   # the fraction of each span the probe box loses at either end


def probe_points(box: DomainBox, n: int = 64) -> list[tuple[float, np.ndarray]]:
    """Deterministic low-discrepancy probes strictly inside the box.

    The first n unscrambled 9-dimensional Sobol points (Bratley and Fox, ACM
    TOMS 14, 1988, Algorithm 659; direction numbers of Joe and Kuo, SIAM J.
    Sci. Comput. 30, 2008), mapped into the box shrunk by _SHRINK of each
    span, so stencils of moderate step stay interior. The first n probes of
    a larger n are the same points. A box whose span overflows to inf is a
    DomainError.
    """
    if not 1 <= n <= 2 ** _SOBOL_BITS:
        raise DomainError(f"n must be in [1, 2**{_SOBOL_BITS}], got {n}")
    lo = np.array([box.tau_lo, *box.x_lo, *box.y_lo])
    hi = np.array([box.tau_hi, *box.x_hi, *box.y_hi])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("the probe box must be finite")
    if not (lo < hi).all():
        raise DomainError("the probe box must have lo < hi on every axis")
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span).all():
        raise DomainError("the probe box span must be finite")
    lo_s = lo + _SHRINK * span
    hi_s = hi - _SHRINK * span
    pts = _sobol_unit(n) * (hi_s - lo_s) + lo_s
    out = []
    for row in pts:
        tau = float(row[0])
        z = row[1:5] + 1j * row[5:9]
        out.append((tau, z))
    return out
