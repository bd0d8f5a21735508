"""Finite-difference calculus for fields of four complex coordinates.

A scalar field is a callable f(tau, z) with z a (4,) complex array,
z^mu = x^mu + i y^mu. Derivatives along each axis mu are taken two ways,
stepping the real part (x-route) and stepping the imaginary part (y-route):

    x-route first derivative   d/dz^mu f = d/dx^mu f
    y-route first derivative   d/dz^mu f = -i * d/dy^mu f

which agree exactly when f is analytic in z^mu. Their disagreement, and the
Cauchy-Riemann residuals of the component fields, quantify analyticity.
Second derivatives come in three routes, d2/dx2, -d2/dy2 and -i * d/dx d/dy.

Every central difference in csoc runs on one engine, _Stencil, which
evaluates each distinct point once; the one exception is the Newton Jacobian
in control, which takes all its points in one batched call. The stencil owns
its steps: it sets them once, when it is built about a probe, so its
differences take no step argument. An explicit h is every step, the tau step
included; otherwise _step gives eps**(1/3) * scale for first differences and
eps**(1/4) * scale for second differences, scale being max(1, max |z^mu|)
(max(1, |tau|) in tau). _Stencil.map gives the stencil of g(f) about the same
probe from the values already taken, so differences of g(f) evaluate no new
point of f. A ScalarField checks its box at every evaluation, so every point
a stencil or any other caller evaluates is checked, not a margin around it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .spacetime import UPPER, ComplexFourVector

FieldFn = Callable[[float, np.ndarray], complex]

_EPS_CBRT = float(np.finfo(float).eps ** (1.0 / 3.0))
_EPS_QRT = float(np.finfo(float).eps ** 0.25)
_UNIT = np.eye(4, dtype=np.complex128)   # row mu is the unit vector e_mu


def default_step(scale: float = 1.0) -> float:
    """Central-difference step for a coordinate scale."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    return _step(scale)


def _step(scale, order: int = 1, h=None):
    """h when given, else the step balancing truncation against roundoff for
    differences of the given order; scale may be an array of scales. A given
    h must be positive with a finite, nonzero square."""
    if h is not None:
        if not (h > 0 and 0 < h * h < np.inf):
            raise DomainError(f"h must be positive with a finite, nonzero square, got {h}")
        return h
    return (_EPS_CBRT if order == 1 else _EPS_QRT) * scale


class _Stencil:
    """A field around one probe (tau, z), each distinct point evaluated once.

    A point is named by its offset from the probe, a coordinate shift dz and
    a tau shift dt, and built as z + dz and tau + dt: the negated offset -v
    gives exactly z - v, and every route asking for the same offset shares
    one evaluation. Fields are assumed deterministic.

    The steps h1 (first differences), h2 (second differences) and h_tau are
    set here, from h when it is given and else by _step at the probe's scale.
    z may carry leading axes, each row a probe with steps of its own scale.
    """

    def __init__(self, f, tau, z, h=None):
        self.f, self.tau, self.z = f, tau, z
        scale = np.abs(z).max(axis=-1, initial=1.0)   # max(1, max |z^mu|) per row
        self.h1, self.h2 = _step(scale, 1, h), _step(scale, 2, h)
        self.h_tau = _step(max(1.0, abs(tau)), 1, h)
        self._values: dict = {}

    def __call__(self, dz=None, dt=None):
        key = (dt, None if dz is None else dz.tobytes())
        if key not in self._values:
            self._values[key] = self._eval(dz, dt)
        return self._values[key]

    def _eval(self, dz, dt):
        return self.f(self.tau if dt is None else self.tau + dt,
                      self.z if dz is None else self.z + dz)

    def map(self, g) -> "_Stencil":
        """The stencil of g(f) about the same probe, with the same steps. It
        reads this stencil's values by offset, so it evaluates no new point of f."""
        mapped = copy.copy(self)
        mapped._values = {}
        mapped._eval = lambda dz, dt: g(self(dz, dt))
        return mapped

    def _axes(self, h, unit) -> np.ndarray:
        """Row mu is the offset unit * h e_mu; with leading axes on z it holds
        one such offset per row of z, each with that row's step."""
        if self.z.ndim == 1:   # one probe: the plain product, ~10x cheaper than moveaxis
            return unit * h * _UNIT
        return np.moveaxis(unit * np.multiply.outer(h, _UNIT), -2, 0)

    def diff1(self, unit=1, order: int = 1) -> np.ndarray:
        """(f(z + v) - f(z - v)) / 2h along every axis, v = unit * h e_mu: the
        x-route for unit 1, the y-partial for unit 1j; h is the step of the
        given difference order."""
        h = self.h1 if order == 1 else self.h2
        steps = self._axes(h, unit)
        return np.array([(self(v) - self(w)) / (2 * h) for v, w in zip(steps, -steps)],
                        dtype=np.complex128)

    def diff2(self, unit=1) -> np.ndarray:
        """(f(z + v) - 2 f(z) + f(z - v)) / h^2 along every axis, v = unit * h e_mu."""
        h, f0 = self.h2, self()
        steps = self._axes(h, unit)
        return np.array([(self(v) - 2 * f0 + self(w)) / (h * h)
                         for v, w in zip(steps, -steps)], dtype=np.complex128)

    def mixed(self) -> np.ndarray:
        """d2/dx^mu dy^mu along every axis from the four diagonal points, one probe."""
        h = self.h2
        e, ie = h * _UNIT, 1j * h * _UNIT
        corners = zip(e + ie, e - ie, -e + ie, -e - ie)
        return np.array([(self(pp) - self(pm) - self(mp) + self(mm)) / (4 * h * h)
                         for pp, pm, mp, mm in corners], dtype=np.complex128)

    def diff_tau(self):
        """(f(tau + h) - f(tau - h)) / 2h at the probe's z."""
        h = self.h_tau
        return (self(dt=h) - self(dt=-h)) / (2 * h)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box in (tau, x^mu, y^mu) where a field may be evaluated."""

    tau_lo: float
    tau_hi: float
    x_lo: tuple[float, float, float, float]
    x_hi: tuple[float, float, float, float]
    y_lo: tuple[float, float, float, float]
    y_hi: tuple[float, float, float, float]

    @classmethod
    def cube(cls, half_width: float, tau_lo: float = 0.0, tau_hi: float = 1.0) -> "DomainBox":
        w = float(half_width)
        lo, hi = (-w,) * 4, (w,) * 4
        return cls(tau_lo, tau_hi, lo, hi, lo, hi)

    def contains(self, tau: float, z: np.ndarray) -> bool:
        x, y = np.real(z), np.imag(z)
        return bool(self.tau_lo <= tau <= self.tau_hi
                    and np.all(x >= self.x_lo) and np.all(x <= self.x_hi)
                    and np.all(y >= self.y_lo) and np.all(y <= self.y_hi))


@dataclass(frozen=True)
class ScalarField:
    """A field callable plus its optional box, checked at every evaluation."""

    f: FieldFn
    box: Optional[DomainBox] = None

    def __call__(self, tau: float, z: np.ndarray) -> complex:
        if self.box is not None and not self.box.contains(tau, z):
            raise DomainError(f"field evaluated outside its domain box at tau={tau}, z={z}")
        return self.f(tau, z)


def _as_point(z) -> np.ndarray:
    """A coordinate point: 4 complex components, upper index."""
    if isinstance(z, ComplexFourVector):
        if z.index != UPPER:
            raise DomainError("a coordinate point must carry an upper index")
        z = z.components
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (4,):
        raise DomainError(f"a coordinate point must have 4 components, "
                          f"got shape {z.shape}")
    return z


def _probe_stencil(f, tau: float, z, h: Optional[float] = None) -> _Stencil:
    """The stencil of a field at a probe point."""
    return _Stencil(f, tau, _as_point(z), h)


@dataclass(frozen=True)
class DerivativeReport:
    """First derivatives of one field at one probe.

    d_x[mu] is the complex-valued x-route derivative, d_y[mu] the raw
    y-partial (so the y-route derivative is -i * d_y[mu]); d_z is the
    x-route value. cr_residuals are the Cauchy-Riemann defects
    |Re d_x - Im d_y| + |Im d_x + Re d_y|, consistency_residuals the
    moduli of the x-route minus y-route differences.
    """

    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray
    cr_residuals: np.ndarray
    consistency_residuals: np.ndarray
    h: float

    @property
    def max_residual(self) -> float:
        return float(max(self.cr_residuals.max(), self.consistency_residuals.max()))


def complex_derivative(f, tau: float, z, h: Optional[float] = None) -> DerivativeReport:
    """Central-difference first derivatives along every axis, both routes."""
    st = _probe_stencil(f, tau, z, h)
    d_x, d_y = st.diff1(), st.diff1(1j)
    y_route = -1j * d_y
    cr = np.abs(d_x.real - d_y.imag) + np.abs(d_x.imag + d_y.real)
    cons = np.abs(d_x - y_route)
    return DerivativeReport(d_x=d_x, d_y=d_y, d_z=d_x.copy(),
                            cr_residuals=cr, consistency_residuals=cons, h=float(st.h1))


@dataclass(frozen=True)
class SecondDerivativeReport:
    """Second derivatives per axis via the three routes.

    route_xx = d2/dx2 f, route_yy = -d2/dy2 f, route_xy = -i d/dx d/dy f;
    all three estimate d2/dz2 f for analytic f. d2_z is the xx-route.
    """

    route_xx: np.ndarray
    route_yy: np.ndarray
    route_xy: np.ndarray
    d2_z: np.ndarray
    route_discrepancies: np.ndarray
    h: float

    @property
    def max_discrepancy(self) -> float:
        return float(self.route_discrepancies.max())


def second_complex_derivative(f, tau: float, z, h: Optional[float] = None) -> SecondDerivativeReport:
    """Three-route second derivatives along every axis."""
    st = _probe_stencil(f, tau, z, h)
    xx, yy, xy = st.diff2(), -st.diff2(1j), -1j * st.mixed()
    disc = np.maximum(np.abs(xx - yy), np.maximum(np.abs(xx - xy), np.abs(yy - xy)))
    return SecondDerivativeReport(route_xx=xx, route_yy=yy, route_xy=xy,
                                  d2_z=xx.copy(), route_discrepancies=disc, h=float(st.h2))


def tau_derivative(f, tau: float, z, h: Optional[float] = None) -> complex:
    """Central difference in tau at fixed z."""
    return _probe_stencil(f, tau, z, h).diff_tau()


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    z: np.ndarray
    residual: float          # worst raw first-derivative residual at the probe
    scaled_residual: float   # residual relative to max(1, |d_z|) per axis
    passed: bool
    derivatives: DerivativeReport


@dataclass(frozen=True)
class ScanReport:
    """Analyticity scan over a probe set.

    Residuals are compared against tol * max(1, |d_z^mu|) per axis, a
    tolerance relative to the local derivative scale.
    """

    results: tuple[ProbeResult, ...]
    tol: float
    passed: bool
    worst_index: int

    @property
    def worst(self) -> ProbeResult:
        return self.results[self.worst_index]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)


def analyticity_scan(f, probes: Sequence[tuple[float, np.ndarray]],
                     h: Optional[float] = None, tol: float = 1e-6) -> ScanReport:
    """Check Cauchy-Riemann and route consistency at every probe."""
    if not probes:
        raise DomainError("probe list is empty")
    results = []
    for tau, z in probes:
        rep = complex_derivative(f, float(tau), z, h=h)
        scale = np.maximum(1.0, np.abs(rep.d_z))
        scaled = np.maximum(rep.cr_residuals / scale, rep.consistency_residuals / scale)
        raw = rep.max_residual
        results.append(ProbeResult(tau=float(tau), z=_as_point(z), residual=raw,
                                   scaled_residual=float(scaled.max()),
                                   passed=bool(scaled.max() < tol), derivatives=rep))
    worst = max(range(len(results)), key=lambda i: results[i].scaled_residual)
    return ScanReport(results=tuple(results), tol=float(tol),
                      passed=all(r.passed for r in results), worst_index=worst)
