"""Finite-difference calculus for fields of four complex coordinates.

A scalar field is a callable f(tau, z) with z a (4,) complex array,
z^mu = x^mu + i y^mu. Derivatives along each axis mu are taken two ways,
stepping the real part (x-route) and stepping the imaginary part (y-route):

    x-route first derivative   d/dz^mu f = d/dx^mu f
    y-route first derivative   d/dz^mu f = -i * d/dy^mu f

which agree exactly when f is analytic in z^mu. Their disagreement, and the
Cauchy-Riemann residuals of the component fields, quantify analyticity.
Second derivatives come in three routes, d2/dx2, -d2/dy2 and -i * d/dx d/dy.

Every central difference in csoc runs on one engine, _Stencil; the one
exception is the Newton Jacobian in control, which takes all its points in
one batched call. The stencil evaluates blocks, not points: it calls its
field one way, f(tau, z + offsets[k]) once per offset of a block, with the
probe's tau and the shape of z, and a difference is array arithmetic on the
block's values. A caller names the blocks it will read, and they are taken
in one sweep of the field. With leading axes on z a stencil covers many
probes at once; _rows adapts a per-point field to such (N, 4) rows, which
is how analyticity_scan differences all its probes as one block. A field
already defined on rows goes to the scan's core, _scan_rows, directly and
is called once per offset of a block, not once per point: the cr-scan and
audit presets of `csoc run` are such fields. Each block is evaluated once,
and blocks that coincide (first and second differences at one explicit h,
the probe itself) share one evaluation. A probe must be
finite: tau and z are checked where a probe's stencil is built, so every
derivative, residual and scan refuses a NaN or infinite probe with a
DomainError before evaluating any point. A stencil's values are complex,
and its first sweep sets its rounding from their shape: one number per
probe divides as CPython divides a complex by a float, so the results are
bit for bit those of scalar arithmetic at each point, and an array per
probe (a spinor) divides as numpy divides. The stencil sets its steps
once, when it is built about a probe. An explicit h is every step, the tau
step included; otherwise _step gives eps**(1/3) * scale for first
differences and eps**(1/4) * scale for second differences, scale being
max(1, max |z^mu|) (max(1, |tau|) in tau). _Stencil.map applies g once to
every block taken and gives the stencil of g(f), which evaluates nothing
and divides as numpy divides. A ScalarField checks its box at every
evaluation, so every point a stencil or any other caller evaluates is
checked, not a margin around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .spacetime import _vector

FieldFn = Callable[[float, np.ndarray], complex]

_EPS_CBRT = float(np.finfo(float).eps ** (1.0 / 3.0))
_EPS_QRT = float(np.finfo(float).eps ** 0.25)
_UNIT = np.eye(4, dtype=np.complex128)   # row mu is the unit vector e_mu
# the offsets of each block at a unit step, as reals: h times them is the
# block's offsets at step h, each zero signed as in h * e_mu, -(h * e_mu), ...
_PATTERNS = {key: np.concatenate(rows).view(np.float64) for key, rows in (
    ("x", (_UNIT, -_UNIT)),
    ("y", (1j * _UNIT, -(1j * _UNIT))),
    ("mixed", (_UNIT + 1j * _UNIT, _UNIT - 1j * _UNIT, -_UNIT + 1j * _UNIT, -_UNIT - 1j * _UNIT)),
)}
# each shifted block's pattern and the order of the difference whose step it takes
_SHIFTED = {"x1": (_PATTERNS["x"], 1), "y1": (_PATTERNS["y"], 1), "x2": (_PATTERNS["x"], 2),
            "y2": (_PATTERNS["y"], 2), "mixed": (_PATTERNS["mixed"], 2)}
_SIZES = {"center": 1, "tau": 2, "x1": 8, "y1": 8, "x2": 8, "y2": 8, "mixed": 16}


def _step(scale, h=None):
    """h when given, else the step balancing truncation against roundoff for
    first differences; scale may be an array of scales. A given h must be
    positive with a finite, nonzero square."""
    if h is not None:
        if not (h > 0 and 0 < h * h < np.inf):
            raise DomainError(f"h must be positive with a finite, nonzero square, got {h}")
        return h
    return _EPS_CBRT * scale


def _quot(num, d, pydiv: bool):
    """num / d for a positive real d: as CPython divides a complex by a
    float with pydiv, else as numpy divides.

    CPython's rounding serves one number per probe, so a difference equals
    scalar arithmetic at each point: Python divides the values of one probe
    itself, _py_cdiv those of many. numpy's division multiplies by a
    reciprocal and can differ in the last bit; it serves arrays per probe.
    """
    if not pydiv:
        return num / d
    if not isinstance(d, np.ndarray) and num.ndim <= 1:   # one probe
        if num.ndim == 0:
            return num.item() / d
        return np.array([x / d for x in num.tolist()], dtype=np.complex128)
    return _py_cdiv(num, d)


def _py_cdiv(a: np.ndarray, d) -> np.ndarray:
    """a / d elementwise for a positive real d, a float or an array, rounded
    as CPython divides a complex by a float (Smith's method with a zero
    ratio); numpy's complex division differs in the last bit for about half
    of all operands."""
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(d)), dtype=np.complex128)
    out.real = (a.real + a.imag * 0.0) / d
    out.imag = (a.imag - a.real * 0.0) / d
    return out


def _rows(f):
    """A per-point field f(tau, z) as a field on (N, 4) rows with one tau
    per row, an (N,) array: f is called once per row, at that row's tau as
    a Python float, giving one value per row."""
    def rows(tau, z):
        return [f(t, p) for t, p in zip(tau.tolist(), z)]
    return rows


class _Stencil:
    """A field around a probe (tau, z), each block of points evaluated once.

    A block is named by what it holds: "x1" and "y1" the +/- steps along
    every axis in x and in y at the first-difference step, "x2" and "y2" the
    same at the second-difference step, "mixed" the 16 diagonal corners,
    "center" the probe itself and "tau" the probe's z at tau +/- h_tau. A
    difference reads the blocks it needs, diff1 "x1" or "y1" (or "x2", "y2"
    at order 2), diff2 "x2" or "y2" and "center", mixed "mixed", diff_tau
    "tau", and is array arithmetic on their values. evaluate(*names) takes
    the points of every named block not yet evaluated in one sweep of the
    field, and a difference evaluates any block it reads that is still
    missing. The field is called once per point, f(tau, z + offset), with
    the probe's tau (tau +/- h_tau in the tau block) passed through
    unchanged. The values of one sweep share one complex array, so a field
    gives the same shape of value at every point. Blocks are cached by what
    they hold, so first and second differences at one explicit h share one
    block. Fields are assumed deterministic.

    The steps h1 (first differences), h2 (second differences) and h_tau are
    set here, from h when it is given and else by _step at the probe's scale.
    z may carry leading axes, each row a probe with steps of its own scale;
    tau is a float or an array that broadcasts against them, and f maps such
    a z to a value per row (_rows adapts a per-point field). The first sweep
    sets one rounding flag from the shape of the values: one number per
    probe (per row of z) divides as CPython divides, an array per probe as
    numpy divides (_quot).
    """

    def __init__(self, f, tau, z, h=None):
        self.f, self.tau, self.z = f, tau, z
        # max(1, max |z^mu|) per row, NaN or inf when z is not finite
        self.scale = scale = np.maximum.reduce(np.abs(z), axis=-1, initial=1.0)
        if h is None:
            tau_scale = (np.maximum(1.0, np.abs(tau)) if isinstance(tau, np.ndarray)
                         else max(1.0, abs(tau)))
            self.h1, self.h2 = _EPS_CBRT * scale, _EPS_QRT * scale
            self.h_tau = _EPS_CBRT * tau_scale
            self._alias = {}
        else:   # one explicit step: a second-difference block is its first-difference block
            self.h1 = self.h2 = self.h_tau = _step(scale, h)
            self._alias = {"x2": "x1", "y2": "y1"}
        self._blocks: dict = {}
        self._pydiv = False   # the first sweep sets it when the values are one number per probe

    def __call__(self):
        """The field at the probe (one value per row of z)."""
        return self._block("center")[0]

    def map(self, g) -> "_Stencil":
        """The stencil of g(f) about the same probe, with the same steps.

        g maps values of f row by row, once, over every block taken so far.
        The mapped stencil has no field and divides as numpy divides: a block
        its source never took is a DomainError, as is a map of no block.
        """
        if not self._blocks:
            raise DomainError("a stencil that has taken no block has nothing to map")
        values = list(self._blocks.values())
        mapped = np.split(np.asarray(g(np.concatenate(values)), dtype=np.complex128),
                          np.cumsum([len(v) for v in values[:-1]]))
        stencil = object.__new__(_Stencil)
        stencil.__dict__.update(self.__dict__, f=None, _pydiv=False,
                                _blocks=dict(zip(self._blocks, mapped)))
        return stencil

    def _block(self, name) -> np.ndarray:
        """The values of one block, a row per point, evaluated on first use."""
        name = self._alias.get(name, name)
        if name not in self._blocks:
            self.evaluate(name)
        return self._blocks[name]

    def evaluate(self, *names) -> None:
        """Evaluate the named blocks not evaluated yet, in one sweep of the
        field (the tau block last); a mapped stencil refuses them."""
        todo = []
        for n in names:
            n = self._alias.get(n, n)
            if n not in self._blocks and n not in todo:
                todo.append(n)
        if not todo:
            return
        if self.f is None:
            raise DomainError(f"a mapped stencil has no {todo[0]!r} block and evaluates none")
        if "tau" in todo:
            todo.remove("tau")
            todo.append("tau")
        f, tau, z = self.f, self.tau, self.z
        vals = [f(tau, p) for n in todo if n != "tau"
                for p in (z[None] if n == "center" else z + self._offsets(n))]
        if todo[-1] == "tau":
            vals += [f(tau + self.h_tau, z), f(tau - self.h_tau, z)]
        values = np.array(vals, dtype=np.complex128)
        if not self._blocks:   # the first sweep decides how every difference rounds
            self._pydiv = values.ndim == z.ndim
        start = 0
        for n in todo:
            self._blocks[n] = values[start:start + _SIZES[n]]
            start += _SIZES[n]

    def _offsets(self, name) -> np.ndarray:
        """The offsets of a shifted block, (k, *lead, 4): with leading axes
        on z, each row of z is offset by its own step."""
        pattern, order = _SHIFTED[name]
        h = self.h1 if order == 1 else self.h2
        if self.z.ndim > 1:
            h = np.broadcast_to(h, self.z.shape[:-1])[None, ..., None]
            pattern = pattern.reshape((len(pattern),) + (1,) * (h.ndim - 2) + (8,))
        return (h * pattern).view(np.complex128)

    def diff1(self, unit=1, order: int = 1) -> np.ndarray:
        """(f(z + v) - f(z - v)) / 2h along every axis, v = unit * h e_mu: the
        x-route for unit 1, the y-partial for unit 1j; h is the step of the
        given difference order."""
        h = self.h1 if order == 1 else self.h2
        v, pydiv = self._block(("x" if unit == 1 else "y") + str(order)), self._pydiv
        return _quot(v[:4] - v[4:], 2 * h, pydiv)

    def diff2(self, unit=1) -> np.ndarray:
        """(f(z + v) - 2 f(z) + f(z - v)) / h^2 along every axis, v = unit * h e_mu."""
        v, f0, h = self._block("x2" if unit == 1 else "y2"), self._block("center"), self.h2
        return _quot(v[:4] - 2 * f0 + v[4:], h * h, self._pydiv)

    def mixed(self) -> np.ndarray:
        """d2/dx^mu dy^mu along every axis from the four diagonal points."""
        v, h = self._block("mixed"), self.h2
        return _quot(v[0:4] - v[4:8] - v[8:12] + v[12:16], 4 * h * h, self._pydiv)

    def diff_tau(self):
        """(f(tau + h) - f(tau - h)) / 2h at the probe's z."""
        v = self._block("tau")
        return _quot(v[0] - v[1], 2 * self.h_tau, self._pydiv)


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


def _probe_stencil(f, tau: float, z, h: Optional[float] = None, blocks=()) -> _Stencil:
    """The stencil of a field at a probe point, which must be finite, with
    the named blocks evaluated in one sweep."""
    st = _Stencil(f, tau, _vector(z), h)
    if not (abs(tau) < np.inf and st.scale < np.inf):
        raise DomainError(f"the probe must be finite, got tau={tau}, z={st.z}")
    st.evaluate(*blocks)
    return st


@dataclass(frozen=True)
class DerivativeReport:
    """First derivatives of one field at one probe.

    d_x[mu] is the x-route derivative, the estimate of d/dz^mu f, and d_y[mu]
    the raw y-partial (so the y-route derivative is -i * d_y[mu]).
    cr_residuals are the Cauchy-Riemann defects
    |Re d_x - Im d_y| + |Im d_x + Re d_y|, consistency_residuals the
    moduli of the x-route minus y-route differences.
    """

    d_x: np.ndarray
    d_y: np.ndarray
    cr_residuals: np.ndarray
    consistency_residuals: np.ndarray
    h: float


def _first_routes(st: _Stencil) -> tuple[np.ndarray, ...]:
    """The x-route d_x and the y-partial d_y of a stencil's field, with their
    Cauchy-Riemann and route-consistency residuals, each axes last."""
    d_x, d_y = (np.ascontiguousarray(np.moveaxis(st.diff1(unit), 0, -1)) for unit in (1, 1j))
    cr = np.abs(d_x.real - d_y.imag) + np.abs(d_x.imag + d_y.real)
    return d_x, d_y, cr, np.abs(d_x - -1j * d_y)


def complex_derivative(f, tau: float, z, h: Optional[float] = None) -> DerivativeReport:
    """Central-difference first derivatives along every axis, both routes."""
    st = _probe_stencil(f, tau, z, h, blocks=("x1", "y1"))
    d_x, d_y, cr, cons = _first_routes(st)
    return DerivativeReport(d_x=d_x, d_y=d_y,
                            cr_residuals=cr, consistency_residuals=cons, h=float(st.h1))


@dataclass(frozen=True)
class SecondDerivativeReport:
    """Second derivatives per axis via the three routes.

    route_xx = d2/dx2 f, route_yy = -d2/dy2 f, route_xy = -i d/dx d/dy f;
    all three estimate d2/dz2 f for analytic f.
    """

    route_xx: np.ndarray
    route_yy: np.ndarray
    route_xy: np.ndarray
    route_discrepancies: np.ndarray
    h: float

    @property
    def max_discrepancy(self) -> float:
        return float(self.route_discrepancies.max())


def second_complex_derivative(f, tau: float, z, h: Optional[float] = None) -> SecondDerivativeReport:
    """Three-route second derivatives along every axis."""
    st = _probe_stencil(f, tau, z, h, blocks=("x2", "y2", "center", "mixed"))
    xx, yy, xy = st.diff2(), -st.diff2(1j), -1j * st.mixed()
    disc = np.maximum(np.abs(xx - yy), np.maximum(np.abs(xx - xy), np.abs(yy - xy)))
    return SecondDerivativeReport(route_xx=xx, route_yy=yy, route_xy=xy,
                                  route_discrepancies=disc, h=float(st.h2))


def tau_derivative(f, tau: float, z, h: Optional[float] = None) -> complex:
    """Central difference in tau at fixed z."""
    return _probe_stencil(f, tau, z, h).diff_tau()


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    z: np.ndarray
    residual: float          # worst raw first-derivative residual at the probe
    scaled_residual: float   # residual relative to max(1, |d_x|) per axis
    passed: bool
    derivatives: DerivativeReport


@dataclass(frozen=True)
class ScanReport:
    """Analyticity scan over a probe set.

    Residuals are compared against tol * max(1, |d_x^mu|) per axis, a
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
    """Check Cauchy-Riemann and route consistency at every probe.

    All probes' points are one block per route, and the residuals of every
    probe come from (N, 4) arrays, equal bit for bit to complex_derivative
    at each probe.
    """
    return _scan_rows(_rows(f), probes, h, tol)


def _scan_rows(f, probes: Sequence[tuple[float, np.ndarray]],
               h: Optional[float] = None, tol: float = 1e-6) -> ScanReport:
    """analyticity_scan of a field on (N, 4) rows with an (N,) tau, as _rows
    makes of a per-point field: one call per offset of a route's block, all
    probes at once."""
    if not probes:
        raise DomainError("probe list is empty")
    taus = [float(tau) for tau, _ in probes]
    zs = np.array([_vector(z) for _, z in probes])
    st = _Stencil(f, np.array(taus), zs, h)
    finite = np.isfinite(st.tau) & (st.scale < np.inf)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"probe {i} must be finite, got tau={taus[i]}, z={zs[i]}")
    st.evaluate("x1", "y1")
    d_x, d_y, cr, cons = _first_routes(st)     # (N, 4) each
    scale = np.maximum(1.0, np.abs(d_x))
    scaled = np.maximum(cr / scale, cons / scale).max(axis=1)
    cr_max, cons_max = cr.max(axis=1), cons.max(axis=1)
    raw = np.where(cons_max > cr_max, cons_max, cr_max)   # the builtin max of the two
    steps = np.broadcast_to(st.h1, len(taus)).tolist()
    results = tuple(
        ProbeResult(tau=tau, z=z, residual=r, scaled_residual=sr, passed=ok,
                    derivatives=DerivativeReport(d_x=dx, d_y=dy, cr_residuals=c,
                                                 consistency_residuals=k, h=step))
        for tau, z, r, sr, ok, dx, dy, c, k, step in zip(
            taus, zs, raw.tolist(), scaled.tolist(), (scaled < tol).tolist(),
            d_x, d_y, cr, cons, steps))
    worst = int(np.argmax(scaled))   # the first maximum, or the first NaN
    return ScanReport(results=results, tol=float(tol),
                      passed=all(r.passed for r in results), worst_index=worst)
