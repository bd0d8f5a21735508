"""Analytically continued Lagrangians of complex four-velocity.

The electromagnetic Lagrangian is

    L(tau, z, w) = sigma_tilde m c sqrt(sigma_tilde sum w^mu w_mu) + q sum A_mu(tau, z) w^mu

with the principal square root (branch cut on the negative real axis). Its
velocity normalization, sum w^mu w_mu = sigma_tilde c^2, is a weak equation:
it is imposed only after differentiation. The published gradient is therefore
the on-shell simplification

    dL/dw^mu = m w_mu + q A_mu

which is what gradient_w returns and what the control solver drives to zero.
Its root w*_mu = -(dJ_mu + q A_mu)/m is EMFieldConfig.stationary_control, on
the square root's branch point when dJ + qA vanishes; em_lagrangian keeps its
config as Lagrangian.em, where hjb, control and cli find both.

Vector potentials are callables A(tau, z) -> (..., 4) lower-index components,
analytic in z and broadcasting over leading axes of z.

tau is a float, or an array that broadcasts against the leading axes of z.
A Lagrangian's value and gradient_w and a vector potential must accept
both: the equivalence audit evaluates every probe's conditions at once,
with one tau per probe. Every preset here complies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .spacetime import Metric, MOSTLY_PLUS
from .ccalc import _Stencil

AFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Lagrangian:
    """Value callable with an optional closed-form velocity gradient.

    value(tau, z, w) maps (..., 4) complex z, w to (...) complex;
    gradient_w(tau, z, w), when present, returns the lower-index gradient
    dL/dw^mu with the same leading shape. em is the EM Lagrangian's config,
    with its closed-form control and branch point; every other Lagrangian
    leaves em None and has its stationary control solved by Newton.
    """

    value: Callable
    gradient_w: Optional[Callable] = None
    em: Optional[EMFieldConfig] = None

    @property
    def params(self) -> dict:
        """Read-only view kept for perfbench/workloads.py until its next change."""
        return {} if self.em is None else {"closed_form_control": self.em.stationary_control}

    def grad(self, tau: float, z: np.ndarray, w: np.ndarray,
             h: Optional[float] = None) -> np.ndarray:
        """Closed-form gradient when available, else central differences in w.

        w may carry leading axes; without an explicit h each row of w gets
        the step of its own scale, so a batch equals its rows one by one. A
        closed-form gradient that comes back smaller than w, as one that
        ignores w does, is broadcast to w's shape (a read-only view).
        """
        if self.gradient_w is not None:
            g = np.asarray(self.gradient_w(tau, z, w), dtype=np.complex128)
            return g if g.size >= np.size(w) else np.broadcast_to(g, np.shape(w))
        st = _Stencil(lambda t, v: self.value(t, z, v), tau, np.asarray(w, dtype=np.complex128), h)
        return np.moveaxis(st.diff1(), 0, -1)


@dataclass(frozen=True)
class EMFieldConfig:
    """Charge, mass, light speed and vector potential for the EM Lagrangian."""

    q: float = 0.0
    m: float = 1.0
    c: float = 1.0
    A: Optional[AFn] = None
    metric: Metric = MOSTLY_PLUS

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError(f"mass must be positive, got {self.m}")
        if self.c <= 0:
            raise DomainError(f"c must be positive, got {self.c}")

    def potential(self, tau: float, z: np.ndarray) -> np.ndarray:
        """Lower-index A_mu at (tau, z), zeros when no potential is set."""
        z = np.asarray(z, dtype=np.complex128)
        if self.A is None:
            return np.zeros(z.shape, dtype=np.complex128)
        a = np.asarray(self.A(tau, z), dtype=np.complex128)
        if a.shape != z.shape:
            raise DomainError(f"potential returned shape {a.shape}, expected {z.shape}")
        return a

    def stationary_control(self, tau: float, z, dJ) -> np.ndarray:
        """Upper-index stationary velocity -(dJ_mu + q A_mu)/m raised, for z
        and lower-index dJ of shape (..., 4)."""
        return self._control(self._momentum(tau, z, dJ))

    def _momentum(self, tau: float, z, dJ) -> np.ndarray:
        """dJ_mu + q A_mu, the lower-index momentum the control balances."""
        return np.asarray(dJ, dtype=np.complex128) + self.q * self.potential(tau, z)

    def _control(self, p: np.ndarray) -> np.ndarray:
        return self.metric.eta * (-p / self.m)


def _sum_ww(metric: Metric, w: np.ndarray) -> np.ndarray:
    return np.add.reduce(metric.eta * w * w, axis=-1)


def em_lagrangian(cfg: EMFieldConfig) -> Lagrangian:
    """The electromagnetic square-root Lagrangian for a configuration."""
    st = cfg.metric.sigma_tilde
    eta = cfg.metric.eta

    def value(tau, z, w):
        w = np.asarray(w, dtype=np.complex128)
        core = st * cfg.m * cfg.c * np.sqrt(st * _sum_ww(cfg.metric, w) + 0j)
        if cfg.q == 0.0 and cfg.A is None:
            return core
        a = cfg.potential(tau, z)
        return core + cfg.q * np.add.reduce(a * w, axis=-1)

    def gradient_w(tau, z, w):
        w = np.asarray(w, dtype=np.complex128)
        g = cfg.m * (eta * w)  # m w_mu, the weak-equation-simplified gradient
        if cfg.q != 0.0 or cfg.A is not None:
            g = g + cfg.q * cfg.potential(tau, z)
        return g

    return Lagrangian(value=value, gradient_w=gradient_w, em=cfg)


def free_particle_lagrangian(m: float = 1.0, c: float = 1.0,
                             metric: Metric = MOSTLY_PLUS) -> Lagrangian:
    return em_lagrangian(EMFieldConfig(q=0.0, m=m, c=c, A=None, metric=metric))


def quadratic_lagrangian(a: float = 1.0, metric: Metric = MOSTLY_PLUS) -> Lagrangian:
    """L = (a/2) sum w^mu w_mu, an unconstrained test Lagrangian."""
    eta = metric.eta

    def value(tau, z, w):
        w = np.asarray(w, dtype=np.complex128)
        return 0.5 * a * _sum_ww(metric, w)

    def gradient_w(tau, z, w):
        return a * (eta * np.asarray(w, dtype=np.complex128))

    return Lagrangian(value=value, gradient_w=gradient_w)


def zero_lagrangian() -> Lagrangian:
    def value(tau, z, w):
        w = np.asarray(w, dtype=np.complex128)
        return np.zeros(w.shape[:-1], dtype=np.complex128) if w.ndim > 1 else 0j

    def gradient_w(tau, z, w):
        return np.zeros(np.asarray(w).shape, dtype=np.complex128)

    return Lagrangian(value=value, gradient_w=gradient_w)


_PRESET_RE = re.compile(r"^\s*([a-z-]+)\s*(?:\(([^)]*)\))?\s*$")


def vector_potential_preset(text: str) -> tuple[Optional[AFn], dict]:
    """Parse a potential preset string into a callable and an echo dict.

    Supported: "zero", "constant(a0,a1,a2,a3)", "linear-electric(E)" where
    the linear-electric potential is A_0 = -E z^1 (analytic continuation of
    a uniform electric field along axis 1), other components zero.
    """
    m = _PRESET_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse potential preset {text!r}")
    name, argtext = m.group(1), m.group(2)
    args: list[float] = []
    if argtext is not None and argtext.strip():
        try:
            args = [float(s) for s in argtext.split(",")]
        except ValueError as exc:
            raise DomainError(f"bad numeric arguments in preset {text!r}") from exc
    if not np.all(np.isfinite(args)):
        raise DomainError(f"preset {text!r} needs finite arguments")
    if name == "zero":
        if args:
            raise DomainError("zero preset takes no arguments")
        return None, {"potential": "zero"}
    if name == "constant":
        if len(args) != 4:
            raise DomainError("constant preset needs 4 components")
        a = np.array(args, dtype=np.complex128)

        def const_potential(tau, z):
            out = np.empty_like(z, dtype=np.complex128)
            out[...] = a
            return out

        return const_potential, {"potential": "constant", "components": args}
    if name == "linear-electric":
        if len(args) != 1:
            raise DomainError("linear-electric preset needs 1 field strength")
        e_field = args[0]

        def linear_potential(tau, z):
            z = np.asarray(z, dtype=np.complex128)
            a = np.zeros(z.shape, dtype=np.complex128)
            a[..., 0] = -e_field * z[..., 1]
            return a

        return linear_potential, {"potential": "linear-electric", "E": e_field}
    raise DomainError(f"unknown potential preset {name!r}")
