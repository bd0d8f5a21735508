"""Flat spacetime conventions: diagonal metric, complex four-vectors, contractions.

Two sign conventions are supported, diag(-1,+1,+1,+1) with sigma_tilde = -1
(the default) and diag(+1,-1,-1,-1) with sigma_tilde = +1. The metric is
diagonal with unit entries, so the matrix inverse equals the matrix itself and
raising or lowering an index is multiplication by the same diagonal.

Complex coordinates are z^mu = x^mu + i y^mu and complex velocities
w^mu = v^mu + i u^mu. Index position is tracked explicitly because the
contraction rule depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

UPPER = "upper"
LOWER = "lower"

_ALLOWED_DIAGS = ((-1, 1, 1, 1), (1, -1, -1, -1))


@dataclass(frozen=True)
class Metric:
    """Diagonal flat metric plus the sign convention bound to it.

    diag: the four diagonal entries, (-1,1,1,1) or (1,-1,-1,-1).
    sigma_tilde (derived, not settable): diag[0], so -1 for the former and +1
    for the latter.
    """

    diag: tuple[int, int, int, int] = (-1, 1, 1, 1)

    def __post_init__(self):
        diag = tuple(int(d) for d in self.diag)
        if diag not in _ALLOWED_DIAGS:
            raise DomainError(f"unsupported metric diagonal {self.diag!r}")
        object.__setattr__(self, "diag", diag)

    @property
    def sigma_tilde(self) -> int:
        """Sign of the shell, sum w^mu w_mu = sigma_tilde c^2."""
        return self.diag[0]

    @property
    def eta(self) -> np.ndarray:
        """Diagonal entries as a float array. eta^{mumu} == eta_{mumu} here."""
        return np.array(self.diag, dtype=float)

    def raise_or_lower(self, components: np.ndarray) -> np.ndarray:
        """Flip index position of a 4-component array (same op both ways)."""
        return self.eta * np.asarray(components)


MOSTLY_PLUS = Metric(diag=(-1, 1, 1, 1))
MOSTLY_MINUS = Metric(diag=(1, -1, -1, -1))


@dataclass(frozen=True)
class ComplexFourVector:
    """Four complex components with an explicit index position.

    Components are stored as a read-only complex array; real and imaginary
    parts stay losslessly recoverable through .x and .y.
    """

    components: np.ndarray
    index: str = UPPER

    def __post_init__(self):
        c = np.array(self.components, dtype=np.complex128)
        if c.shape != (4,):
            raise DomainError(f"expected 4 components, got shape {c.shape}")
        if not np.all(np.isfinite(c.view(float))):
            raise DomainError("non-finite component in four-vector")
        c.flags.writeable = False
        object.__setattr__(self, "components", c)
        if self.index not in (UPPER, LOWER):
            raise DomainError(f"index must be 'upper' or 'lower', got {self.index!r}")

    @property
    def x(self) -> np.ndarray:
        return self.components.real.copy()

    @property
    def y(self) -> np.ndarray:
        return self.components.imag.copy()

    def flipped(self, metric: Metric) -> "ComplexFourVector":
        """Index-flipped copy (raise if lower, lower if upper)."""
        other = LOWER if self.index == UPPER else UPPER
        return ComplexFourVector(metric.raise_or_lower(self.components), other)


def _components_and_index(v, default_index: str) -> tuple[np.ndarray, str]:
    if isinstance(v, ComplexFourVector):
        return v.components, v.index
    c = np.asarray(v, dtype=np.complex128)
    if c.shape != (4,):
        raise DomainError(f"expected 4 components, got shape {c.shape}")
    return c, default_index


def _vector(v, index: str = UPPER, metric: Optional[Metric] = None) -> np.ndarray:
    """The 4 complex components of a four-vector with the given index.

    A raw array is taken to carry index. A ComplexFourVector with the other
    index is flipped under metric, and refused when no metric is given.
    """
    c, got = _components_and_index(v, index)
    if got != index:
        if metric is None:
            raise DomainError(f"expected a four-vector with the {index} index, "
                              f"got the {got} index")
        c = metric.raise_or_lower(c)
    return c


def contract(a, b, metric: Metric = MOSTLY_PLUS, *, default_index: str = UPPER) -> complex:
    """Full contraction of two four-vectors under the metric.

    Like index positions insert one factor of eta; an upper-lower pair sums
    directly. Raw arrays are treated as carrying default_index.
    """
    ca, ia = _components_and_index(a, default_index)
    cb, ib = _components_and_index(b, default_index)
    if ia == ib:
        return complex(np.sum(metric.eta * ca * cb))
    return complex(np.sum(ca * cb))


def weak_equation_residual(w, metric: Metric = MOSTLY_PLUS, c: float = 1.0) -> complex:
    """Residual of the velocity normalization, sum w^mu w_mu - sigma_tilde c^2."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    return contract(w, w, metric) - metric.sigma_tilde * c * c


def boost_matrix(rapidity: float, axis: int) -> np.ndarray:
    """Pure boost mixing the time axis with spatial axis in {1,2,3}."""
    if axis not in (1, 2, 3):
        raise DomainError(f"boost axis must be 1, 2 or 3, got {axis}")
    lam = np.eye(4)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    lam[0, 0] = ch
    lam[axis, axis] = ch
    lam[0, axis] = -sh
    lam[axis, 0] = -sh
    return lam


def apply_boost(v, rapidity: float, axis: int) -> ComplexFourVector:
    """Boost an upper-index four-vector; acts componentwise on re and im parts."""
    return ComplexFourVector(boost_matrix(rapidity, axis) @ _vector(v), UPPER)
