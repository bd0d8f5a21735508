"""Flat spacetime conventions: diagonal metric, contractions, boosts.

Two sign conventions are supported, diag(-1,+1,+1,+1) with sigma_tilde = -1
(the default) and diag(+1,-1,-1,-1) with sigma_tilde = +1. The metric is
diagonal with unit entries, so the matrix inverse equals the matrix itself and
raising or lowering an index is multiplication by the same diagonal.

Complex coordinates are z^mu = x^mu + i y^mu and complex velocities
w^mu = v^mu + i u^mu. A four-vector is a (4,) complex array with its index
fixed by convention: z and w are upper; dJ, the potential A and the momenta
p and P are lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

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

    @cached_property
    def eta(self) -> np.ndarray:
        """Diagonal entries as a read-only float array, built on first use.
        eta^{mumu} == eta_{mumu} here."""
        eta = np.array(self.diag, dtype=float)
        eta.flags.writeable = False
        return eta


MOSTLY_PLUS = Metric(diag=(-1, 1, 1, 1))
MOSTLY_MINUS = Metric(diag=(1, -1, -1, -1))


def _vector(v) -> np.ndarray:
    """The four components of a four-vector as a (4,) complex array."""
    c = np.asarray(v, dtype=np.complex128)
    if c.shape != (4,):
        raise DomainError(f"expected 4 components, got shape {c.shape}")
    return c


def contract(a, b, metric: Metric = MOSTLY_PLUS) -> complex:
    """sum_mu eta^{mumu} a_mu b_mu, the full contraction of two like-index four-vectors."""
    return complex(np.sum(metric.eta * _vector(a) * _vector(b)))


def weak_equation_residual(w, metric: Metric = MOSTLY_PLUS, c: float = 1.0) -> complex:
    """Residual of the velocity normalization, sum w^mu w_mu - sigma_tilde c^2."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    return contract(w, w, metric) - metric.sigma_tilde * c * c


def boost_matrix(rapidity: float, axis: int) -> np.ndarray:
    """Pure boost mixing the time axis with spatial axis in {1,2,3}."""
    if axis not in (1, 2, 3):
        raise DomainError(f"boost axis must be 1, 2 or 3, got {axis}")
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    if not np.isfinite(ch):
        raise DomainError(f"boost rapidity must be finite with a finite cosh, got {rapidity}")
    lam = np.eye(4)
    lam[0, 0] = ch
    lam[axis, axis] = ch
    lam[0, axis] = -sh
    lam[axis, 0] = -sh
    return lam
