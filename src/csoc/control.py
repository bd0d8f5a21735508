"""Stationary optimal controls and the real/imaginary equivalence audit.

The stationarity condition is dL/dw^mu + dJ/dz^mu = 0, four complex equations
solved as a damped Newton iteration over the 8 real unknowns (v, u),
w^mu = v^mu + i u^mu. On convergence the result carries both the complex
residual vector and the real-pair residual vector

    [ Re(dL/dw) + dJ_R/dx ;  -Im(dL/dw) + dJ_R/dy ]

(the real-part condition set written through dL/dv = dL/dw and
dL/du = i dL/dw), related to the complex residual Z by Z = re(Z) - i re(iZ).

equivalence_audit realizes the two-route check: at each probe it solves the
real-part condition set and the imaginary-part condition set independently,
with the field partials taken from separate x- and y-stencils of J_R and J_I
(no Cauchy-Riemann substitution), and asserts that the two roots coincide.
Non-analytic value fields are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AnalyticityError, DomainError, NonConvergenceError
from .spacetime import ComplexFourVector, LOWER, UPPER
from .ccalc import _as_point, _step, analyticity_scan
from .lagrangian import Lagrangian


@dataclass(frozen=True)
class StationarityResult:
    w_star: ComplexFourVector                # upper index
    residual_complex: np.ndarray             # 4 complex, dL/dw + dJ at w_star
    residual_real_pair: np.ndarray           # 8 reals, real-part condition set
    iterations: int
    converged: bool


_K = np.arange(8)
_MAX_ITER = 100       # Newton iterations per solve
_AUDIT_TOL = 1e-8     # the audit's largest passing root disagreement
_SCAN_TOL = 1e-6      # the audit's analyticity-scan tolerance
_SOLVER_TOL = 1e-12   # the audit's Newton tolerance per condition set
_BRANCH_TOL = 1e-10   # |sum w w| / c^2 below which a root is on the branch point


def _newton8(residual_fn: Callable[[np.ndarray], np.ndarray],
             tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton from zero, finite-difference Jacobian, on an 8-real system.

    residual_fn maps thetas (..., 8) to residuals of the same shape, or to
    one (8,) row if it ignores theta; the Jacobian is one (16, 8) call.
    """
    theta = np.zeros(8)
    r = residual_fn(theta)
    norm = float(np.abs(r).max())
    for it in range(1, _MAX_ITER + 1):
        if norm < tol:
            return theta, r, it - 1
        step = _step(np.maximum(1.0, np.abs(theta)))
        shifted = np.tile(theta, (16, 1))
        shifted[_K, _K] += step            # rows 0-7: theta + step_k e_k
        shifted[_K + 8, _K] -= step        # rows 8-15: theta - step_k e_k
        rs = np.broadcast_to(residual_fn(shifted), (16, 8))
        jac = ((rs[:8] - rs[8:]) / (2 * step)[:, None]).T
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"singular Jacobian after {it - 1} iterations",
                                      residual=norm, iterations=it - 1) from exc
        scale = 1.0
        accepted = False
        for _ in range(12):  # step halving on residual increase
            cand = theta + scale * delta
            rc = residual_fn(cand)
            nc = float(np.abs(rc).max())
            if np.isfinite(nc) and (nc <= norm or nc < tol):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise NonConvergenceError(f"damping stalled at residual {norm}",
                                      residual=norm, iterations=it)
        theta, r, norm = cand, rc, nc
    if norm < tol:
        return theta, r, _MAX_ITER
    raise NonConvergenceError(f"no convergence in {_MAX_ITER} iterations, residual {norm}",
                              residual=norm, iterations=_MAX_ITER)


def _theta_to_w(theta: np.ndarray) -> np.ndarray:
    return theta[..., :4] + 1j * theta[..., 4:]


def _dj_lower(dJ) -> np.ndarray:
    if isinstance(dJ, ComplexFourVector):
        if dJ.index != LOWER:
            raise DomainError("dJ must carry a lower index")
        return dJ.components
    dJ = np.asarray(dJ, dtype=np.complex128)
    if dJ.shape != (4,):
        raise DomainError(f"dJ must have 4 components, got shape {dJ.shape}")
    return dJ


def solve_optimal_control(lagrangian: Lagrangian, dJ, tau: float = 0.0, z=None,
                          tol: float = 1e-10) -> StationarityResult:
    """Newton solve of dL/dw + dJ = 0 from w = 0 over the 8 real velocity components."""
    dj = _dj_lower(dJ)
    z = _as_point(np.zeros(4) if z is None else z)

    def residual(theta: np.ndarray) -> np.ndarray:
        g_c = lagrangian.grad(tau, z, _theta_to_w(theta)) + dj
        return np.concatenate([g_c.real, g_c.imag], axis=-1)

    theta, _, iterations = _newton8(residual, tol)
    w = _theta_to_w(theta)
    g_c = lagrangian.grad(tau, z, w) + dj
    real_pair = np.concatenate([g_c.real, -g_c.imag])
    return StationarityResult(
        w_star=ComplexFourVector(w, UPPER),
        residual_complex=g_c,
        residual_real_pair=real_pair,
        iterations=iterations,
        converged=bool(np.abs(g_c).max() < tol),
    )


@dataclass(frozen=True)
class AuditProbe:
    tau: float
    z: np.ndarray
    w_real_set: Optional[np.ndarray]
    w_imag_set: Optional[np.ndarray]
    disagreement: float
    closed_form_disagreement: float
    singular: bool
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    probes: tuple[AuditProbe, ...]
    tol: float
    passed: bool

    @property
    def max_disagreement(self) -> float:
        vals = [p.disagreement for p in self.probes if not p.singular]
        return max(vals) if vals else 0.0

    @property
    def max_closed_form_disagreement(self) -> float:
        vals = [p.closed_form_disagreement for p in self.probes if not p.singular]
        return max(vals) if vals else 0.0

    @property
    def singular_probes(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probes) if p.singular)


def equivalence_audit(lagrangian: Lagrangian, value_field,
                      probes: Sequence[tuple[float, np.ndarray]],
                      h: Optional[float] = None) -> AuditReport:
    """Solve both real-pair condition sets at every probe and compare roots.

    Refuses (AnalyticityError) when the value field fails its analyticity
    scan; the field partials come from that scan's stencils. The audit
    passes when the two roots agree within AuditReport.tol at every probe.
    For the EM Lagrangian (lagrangian.em set) each root is also compared
    with the closed-form control, and probes whose root lands on the
    square-root branch point (sum w^mu w_mu ~ 0) are flagged singular, "no
    interior stationary point", and excluded from the pass criterion. A
    probe where either Newton solve fails is not singular: it fails the
    audit with an infinite disagreement.
    """
    scan = analyticity_scan(value_field, probes, h=h, tol=_SCAN_TOL)
    if not scan.passed:
        worst = scan.worst
        raise AnalyticityError(
            f"value field failed analyticity scan at tau={worst.tau}, z={worst.z}: "
            f"scaled residual {worst.scaled_residual:.3e} >= {_SCAN_TOL:.3e}")

    em = lagrangian.em

    out: list[AuditProbe] = []
    all_ok = True
    for scanned in scan.results:
        tau, z = scanned.tau, scanned.z   # the probe as the scan checked it
        rep = scanned.derivatives
        dx_r, dx_i = rep.d_x.real, rep.d_x.imag
        dy_r, dy_i = rep.d_y.real, rep.d_y.imag

        def real_set(theta: np.ndarray) -> np.ndarray:
            g = lagrangian.grad(tau, z, _theta_to_w(theta))
            return np.concatenate([g.real + dx_r, -g.imag + dy_r], axis=-1)

        def imag_set(theta: np.ndarray) -> np.ndarray:
            g = lagrangian.grad(tau, z, _theta_to_w(theta))
            return np.concatenate([g.imag + dx_i, g.real + dy_i], axis=-1)

        try:
            theta_r, _, _ = _newton8(real_set, _SOLVER_TOL)
            theta_i, _, _ = _newton8(imag_set, _SOLVER_TOL)
        except NonConvergenceError as exc:
            all_ok = False
            out.append(AuditProbe(tau=tau, z=z, w_real_set=None, w_imag_set=None,
                                  disagreement=float("inf"),
                                  closed_form_disagreement=float("inf"),
                                  singular=False,
                                  note=f"stationarity solve failed: {exc}"))
            continue
        w_r, w_i = _theta_to_w(theta_r), _theta_to_w(theta_i)

        cf_dis = 0.0
        if em is not None:
            ww = complex(np.sum(em.metric.eta * w_r * w_r))
            if abs(ww) < _BRANCH_TOL * (em.c * em.c):
                out.append(AuditProbe(tau=tau, z=z, w_real_set=w_r, w_imag_set=w_i,
                                      disagreement=float("nan"),
                                      closed_form_disagreement=float("nan"),
                                      singular=True,
                                      note="no interior stationary point "
                                           "(root at the square-root branch point)"))
                continue
            w_cf = em.stationary_control(tau, z, rep.d_z)
            cf_dis = float(max(np.abs(w_r - w_cf).max(), np.abs(w_i - w_cf).max()))
        disagreement = float(np.abs(w_r - w_i).max())
        ok = disagreement < _AUDIT_TOL
        all_ok = all_ok and ok
        out.append(AuditProbe(tau=tau, z=z, w_real_set=w_r, w_imag_set=w_i,
                              disagreement=disagreement,
                              closed_form_disagreement=cf_dis, singular=False))
    return AuditReport(probes=tuple(out), tol=_AUDIT_TOL, passed=all_ok)
