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

There is one Newton, _newton8, over R independent 8-real systems at once:
one residual call on (R, 17, 8) for each row's point and the 16 steps of
its Jacobian (the first of them also gives the starting residuals), one
batched solve of (R, 8, 8), and step halving row by row. A row that
converges stops moving, and a row that fails fails alone.
solve_optimal_control is its one-row call; the audit solves the two
condition sets of all N probes as 2N rows, which needs the Lagrangian to
take one tau per row (see lagrangian). Its core, _audit_rows, takes the
value field on (N, 4) rows with an (N,) tau, as ccalc._scan_rows does;
equivalence_audit feeds it a per-point field through ccalc._rows, and the
audit preset of `csoc run` is a rows field that goes to the core directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AnalyticityError, NonConvergenceError
from .spacetime import _vector
from .ccalc import _rows, _scan_rows, _step
from .lagrangian import Lagrangian


@dataclass(frozen=True)
class StationarityResult:
    w_star: np.ndarray                       # 4 complex, upper index, read-only
    residual_complex: np.ndarray             # 4 complex, dL/dw + dJ at w_star
    residual_real_pair: np.ndarray           # 8 reals, real-part condition set
    iterations: int


# the Jacobian's points: row 0 the point itself, rows 1-8 a step up and rows
# 9-16 a step down each axis; adding the signed zeros elsewhere leaves theta,
# which is never -0.0
_SHIFTS = np.concatenate([np.zeros((1, 8)), np.eye(8), -np.eye(8)])
# theta = (v, u) holds w = v + i u, and a residual (Re g, Im g) the complex g:
# _INTERLEAVE orders theta as w's float view, _SPLIT orders g's float view as
# (Re g, Im g), and _REAL_PAIR takes (Re g, Im g) to (Re g, -Im g)
_INTERLEAVE = np.array([0, 4, 1, 5, 2, 6, 3, 7])
_SPLIT = np.array([0, 2, 4, 6, 1, 3, 5, 7])
_REAL_PAIR = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
_MAX_ITER = 100       # Newton iterations per solve
_NEWTON_TOL = 1e-10   # solve_optimal_control's largest residual component at a root
_AUDIT_TOL = 1e-8     # the audit's largest passing root disagreement
_SCAN_TOL = 1e-6      # the audit's analyticity-scan tolerance
_SOLVER_TOL = 1e-12   # the audit's Newton tolerance per condition set
_BRANCH_TOL = 1e-10   # |sum w w| / c^2 below which a root is on the branch point


def _newton8(residual_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], tol: float,
             n_rows: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Damped Newton from zero, finite-difference Jacobian, on n_rows
    independent 8-real systems at once.

    residual_fn(rows, thetas) maps thetas (len(rows), ..., 8) of the given
    rows to a new array of residuals of the same shape. Each iteration
    makes one (A, 17, 8) call for the Jacobians of the A rows still
    iterating, each row's point and its 16 steps, and solves them as one
    (A, 8, 8) batch; the first call also gives the residuals at the start.
    Every row damps on its own and stops once converged. Returns the roots,
    the residuals there, the iterations per row, and a NonConvergenceError
    for each row that failed, by row.
    """
    rows = np.arange(n_rows)
    roots, residuals = np.zeros((n_rows, 8)), np.zeros((n_rows, 8))
    iterations = np.zeros(n_rows, dtype=int)
    failures: dict[int, NonConvergenceError] = {}

    def stepped(ids, thetas):
        """The residuals (A, 17, 8) at each point, then a step up and a step
        down each axis, and the steps taken."""
        step = _step(np.maximum(1.0, np.abs(thetas)))
        return residual_fn(ids, thetas[:, None, :] + _SHIFTS * step[:, None, :]), step

    def accepted(n_trial, n_now):
        return np.isfinite(n_trial) & ((n_trial <= n_now) | (n_trial < tol))

    def fail(i, message, it):
        failures[int(rows[i])] = NonConvergenceError(
            message.format(float(norm[i])), residual=float(norm[i]), iterations=it)

    theta = roots.copy()
    at_steps, step = stepped(rows, theta)
    r = at_steps[:, 0]
    norm = np.maximum.reduce(np.abs(r), axis=1)
    for it in range(1, _MAX_ITER + 1):
        done = norm < tol
        if done.any():
            finished = rows[done]
            roots[finished], residuals[finished], iterations[finished] = theta[done], r[done], it - 1
            keep = ~done
            rows, theta, r, norm = rows[keep], theta[keep], r[keep], norm[keep]
            if not rows.size:
                break
            if at_steps is not None:
                at_steps, step = at_steps[keep], step[keep]
        if at_steps is None:
            at_steps, step = stepped(rows, theta)
        jac = ((at_steps[:, 1:9] - at_steps[:, 9:]) / (2 * step)[:, :, None]).transpose(0, 2, 1)
        delta, singular = _solve(jac, -r)
        if singular is not None:
            for i in np.flatnonzero(singular):
                fail(i, f"singular Jacobian after {it - 1} iterations", it - 1)
            keep = ~singular
            rows, theta, r, norm, delta = rows[keep], theta[keep], r[keep], norm[keep], delta[keep]
            if not rows.size:
                break

        # step halving on residual increase: a row keeps the first of theta +
        # delta, theta + delta/2, ... that does not raise its residual
        cand = theta + delta
        at_steps = None
        rc = residual_fn(rows, cand)
        nc = np.maximum.reduce(np.abs(rc), axis=1)
        ok = accepted(nc, norm)
        if np.count_nonzero(ok) == len(ok):
            theta, r, norm = cand, rc, nc
            continue
        search, scale = np.flatnonzero(~ok), 1.0
        for _ in range(11):
            scale *= 0.5
            trial = theta[search] + scale * delta[search]
            r_trial = residual_fn(rows[search], trial)
            n_trial = np.maximum.reduce(np.abs(r_trial), axis=1)
            hit = accepted(n_trial, norm[search])
            kept = search[hit]
            cand[kept], rc[kept], nc[kept], ok[kept] = trial[hit], r_trial[hit], n_trial[hit], True
            search = search[~hit]
            if not search.size:
                break
        for i in search:
            fail(i, "damping stalled at residual {}", it)
        rows, theta, r, norm = rows[ok], cand[ok], rc[ok], nc[ok]
        if not rows.size:
            break
    else:
        done = norm < tol
        finished = rows[done]
        roots[finished], residuals[finished], iterations[finished] = theta[done], r[done], _MAX_ITER
        for i in np.flatnonzero(~done):
            fail(i, f"no convergence in {_MAX_ITER} iterations, residual {{}}", _MAX_ITER)
    return roots, residuals, iterations, failures


def _solve(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Solutions of the (A, 8, 8) systems by np.linalg.solve, and which of
    them are singular (None when none is). A singular matrix raises
    LinAlgError and spoils the whole batch, so then each system is solved
    on its own."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        delta, singular = np.zeros_like(rhs), np.zeros(len(rhs), dtype=bool)
    for i in range(len(rhs)):
        try:
            delta[i] = np.linalg.solve(jac[i], rhs[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return delta, singular


def _theta_to_w(theta: np.ndarray) -> np.ndarray:
    """w = v + i u for theta = (v, u) along the last axis, each part copied."""
    return theta.take(_INTERLEAVE, axis=-1).view(np.complex128)


def solve_optimal_control(lagrangian: Lagrangian, dJ, tau: float = 0.0,
                          z=None) -> StationarityResult:
    """Newton solve of dL/dw + dJ = 0 from w = 0 over the 8 real velocity components."""
    dj = _vector(dJ)
    z = _vector(np.zeros(4) if z is None else z)

    def residual(rows, theta: np.ndarray) -> np.ndarray:
        g_c = np.add(lagrangian.grad(tau, z, _theta_to_w(theta)), dj, order="C")
        return g_c.view(np.float64).take(_SPLIT, axis=-1)   # (Re, Im)

    roots, residuals, iterations, failures = _newton8(residual, _NEWTON_TOL)
    if failures:
        raise failures[0]
    w = _theta_to_w(roots[0])
    w.flags.writeable = False
    g_c = _theta_to_w(residuals[0])   # dL/dw + dJ at the root, as the solve left it
    real_pair = residuals[0] * _REAL_PAIR   # (Re, -Im), the finite residual's signs flipped
    return StationarityResult(
        w_star=w,
        residual_complex=g_c,
        residual_real_pair=real_pair,
        iterations=int(iterations[0]),
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

    # np.max, unlike the builtin, propagates a NaN disagreement
    @property
    def max_disagreement(self) -> float:
        vals = [p.disagreement for p in self.probes if not p.singular]
        return float(np.max(vals)) if vals else float("inf")

    @property
    def max_closed_form_disagreement(self) -> float:
        vals = [p.closed_form_disagreement for p in self.probes if not p.singular]
        return float(np.max(vals)) if vals else float("inf")

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
    interior stationary point", and excluded from the pass criterion. With
    no probe left to compare the audit fails and both maxima are infinite. A
    probe where either Newton solve fails is not singular: it fails the
    audit with an infinite disagreement.
    """
    return _audit_rows(lagrangian, _rows(value_field), probes, h)


def _audit_rows(lagrangian: Lagrangian, value_field,
                probes: Sequence[tuple[float, np.ndarray]],
                h: Optional[float] = None) -> AuditReport:
    """equivalence_audit of a value field on (N, 4) rows with an (N,) tau,
    its scan made by ccalc._scan_rows."""
    scan = _scan_rows(value_field, probes, h=h, tol=_SCAN_TOL)
    if not scan.passed:
        worst = scan.worst
        raise AnalyticityError(
            f"value field failed analyticity scan at tau={worst.tau}, z={worst.z}: "
            f"scaled residual {worst.scaled_residual:.3e} >= {_SCAN_TOL:.3e}")

    em = lagrangian.em
    n = len(scan.results)
    taus = np.array([p.tau for p in scan.results])   # the probes as the scan checked them
    zs = np.array([p.z for p in scan.results])
    d_x = np.array([p.derivatives.d_x for p in scan.results])
    d_y = np.array([p.derivatives.d_y for p in scan.results])
    # rows 0..n-1 solve the real-part set, rows n..2n-1 the imaginary-part set
    real_rows = np.arange(2 * n) < n
    shift_v = np.concatenate([d_x.real, d_x.imag])   # added to Re g, resp. Im g
    shift_u = np.concatenate([d_y.real, d_y.imag])   # added to -Im g, resp. Re g
    row_tau, row_z = np.concatenate([taus, taus]), np.concatenate([zs, zs])

    def condition_sets(rows, theta):
        lead = (slice(None),) + (None,) * (theta.ndim - 2)   # rows, then theta's extra axes
        g = lagrangian.grad(row_tau[rows][lead], row_z[rows][lead], _theta_to_w(theta))
        real_set = real_rows[rows][lead + (None,)]
        return np.concatenate([np.where(real_set, g.real, g.imag) + shift_v[rows][lead],
                               np.where(real_set, -g.imag, g.real) + shift_u[rows][lead]],
                              axis=-1)

    roots, _, _, failures = _newton8(condition_sets, _SOLVER_TOL, 2 * n)
    w_all = _theta_to_w(roots)
    w_r, w_i = w_all[:n], w_all[n:]
    disagreement = np.abs(w_r - w_i).max(axis=1)
    cf_dis, singular = np.zeros(n), np.zeros(n, dtype=bool)
    if em is not None:
        w_cf = em.stationary_control(taus, zs, d_x)
        cf_dis = np.maximum(np.abs(w_r - w_cf).max(axis=1), np.abs(w_i - w_cf).max(axis=1))
        ww = (em.metric.eta * w_r * w_r).sum(axis=1)
        singular = np.abs(ww) < _BRANCH_TOL * (em.c * em.c)

    out: list[AuditProbe] = []
    for i, scanned in enumerate(scan.results):
        tau, z = scanned.tau, scanned.z
        exc = failures.get(i, failures.get(n + i))
        if exc is not None:
            out.append(AuditProbe(tau, z, None, None, disagreement=float("inf"),
                                  closed_form_disagreement=float("inf"), singular=False,
                                  note=f"stationarity solve failed: {exc}"))
        elif singular[i]:
            out.append(AuditProbe(tau, z, w_r[i], w_i[i], disagreement=float("nan"),
                                  closed_form_disagreement=float("nan"), singular=True,
                                  note="no interior stationary point "
                                       "(root at the square-root branch point)"))
        else:
            out.append(AuditProbe(tau, z, w_r[i], w_i[i], disagreement=float(disagreement[i]),
                                  closed_form_disagreement=float(cf_dis[i]), singular=False))
    # a pass needs a compared probe; a failed solve's infinite disagreement fails
    compared = [p for p in out if not p.singular]
    passed = bool(compared) and all(p.disagreement < _AUDIT_TOL for p in compared)
    return AuditReport(probes=tuple(out), tol=_AUDIT_TOL, passed=passed)
