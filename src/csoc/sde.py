"""Euler-Maruyama integration of the paired coordinate SDEs.

State per path is (x^0..x^3, y^0..y^3), advanced by

    x^mu_{t+1} = x^mu_t + v^mu(tau_t, z_t) d_tau + sigma_x^mu dWx^mu_t
    y^mu_{t+1} = y^mu_t + u^mu(tau_t, z_t) d_tau + sigma_y^mu dWy^mu_t

with dWy the bit-exact signed copy of dWx (see wiener). The noise is additive,
so Euler-Maruyama is strong order 1 here.

Policies are Markov feedback controls w(tau, z) = v + iu, supplied as
vectorized callables: policy(tau, z) takes z of shape (n, 4) complex and
returns w of shape (n, 4) complex. Use pointwise_policy to adapt a scalar
per-point function.

One stepper, _euler, moves all paths of every ensemble, one policy call per
step. A path is failed from the step at which its state or its action becomes
non-finite, and its state is NaN from then on: vectorized policies and
Lagrangians receive these NaN rows, per-point callables never see them.

Each path draws its increments from an independent substream derived from
(seed, path index), so ensembles are reproducible regardless of scheduling
and paths can be regenerated in isolation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .wiener import DiffusionSpec, path_generator

PolicyFn = Callable[[float, np.ndarray], np.ndarray]

_CSV_FIELDS = ["path", "step", "tau",
               "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"]

_NAN = complex(np.nan, np.nan)   # the state of a failed path


def constant_policy(w) -> PolicyFn:
    """Policy returning the same complex four-velocity for every path."""
    w = np.asarray(getattr(w, "components", w), dtype=np.complex128)
    if w.shape != (4,):
        raise DomainError(f"constant policy needs 4 components, got {w.shape}")

    def policy(tau: float, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(w, z.shape)

    return policy


def zero_policy() -> PolicyFn:
    return constant_policy(np.zeros(4, dtype=np.complex128))


def linear_policy(matrix) -> PolicyFn:
    """w(tau, z) = matrix @ z, a state-feedback test policy."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (4, 4):
        raise DomainError(f"linear policy needs a 4x4 matrix, got {m.shape}")

    def policy(tau: float, z: np.ndarray) -> np.ndarray:
        return z @ m.T

    return policy


def pointwise_policy(f: Callable[[float, np.ndarray], np.ndarray]) -> PolicyFn:
    """Adapt a per-point callable (tau, z (4,)) -> w (4,) to the batch protocol.
    f is never called on a non-finite point (a failed path); its row of w is NaN."""

    def policy(tau: float, z: np.ndarray) -> np.ndarray:
        w = np.full(z.shape, _NAN)
        for i in np.flatnonzero(np.isfinite(z).all(axis=1)):
            wi = np.asarray(f(tau, z[i]), dtype=np.complex128)
            if wi.shape != (4,):
                raise DomainError(f"policy returned shape {wi.shape} at a point, expected (4,)")
            w[i] = wi
        return w

    return policy


def path_increments(spec: DiffusionSpec, d_tau: float, n_steps: int,
                    seed: int, path: int) -> tuple[np.ndarray, np.ndarray]:
    """All increments for one path, shape (n_steps, 4) each."""
    dWx = path_generator(seed, path).normal(0.0, np.sqrt(d_tau), size=(n_steps, 4))
    return dWx, dWx * spec.sign_copy


def ensemble_increments(spec: DiffusionSpec, d_tau: float, n_steps: int,
                        n_paths: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Increments for the whole ensemble, shape (n_paths, n_steps, 4) each."""
    dWx = np.empty((n_paths, n_steps, 4))
    for p in range(n_paths):
        dWx[p] = path_generator(seed, p).normal(0.0, np.sqrt(d_tau), size=(n_steps, 4))
    return dWx, dWx * spec.sign_copy


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Integrated ensemble. states has shape (n_paths, n_steps+1, 8)."""

    states: np.ndarray
    d_tau: float
    tau0: float
    seed: int
    failed_paths: tuple[int, ...]

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def x(self) -> np.ndarray:
        return self.states[..., 0:4]

    @property
    def y(self) -> np.ndarray:
        return self.states[..., 4:8]

    def z(self, step: Optional[int] = None) -> np.ndarray:
        """Complex coordinates, all steps or one step."""
        s = self.states if step is None else self.states[:, step]
        return s[..., 0:4] + 1j * s[..., 4:8]

    def taus(self) -> np.ndarray:
        return self.tau0 + self.d_tau * np.arange(self.n_steps + 1)

    def to_csv(self, path) -> None:
        """One row per (path, step): path, step, tau, x0..x3, y0..y3.

        Floats are written with 17 significant digits (round-trip exact).
        """
        taus = self.taus()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for p in range(self.n_paths):
                for t in range(self.n_steps + 1):
                    row = [str(p), str(t), "%.17g" % taus[t]]
                    row += ["%.17g" % v for v in self.states[p, t]]
                    writer.writerow(row)


def _check_grid(d_tau: float, n_steps: int, n_paths: int):
    if d_tau <= 0:
        raise DomainError(f"d_tau must be positive, got {d_tau}")
    if n_steps < 1 or n_paths < 1:
        raise DomainError("n_steps and n_paths must be at least 1")


def _initial_state(z0, n_paths: int) -> np.ndarray:
    """Every path at z0: a writable (n_paths, 4) complex array."""
    z = np.asarray(getattr(z0, "components", z0), dtype=np.complex128)
    if z.shape != (4,):
        raise DomainError(f"z0 must have 4 components, got shape {z.shape}")
    return np.broadcast_to(z, (n_paths, 4)).copy()


def _euler(policy: PolicyFn, spec: DiffusionSpec, z: np.ndarray, d_tau: float,
           dWx: np.ndarray, dWy: np.ndarray, tau0: float):
    """The Euler-Maruyama loop: advance every path of z in place.

    Yields (t, tau, w) before each step moves the paths, so the caller sees
    z_t and w_t; afterwards z holds the final state. x + v d_tau + sigma_x dWx
    (and likewise y) keeps the order of operations of the stored states. A
    path whose state turns non-finite is set to NaN and, NaN in NaN out, stays so.
    """
    x, y = z.real, z.imag
    for t in range(dWx.shape[1]):
        tau = tau0 + t * d_tau
        w = np.asarray(policy(tau, z), dtype=np.complex128)
        if w.shape != z.shape:
            raise DomainError(f"policy returned shape {w.shape}, expected {z.shape}")
        yield t, tau, w
        x += w.real * d_tau
        x += spec.sigma_x * dWx[:, t]
        y += w.imag * d_tau
        y += spec.sigma_y * dWy[:, t]
        failed = ~np.isfinite(z).all(axis=1)
        if failed.any():
            z[failed] = _NAN


def integrate_with_increments(policy: PolicyFn, spec: DiffusionSpec, z0,
                              d_tau: float, dWx: np.ndarray, dWy: np.ndarray,
                              tau0: float = 0.0, seed: int = 0) -> TrajectoryEnsemble:
    """Core stepper against externally supplied increments.

    Exposed so refinement studies can integrate coarse and fine grids against
    the same Brownian path (coarse increments as sums of fine ones).
    """
    n_paths, n_steps = dWx.shape[0], dWx.shape[1]
    z = _initial_state(z0, n_paths)
    states = np.empty((n_paths, n_steps + 1, 8))
    for t, _, _ in _euler(policy, spec, z, d_tau, dWx, dWy, tau0):
        states[:, t, 0:4], states[:, t, 4:8] = z.real, z.imag
    states[:, n_steps, 0:4], states[:, n_steps, 4:8] = z.real, z.imag
    states.flags.writeable = False
    failed = tuple(np.flatnonzero(~np.isfinite(z).all(axis=1)).tolist())
    return TrajectoryEnsemble(states=states, d_tau=float(d_tau), tau0=float(tau0),
                              seed=seed, failed_paths=failed)


def integrate(policy: PolicyFn, spec: DiffusionSpec, z0, d_tau: float,
              n_steps: int, n_paths: int, seed: int,
              tau0: float = 0.0) -> TrajectoryEnsemble:
    """Integrate the ensemble forward from a shared initial point."""
    _check_grid(d_tau, n_steps, n_paths)
    dWx, dWy = ensemble_increments(spec, d_tau, n_steps, n_paths, seed)
    return integrate_with_increments(policy, spec, z0, d_tau, dWx, dWy,
                                     tau0=tau0, seed=seed)


def _sample_stats(samples: np.ndarray) -> tuple[complex, float, float]:
    """Sample mean and the standard errors of its real and imaginary parts."""
    n = samples.size
    se = [float(p.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0 for p in (samples.real, samples.imag)]
    return complex(samples.mean()), se[0], se[1]


@dataclass(frozen=True)
class ActionEstimate:
    """Monte Carlo action integral with per-part standard errors."""

    mean: complex
    stderr_re: float
    stderr_im: float
    n_paths: int
    n_failed: int
    valid: bool  # False when more than 0.1% of paths were excluded


def estimate_action(lagrangian, policy: PolicyFn, spec: DiffusionSpec, z0,
                    d_tau: float, n_steps: int, n_paths: int, seed: int,
                    tau0: float = 0.0) -> ActionEstimate:
    """Estimate E[integral of L dtau] along policy-driven paths.

    Ito (left endpoint) quadrature: each step contributes
    L(tau_t, z_t, w_t) d_tau with w_t the same control used for stepping.
    Failed paths, whose state or action turned non-finite, are excluded
    from the estimate and counted; the estimate is marked invalid when they
    exceed 0.1% of the ensemble.
    """
    _check_grid(d_tau, n_steps, n_paths)
    dWx, dWy = ensemble_increments(spec, d_tau, n_steps, n_paths, seed)
    z = _initial_state(z0, n_paths)
    action = np.zeros(n_paths, dtype=np.complex128)
    for _, tau, w in _euler(policy, spec, z, d_tau, dWx, dWy, tau0):
        action += np.asarray(lagrangian.value(tau, z, w), dtype=np.complex128) * d_tau
    good = np.isfinite(z).all(axis=1) & np.isfinite(action)
    if not good.any():
        raise DomainError("all paths failed, no action estimate available")
    n_failed = n_paths - int(good.sum())
    mean, se_re, se_im = _sample_stats(action[good])
    return ActionEstimate(mean=mean, stderr_re=se_re, stderr_im=se_im,
                          n_paths=n_paths, n_failed=n_failed,
                          valid=n_failed <= 0.001 * n_paths)


@dataclass(frozen=True)
class BellmanResidual:
    """J(tau, z) - <L d_tau + J(tau + d_tau, z + dz)> over one Euler step."""

    residual: complex
    stderr_re: float
    stderr_im: float
    n_paths: int


def bellman_consistency(value_field, lagrangian, policy: PolicyFn,
                        spec: DiffusionSpec, tau: float, z0, d_tau: float,
                        n_paths: int, seed: int) -> BellmanResidual:
    """One-step dynamic-programming residual of a candidate value field.

    value_field is a callable (tau, z (4,) complex) -> complex. For the
    optimal policy and a field solving the dynamic program the residual is
    O(d_tau^2) plus sampling error; a suboptimal policy shows up as a
    residual beyond its standard error. A failed path contributes NaN.
    """
    _check_grid(d_tau, 1, n_paths)
    dWx, dWy = ensemble_increments(spec, d_tau, 1, n_paths, seed)
    z = _initial_state(z0, n_paths)
    j0 = complex(value_field(tau, z[0]))
    for _, _, w in _euler(policy, spec, z, d_tau, dWx, dWy, tau):
        lval = np.asarray(lagrangian.value(tau, z, w), dtype=np.complex128)
    j1 = np.full(n_paths, _NAN)
    moved = np.isfinite(z).all(axis=1)
    j1[moved] = [value_field(tau + d_tau, zp) for zp in z[moved]]
    mean, se_re, se_im = _sample_stats(np.broadcast_to(lval, (n_paths,)) * d_tau + j1)
    return BellmanResidual(residual=j0 - mean, stderr_re=se_re, stderr_im=se_im,
                           n_paths=n_paths)
