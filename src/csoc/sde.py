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

One stepper, _euler, moves all paths of an ensemble or of a path block, one
policy call per step. A path is failed from the step at which its state or
its action becomes non-finite, and its state is NaN from then on: vectorized
policies and Lagrangians receive these NaN rows, per-point callables never
see them. The stepping runs with numpy's overflow and invalid warnings off,
so a path that overflows is counted as failed, not warned about.

Each path draws its increments from an independent substream keyed by
(seed, path index) alone, so an ensemble is reproducible, any path can be
regenerated alone (path_increments), and wiener._draw_paths, the one draw,
can split the paths into shares on up to 2 threads without moving a bit.

Arrays are time-major: trajectories are stored in one (n_steps+1, n_paths, 8)
buffer, so each step reads and writes contiguous slabs; TrajectoryEnsemble.states
is an (n_paths, ...) view of it, not C-contiguous. Callers draw or supply dWx
alone, into the states it drives: step t's dWx is one contiguous
(n_paths, 4) block at the head of slab t+1, its first 4 * n_paths floats,
which step t reads before storing z_{t+1} over it, so a run peaks at about
its states buffer. Each step adds its drift, then its noise, to the float
view of the complex state through one (n, 4) complex scratch, made after the
caller's turn and freed before the next policy call, so it is never held
while a policy or Lagrangian runs.
estimate_action and bellman_consistency store no states: their _run_paths
steps the paths in max(1, n_paths // per_block) near-equal contiguous
blocks, per_block = min(2**16, max(2, 2**23 // (n_steps * 32))) being the
paths whose dWx fill 8 MiB, capped at 2**16 paths so that at few steps the
block-wide temporaries (substream keys, policy output, Lagrangian terms) stay
bounded too. Each block is drawn into one reused (n_steps, block, 4) dWx
buffer and steps its rows of the final state and the action in place. A
block holds per_block to 2 * per_block - 1 paths, or all n_paths when fewer,
so none holds a single path unless n_paths == 1, and a run holds under 16 MiB
of dWx (for n_steps <= 2**17) plus 80 bytes a path. dWy is never stored:
_euler forms each step's slice as the signed copy of dWx's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .spacetime import _vector
from .wiener import DiffusionSpec, _check_d_tau, _draw_paths, path_generator

PolicyFn = Callable[[float, np.ndarray], np.ndarray]

_CSV_FIELDS = ["path", "step", "tau",
               "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"]
_CSV_ROW = "%d,%d" + ",%.17g" * 9 + "\r\n"

_NAN = complex(np.nan, np.nan)   # the state of a failed path
_BLOCK_BYTES = 2**23              # dWx bytes that set per_block (module docstring)
_BLOCK_PATHS = 2**16              # the most paths per_block may be, whatever n_steps is


def constant_policy(w) -> PolicyFn:
    """Policy returning the same complex four-velocity for every path."""
    w = _vector(w)

    def policy(tau: float, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(w, z.shape)

    return policy


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


def path_increments(d_tau: float, n_steps: int, seed: int, path: int) -> np.ndarray:
    """The real-sheet increments dWx of one path, shape (n_steps, 4)."""
    _check_grid(d_tau, n_steps, 1)
    return path_generator(seed, path).normal(0.0, np.sqrt(d_tau), size=(n_steps, 4))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Integrated ensemble. states has shape (n_paths, n_steps+1, 8): a
    read-only view of a time-major (n_steps+1, n_paths, 8) buffer."""

    states: np.ndarray
    d_tau: float
    tau0: float
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

        Floats are written with 17 significant digits (round-trip exact), and
        rows end in CRLF, as the csv module writes them.
        """
        taus = self.taus().tolist()
        lines = [",".join(_CSV_FIELDS) + "\r\n"]
        for p, path_states in enumerate(self.states):
            lines += [_CSV_ROW % (p, t, tau, *row)
                      for t, (tau, row) in enumerate(zip(taus, path_states.tolist()))]
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))


def _check_grid(d_tau: float, n_steps: int, n_paths: int, tau0: float = 0.0):
    _check_d_tau(d_tau)
    if n_steps < 1 or n_paths < 1:
        raise DomainError("n_steps and n_paths must be at least 1")
    if not np.isfinite(tau0):
        raise DomainError(f"the start time must be finite, got {tau0}")
    if not math.isfinite(float(tau0) + n_steps * float(d_tau)):
        raise DomainError(f"the horizon tau0 + n_steps * d_tau must be finite, "
                          f"got {tau0} + {n_steps} * {d_tau}")


def _initial_state(z0, n_paths: int) -> np.ndarray:
    """Every path at z0: a writable (n_paths, 4) complex array."""
    return np.broadcast_to(_vector(z0), (n_paths, 4)).copy()


def _euler(policy: PolicyFn, spec: DiffusionSpec, z: np.ndarray, d_tau: float,
           dW: np.ndarray, tau0: float):
    """The Euler-Maruyama loop: advance every path of z in place.

    dW is the time-major dWx; each step's dWy is its slice's signed copy. Yields
    (t, tau, w) before each step moves the paths, so the caller sees z_t and
    w_t; afterwards z holds the final state. Each step adds w d_tau, then
    sigma dW, to the float view of z in two whole-array adds through one
    complex scratch, so x + v d_tau + sigma_x dWx (and likewise y) keeps the
    order of operations of the stored states, and w is only read. A path
    whose state turns non-finite is set to NaN and, NaN in NaN out, stays so.
    """
    zf = z.view(np.float64)   # x^0, y^0, x^1, y^1, ... of each path
    # times +-1 is exact, so dx * sigma_y has the bits of sigma_y * (dx * sign)
    sigma_y = spec.sigma_y * spec.sign_copy
    for t, dx in enumerate(dW):
        tau = tau0 + t * d_tau
        w = np.asarray(policy(tau, z), dtype=np.complex128)
        if w.shape != z.shape:
            raise DomainError(f"policy returned shape {w.shape}, expected {z.shape}")
        yield t, tau, w
        step = w.copy()   # C order, as w may be broadcast, strided or read-only
        step_f = step.view(np.float64)
        step_f *= d_tau
        zf += step_f
        np.multiply(dx, spec.sigma_x, out=step.real)
        np.multiply(dx, sigma_y, out=step.imag)
        zf += step_f
        del step, step_f
        if not np.isfinite(z).all():  # the row test costs ~4x this one
            z[~np.isfinite(z).all(axis=1)] = _NAN


def _increment_slots(states: np.ndarray) -> np.ndarray:
    """The (n_steps, n_paths, 4) view of states that holds dWx: step t's
    increments are the contiguous head block of slab t+1, its first n_paths * 4
    floats, where z_{t+1} is stored over them once step t has read them."""
    n_steps, n_paths = states.shape[0] - 1, states.shape[1]
    return states[1:].reshape(n_steps, 2, n_paths, 4)[:, 0]


def _integrate(policy: PolicyFn, spec: DiffusionSpec, z0, d_tau: float,
               states: np.ndarray, tau0: float) -> TrajectoryEnsemble:
    """Run _euler over the dWx in _increment_slots(states), storing every state
    time-major in the (n_steps+1, n_paths, 8) buffer states. Step t stores z_t
    before it moves the paths, so its dWx may sit in states[t+1] until then."""
    n_steps, n_paths = states.shape[0] - 1, states.shape[1]
    z = _initial_state(z0, n_paths)
    # each slab as (n_paths, 2, 4) sheets, z as (n_paths, 2, 4) real/imag pairs
    slabs = states.reshape(n_steps + 1, n_paths, 2, 4)
    pairs = z.view(np.float64).reshape(n_paths, 4, 2).swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, _, _ in _euler(policy, spec, z, d_tau, _increment_slots(states), tau0):
            slabs[t] = pairs
    slabs[n_steps] = pairs
    states.flags.writeable = False
    failed = tuple(np.flatnonzero(~np.isfinite(z).all(axis=1)).tolist())
    return TrajectoryEnsemble(states=states.swapaxes(0, 1), d_tau=float(d_tau),
                              tau0=float(tau0), failed_paths=failed)


def integrate_with_increments(policy: PolicyFn, spec: DiffusionSpec, z0,
                              d_tau: float, dWx: np.ndarray,
                              tau0: float = 0.0) -> TrajectoryEnsemble:
    """integrate against supplied real increments dWx, (n_paths, n_steps, 4).

    Exposed so refinement studies can integrate coarse and fine grids against
    the same Brownian path (coarse increments as sums of fine ones), and so
    one path can be integrated alone from its path_increments.
    """
    dWx = np.asarray(dWx)
    if np.iscomplexobj(dWx) or dWx.ndim != 3 or dWx.shape[2] != 4:
        raise DomainError(f"dWx must be a real (n_paths, n_steps, 4) array, "
                          f"got {dWx.dtype} of shape {dWx.shape}")
    n_paths, n_steps = dWx.shape[0], dWx.shape[1]
    _check_grid(d_tau, n_steps, n_paths, tau0)
    states = np.empty((n_steps + 1, n_paths, 8))
    _increment_slots(states)[...] = dWx.swapaxes(0, 1)
    return _integrate(policy, spec, z0, d_tau, states, tau0)


def integrate(policy: PolicyFn, spec: DiffusionSpec, z0, d_tau: float,
              n_steps: int, n_paths: int, seed: int,
              tau0: float = 0.0) -> TrajectoryEnsemble:
    """Integrate the ensemble forward from a shared initial point."""
    _check_grid(d_tau, n_steps, n_paths, tau0)
    states = np.empty((n_steps + 1, n_paths, 8))
    _draw_paths(_increment_slots(states), d_tau, seed)
    return _integrate(policy, spec, z0, d_tau, states, tau0)


def _run_paths(lagrangian, policy: PolicyFn, spec: DiffusionSpec, z0, d_tau: float, n_steps: int,
               n_paths: int, seed: int, tau0: float) -> tuple[np.ndarray, np.ndarray]:
    """Each path's final state, (n_paths, 4), and action, (n_paths,), from z0 at
    tau0, by Ito (left endpoint) quadrature: each step adds L(tau_t, z_t, w_t)
    d_tau with w_t the same control used for stepping. The paths run in the
    contiguous blocks of the module docstring, one reused dWx buffer for all."""
    _check_grid(d_tau, n_steps, n_paths, tau0)
    per_block = min(_BLOCK_PATHS, max(2, _BLOCK_BYTES // (n_steps * 32)))
    n_blocks = max(1, n_paths // per_block)
    edges = [n_paths * b // n_blocks for b in range(n_blocks + 1)]
    dW = np.empty((n_steps, -(-n_paths // n_blocks), 4))
    z = _initial_state(z0, n_paths)
    action = np.zeros(n_paths, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, p1 in zip(edges, edges[1:]):
            zb, ab = z[p0:p1], action[p0:p1]
            dWb = _draw_paths(dW[:, :p1 - p0], d_tau, seed, first=p0)
            for _, tau, w in _euler(policy, spec, zb, d_tau, dWb, tau0):
                value = np.asarray(lagrangian.value(tau, zb, w), dtype=np.complex128)
                if value.shape not in ((), ab.shape):
                    raise DomainError(f"lagrangian returned shape {value.shape}, "
                                      f"expected () or {ab.shape}")
                ab += value * d_tau
            del w   # the block's last control, not kept through the next draw
    return z, action


def _survivor_stats(samples: np.ndarray, good: np.ndarray, what: str) -> tuple[complex, dict]:
    """The mean of the samples of the paths marked good, and the fields an
    ensemble result reports with it: the standard errors of its real and
    imaginary parts, n_paths, n_failed, and valid, false when more than 0.1%
    of the paths failed or when the mean or a standard error overflowed.
    Raises DomainError when every path failed."""
    if not good.any():
        raise DomainError(f"all paths failed, no {what} available")
    n_paths, kept = good.size, samples[good]
    n_failed = n_paths - kept.size
    with np.errstate(over="ignore", invalid="ignore"):
        se_re, se_im = (float(p.std(ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
                        for p in (kept.real, kept.imag))
        mean = complex(kept.mean())
    finite = all(map(math.isfinite, (mean.real, mean.imag, se_re, se_im)))
    return mean, dict(stderr_re=se_re, stderr_im=se_im, n_paths=n_paths, n_failed=n_failed,
                      valid=finite and n_failed <= 0.001 * n_paths)


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
    """Estimate E[integral of L dtau] along policy-driven paths (Ito quadrature).

    Failed paths, whose state or action turned non-finite, are excluded
    from the estimate and counted; the estimate is marked invalid when they
    exceed 0.1% of the ensemble.
    """
    z, action = _run_paths(lagrangian, policy, spec, z0, d_tau, n_steps, n_paths, seed, tau0)
    good = np.isfinite(z).all(axis=1) & np.isfinite(action)
    mean, rest = _survivor_stats(action, good, "action estimate")
    return ActionEstimate(mean=mean, **rest)


@dataclass(frozen=True)
class BellmanResidual:
    """J(tau, z) - <L d_tau + J(tau + d_tau, z + dz)> over one Euler step."""

    residual: complex
    stderr_re: float
    stderr_im: float
    n_paths: int
    n_failed: int
    valid: bool  # False when more than 0.1% of paths were excluded


def bellman_consistency(value_field, lagrangian, policy: PolicyFn,
                        spec: DiffusionSpec, tau: float, z0, d_tau: float,
                        n_paths: int, seed: int) -> BellmanResidual:
    """One-step dynamic-programming residual of a candidate value field.

    value_field is a callable (tau, z (4,) complex) -> complex. For the
    optimal policy and a field solving the dynamic program the residual is
    O(d_tau^2) plus sampling error; a suboptimal policy shows up as a
    residual beyond its standard error. Failed paths, whose state or sample
    turned non-finite, are excluded from the residual and counted; the
    residual is marked invalid when they exceed 0.1% of the ensemble, since
    the surviving paths are then a biased sample.
    """
    z, action = _run_paths(lagrangian, policy, spec, z0, d_tau, 1, n_paths, seed, tau)
    j0 = complex(value_field(tau, _vector(z0)))
    j1 = np.full(n_paths, _NAN)
    moved = np.isfinite(z).all(axis=1)
    j1[moved] = [value_field(tau + d_tau, zp) for zp in z[moved]]
    samples = action + j1
    mean, rest = _survivor_stats(samples, np.isfinite(samples), "Bellman residual")
    return BellmanResidual(residual=j0 - mean, **rest)
