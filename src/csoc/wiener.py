"""Perfectly correlated Wiener increments for the paired real and imaginary sheets.

The imaginary-sheet increment is a signed copy of the real-sheet one,
dWy^mu = epsilon * eta^{mumu} * dWx^mu, realized bit-exactly by construction
(one Gaussian stream, multiplied by +-1). The complex diffusion coefficient
product is

    sigma^mu sigma^mu = sigma_x^2 - sigma_y^2 + 2i epsilon eta^{mumu} sigma_x sigma_y

per axis; only this product is exposed, never an individual complex factor.
Defaults are natural units, hbar = m = c = 1.

RNG: counter-based Philox (4x64, 10 rounds), one stream per path: path k of a
run draws from the substream keyed by SeedSequence(entropy=seed,
spawn_key=(k,)), a pure function of (seed, k), and the moment table
tabulates paths stepped so. path_generator builds that stream for one path;
_draw_paths, the one draw of an ensemble or of a block of its paths, computes
all their keys in one vectorized pass and re-keys a generator per path,
drawing paths of _SPLIT_STEPS steps or more in contiguous shares on up to 2
threads (numpy fills normals outside the GIL, a re-key holds it); a path's
numbers depend on its key alone, so no split moves a bit. CLI run manifests
record the algorithm as RNG_ALGORITHM.
"""

from __future__ import annotations

import itertools
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .spacetime import Metric, MOSTLY_PLUS

RNG_ALGORITHM = "philox4x64-10 (numpy Philox, SeedSequence keyed)"


def _check_index(value: int, name: str) -> int:
    """A seed or path index as a Python int; DomainError when negative."""
    if (value := operator.index(value)) < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    return value


def path_generator(seed: int, path: int) -> np.random.Generator:
    """Independent substream for one path, derived from (seed, path index)."""
    ss = np.random.SeedSequence(entropy=_check_index(seed, "seed"),
                                spawn_key=(_check_index(path, "path"),))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4   # SeedSequence's default pool size, in 32-bit words


def _substream_keys(seed: int, paths: np.ndarray) -> np.ndarray:
    """Philox keys of SeedSequence(entropy=seed, spawn_key=(k,)) for every path
    index k in paths, shape (len(paths), 2) uint64; DomainError unless 0 <= k < 2**32.

    A uint32 port of SeedSequence's entropy assembly, hashmix/mix pool and
    generate_state(2, uint64), run on arrays over k. Everything stays in
    arrays: uint32 arithmetic wraps there, as the hash needs, where numpy
    scalars would warn on overflow.
    """
    seed = _check_index(seed, "seed")
    n_words = max(_POOL, -(-seed.bit_length() // 32))  # zero-padded to the pool
    words = [(seed >> (32 * i)) & 0xFFFFFFFF for i in range(n_words)]
    paths = np.asarray(paths)
    if paths.size and not (paths.min() >= 0 and paths.max() < 2**32):
        raise DomainError(f"path indices must lie in [0, 2**32), got {paths.min()} .. {paths.max()}")
    entropy = [np.full(paths.shape, w, dtype=np.uint32) for w in words]
    entropy.append(paths.astype(np.uint32))   # the spawn key
    const = np.array(_INIT_A, dtype=np.uint32)

    def hashmix(v):
        v = v ^ const
        const[...] = const * np.uint32(_MULT_A)
        v = v * const
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))
    const[...] = _INIT_B
    state = []
    for v in pool:
        v = v ^ const
        const[...] = const * np.uint32(_MULT_B)
        v = v * const
        state.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


_DRAW_CHUNK = 64   # paths drawn contiguous before one time-major copy
_SPLIT_STEPS = 192  # fewest steps a path's fill needs to outlast a GIL hand-off (2 vCPUs)


def _draw_workers(n_steps: int, n_paths: int) -> int:
    """Threads of one draw: the CPUs this process may run on, at most 2, with a
    chunk of paths each; one for paths too short to outlast the re-keys' GIL."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return 1 if n_steps < _SPLIT_STEPS else max(1, min(cpus, 2, n_paths // _DRAW_CHUNK))


def _draw_share(out, keys, scale: float, lo: int, hi: int, failures: list) -> None:
    """Draw paths lo .. hi-1 of out, appending any failure to failures: one
    Generator, re-keyed per path with counter and buffer zeroed, fills its row of
    a reused (_DRAW_CHUNK, n_steps, 4) buffer, scaled in cache and copied time-major."""
    try:
        bits = np.random.Philox(0)
        rng = np.random.Generator(bits)
        zeros = np.zeros(4, dtype=np.uint64)
        buf = np.empty((min(_DRAW_CHUNK, hi - lo), out.shape[0], 4))
        for p0 in range(lo, hi, _DRAW_CHUNK):
            chunk = buf[:hi - p0]
            for row, key in zip(chunk, keys[p0:]):
                bits.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                              "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
                rng.standard_normal(out=row)
            # 0.0 + scale * z is how rng.normal forms each draw; + 0.0 turns -0.0 into +0.0
            chunk *= scale
            chunk += 0.0
            out[:, p0:p0 + len(chunk)] = chunk.swapaxes(0, 1)
    except BaseException as exc:
        failures.append(exc)


def _draw_paths(out: np.ndarray, d_tau: float, seed: int, first: int = 0) -> np.ndarray:
    """Fill a time-major (n_steps, n, 4) view with the dWx of paths first ..
    first+n-1 and return it: column j is exactly path_generator(seed, first+j)'s
    normal(0.0, sqrt(d_tau), (n_steps, 4)). With all keys computed here,
    _draw_workers(n_steps, n) contiguous shares are drawn at once, the first
    on this thread; every thread is joined before a share's failure is raised."""
    n_paths = out.shape[1]
    keys = _substream_keys(seed, np.arange(first, first + n_paths))
    n, failures, started = _draw_workers(out.shape[0], n_paths), [], []
    shares = [(out, keys, np.sqrt(d_tau), n_paths * i // n, n_paths * (i + 1) // n, failures)
              for i in range(n)]
    try:
        for args in shares[1:]:
            (t := threading.Thread(target=_draw_share, args=args)).start()
            started.append(t)
        _draw_share(*shares[0])
    finally:
        for t in started:
            t.join()
    if failures:
        raise failures[0]
    return out


def _sigma_array(sigma, name: str) -> np.ndarray:
    a = np.asarray(sigma, dtype=float)
    if a.shape == ():
        a = np.full(4, float(a))
    if a.shape != (4,):
        raise DomainError(f"{name} must have 4 entries, got shape {a.shape}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise DomainError(f"{name} entries must be finite and nonnegative")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiffusionSpec:
    """Per-axis diffusion amplitudes for the two sheets plus the correlation sign.

    sigma_x, sigma_y: nonnegative per-axis amplitudes (scalars broadcast).
    epsilon: +1 or -1, the sheet correlation sign.
    """

    sigma_x: np.ndarray = field(default=1.0)
    sigma_y: np.ndarray = field(default=1.0)
    epsilon: int = 1
    metric: Metric = MOSTLY_PLUS

    def __post_init__(self):
        object.__setattr__(self, "sigma_x", _sigma_array(self.sigma_x, "sigma_x"))
        object.__setattr__(self, "sigma_y", _sigma_array(self.sigma_y, "sigma_y"))
        if self.epsilon not in (1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {self.epsilon!r}")

    @classmethod
    def natural(cls, hbar: float = 1.0, m: float = 1.0, epsilon: int = 1,
                metric: Metric = MOSTLY_PLUS) -> "DiffusionSpec":
        """sigma_x = sigma_y = sqrt(hbar/m) on every axis."""
        if hbar <= 0 or m <= 0:
            raise DomainError("hbar and m must be positive")
        s = float(np.sqrt(hbar / m))
        return cls(sigma_x=s, sigma_y=s, epsilon=epsilon, metric=metric)

    @property
    def sign_copy(self) -> np.ndarray:
        """The per-axis factor epsilon * eta^{mumu} mapping dWx to dWy."""
        return self.epsilon * self.metric.eta


def complex_sigma_squared(spec: DiffusionSpec) -> np.ndarray:
    """Per-axis product sigma^mu sigma^mu (4 complex values)."""
    sx, sy = spec.sigma_x, spec.sigma_y
    # epsilon * eta, not sign_copy: the coefficient stays independent of the draw
    return sx * sx - sy * sy + 2j * spec.epsilon * spec.metric.eta * sx * sy


def _check_d_tau(d_tau: float) -> None:
    if not 0 < d_tau < np.inf:
        raise DomainError(f"d_tau must be finite and positive, got {d_tau}")


@dataclass(frozen=True)
class MomentLine:
    """One estimated moment against its target."""

    name: str
    estimate: float
    target: float
    stderr: float
    zscore: float
    flagged: bool


@dataclass(frozen=True)
class MomentReport:
    lines: tuple[MomentLine, ...]
    n: int
    d_tau: float
    z_max: float

    @property
    def n_flagged(self) -> int:
        return sum(1 for ln in self.lines if ln.flagged)

    @property
    def worst(self) -> MomentLine:
        """The line of largest |z-score|, the first of them, or the first NaN one."""
        return self.lines[int(np.argmax([abs(ln.zscore) for ln in self.lines]))]

    @property
    def passed(self) -> bool:
        return self.n_flagged == 0


def _zscore(estimate: float, target: float, stderr: float) -> float:
    if stderr == 0.0:
        return 0.0 if estimate == target else float("inf")
    return (estimate - target) / stderr


_Z_MAX = 5.0   # the largest |z-score| of an unflagged moment line
_ROUNDOFF = float(np.finfo(float).eps)   # a state difference's error per unit of state
_TABLE_STEPS = 200   # steps of each path whose differences the moment table takes
_BATCH = 2**13       # differences folded into the running moments at once
_ROWS = [f"dx{mu}" for mu in range(4)] + [f"dy{mu}" for mu in range(4)]
# the second-moment lines as pairs of rows: dx dx, dy dy, then dx dy
_PAIRS = ([(mu, nu) for mu in range(4) for nu in range(mu, 4)]
          + [(4 + mu, 4 + nu) for mu in range(4) for nu in range(mu, 4)]
          + [(mu, 4 + nu) for mu in range(4) for nu in range(4)])


def _fold(acc: list, block: np.ndarray) -> None:
    """Fold a batch of differences, (8, m) rows dx^0..dx^3, dy^0..dy^3, into
    acc = [count, mean, M2] of each line (M2: sum of squared deviations) by
    the pairwise update of Chan, Golub and LeVeque (1979); a product line's
    part comes from the batch's centered co-moments (Pebay, SAND2008-6212)."""
    m, (i, j) = block.shape[1], np.array(_PAIRS).T
    mu = np.add.reduce(block, axis=1) / m
    block -= mu[:, None]
    sq = block * block
    s, t, q = block @ block.T, block @ sq.T, sq @ sq.T   # sums of a a, a a^2, a^2 a^2
    # x_i x_j - its mean = (a_i a_j - c / m) + mu_i a_j + mu_j a_i, as sum a = 0
    c = s[i, j]
    mean = np.concatenate([mu, mu[i] * mu[j] + c / m])
    m2 = np.concatenate([s.diagonal(), q[i, j] - c * c / m + 2 * (mu[i] * t[i, j] + mu[j] * t[j, i])
                         + mu[i] ** 2 * s[j, j] + mu[j] ** 2 * s[i, i] + 2 * mu[i] * mu[j] * c])
    count, total, delta = acc[0], acc[0] + m, mean - acc[1]
    acc[:] = (total, acc[1] + delta * (m / total),
              acc[2] + m2 + delta * delta * (count * m / total))


def moment_check(spec: DiffusionSpec, v: Sequence[float], u: Sequence[float],
                 d_tau: float, n: int, seed: int) -> MomentReport:
    """Estimate all first and second increment moments and flag outliers.

    Targets are the moments of an Euler increment under the constant drift:
    <dx^mu> = v^mu d_tau, <dy^mu> = u^mu d_tau, and each second moment the
    product of its two means plus the covariance: sigma^2 d_tau on the
    diagonal of <dx dx> and <dy dy>, epsilon eta^{mumu} sigma_x sigma_y d_tau
    on that of <dx dy>, 0 off them. Standard errors are sample standard
    deviations divided by sqrt(n), floored at the samples' roundoff, all a
    line without spread (a noiseless sheet under drift) reads: _ROUNDOFF P_r
    for d_r, _ROUNDOFF (rms_i P_j + rms_j P_i) for d_i d_j, with P the
    largest |coordinate| the states reach and rms that of a difference. A
    line is flagged unless |z| <= _Z_MAX, so a NaN z-score is flagged.

    The samples are the increments the stepper takes: the first n state
    differences z_{t+1} - z_t, path by path, of ceil(n / _TABLE_STEPS) paths
    from z0 = 0 under constant_policy(v + iu), stepped in sde._path_blocks.
    They stream through one (8, _BATCH) batch, folded (_fold) before a step
    overfills it, so the table holds one path block's dWx and one batch.
    """
    from . import sde
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != (4,) or u.shape != (4,):
        raise DomainError("v and u must have 4 entries each")
    if n < 10_000:
        raise DomainError(f"n must be at least 10000 for stable moments, got {n}")
    _check_d_tau(d_tau)
    z = np.zeros((-(-n // _TABLE_STEPS), 4), dtype=np.complex128)
    batch = np.empty((len(_ROWS), _BATCH))
    coords = batch.reshape(2, 4, _BATCH)   # dx^mu, then dy^mu
    acc, fill = [0, 0.0, 0.0], 0
    peak = np.zeros(8)   # the largest |x^mu|, |y^mu| of a state after a tabulated step
    policy = sde.constant_policy(v + 1j * u)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, steps in sde._path_blocks(policy, spec, z, d_tau, _TABLE_STEPS, seed, 0.0):
            now = z[rows].view(np.float64)   # x^0, y^0, x^1, y^1, ... of each path
            before, top, low = np.empty(now.shape), np.zeros(now.shape), np.zeros(now.shape)
            # each step yields z_t before it moves the paths; t = _TABLE_STEPS ends them
            for t, *_ in itertools.chain(steps, [(_TABLE_STEPS,)]):
                if t:   # batch step t-1's differences of the paths among the first n
                    k = min(rows.stop, -(-(n - t + 1) // _TABLE_STEPS)) - rows.start
                    if fill + k > _BATCH:
                        _fold(acc, batch[:, :fill])
                        fill = 0
                    diff = np.subtract(now[:k], before[:k], out=before[:k])
                    coords[..., fill:fill + k] = diff.reshape(k, 4, 2).T
                    fill += k
                    np.maximum(top[:k], now[:k], out=top[:k])   # each path's extremes
                    np.minimum(low[:k], now[:k], out=low[:k])
                np.copyto(before, now)
            np.maximum(peak, np.maximum(top.max(axis=0), -low.min(axis=0)), out=peak)
        _fold(acc, batch[:, :fill])
        _, mean, m2 = acc
        (i, j), p = np.array(_PAIRS).T, peak.reshape(4, 2).T.ravel()
        rms = np.sqrt(np.maximum(mean[8 + np.flatnonzero(i == j)], 0.0))   # the d_r d_r lines
        floors = _ROUNDOFF * np.concatenate([p, rms[i] * p[j] + rms[j] * p[i]])
    sx, sy = spec.sigma_x, spec.sigma_y
    first = np.concatenate([v, u]) * d_tau
    cov = np.diag(np.concatenate([sx * sx, sy * sy]))
    # epsilon * eta, not sign_copy: a target that moved with the draw could not flag it
    cov[range(4), range(4, 8)] = spec.epsilon * spec.metric.eta * sx * sy
    targets = [*first, *(cov[i, j] * d_tau + first[i] * first[j] for i, j in _PAIRS)]
    names = _ROWS + [_ROWS[i] + _ROWS[j] for i, j in _PAIRS]
    lines = []
    for name, est, sq, target, floor in zip(names, mean.tolist(), m2.tolist(), targets,
                                            floors.tolist()):
        se = max(float(np.sqrt(sq / (n - 1)) / np.sqrt(n)), floor)
        z_line = _zscore(est, float(target), se)
        lines.append(MomentLine(name, est, float(target), se, z_line, not abs(z_line) <= _Z_MAX))
    return MomentReport(lines=tuple(lines), n=n, d_tau=float(d_tau), z_max=_Z_MAX)
