"""Perfectly correlated Wiener increments for the paired real and imaginary sheets.

The imaginary-sheet increment is a signed copy of the real-sheet one,
dWy^mu = epsilon * eta^{mumu} * dWx^mu, realized bit-exactly by construction
(one Gaussian stream, multiplied by +-1). The complex diffusion coefficient
product is

    sigma^mu sigma^mu = sigma_x^2 - sigma_y^2 + 2i epsilon eta^{mumu} sigma_x sigma_y

per axis; only this product is exposed, never an individual complex factor.
Defaults are natural units, hbar = m = c = 1.

RNG: counter-based Philox (4x64, 10 rounds) seeded through numpy SeedSequence.
Batch sampling uses SeedSequence(seed); ensemble integration elsewhere draws
path k from the substream keyed by SeedSequence(entropy=seed, spawn_key=(k,)),
a pure function of (seed, k). path_generator builds that stream for one path;
_draw_paths, the one draw of an ensemble or of a block of its paths, computes
all their keys in one vectorized pass and re-keys a generator per path,
drawing paths of _SPLIT_STEPS steps or more in contiguous shares on up to 2
threads (numpy fills normals outside the GIL, a re-key holds it); a path's
numbers depend on its key alone, so no split moves a bit. CLI run manifests
record the algorithm as RNG_ALGORITHM.
"""

from __future__ import annotations

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


def generator(seed: int) -> np.random.Generator:
    """Deterministic generator for a flat batch."""
    seed = _check_index(seed, "seed")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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


def sample_increments(spec: DiffusionSpec, d_tau: float, n: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n paired Wiener increments (dWx, dWy), each (n, 4), over one step.

    dWx^mu ~ N(0, d_tau) i.i.d. per axis; dWy^mu = epsilon eta^{mumu} dWx^mu
    exactly (sign copy of the same floats). Both arrays are read-only.
    """
    _check_d_tau(d_tau)
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    rng = generator(seed)
    dWx = rng.normal(0.0, np.sqrt(d_tau), size=(n, 4))
    dWy = dWx * spec.sign_copy  # multiplication by +-1 is exact
    dWx.flags.writeable = False
    dWy.flags.writeable = False
    return dWx, dWy


@dataclass(frozen=True)
class MomentLine:
    """One estimated moment against its order-d_tau target."""

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


def moment_check(spec: DiffusionSpec, v: Sequence[float], u: Sequence[float],
                 d_tau: float, n: int, seed: int) -> MomentReport:
    """Estimate all first and second increment moments and flag outliers.

    Targets are the order-d_tau values: <dx^mu> = v^mu d_tau,
    <dy^mu> = u^mu d_tau, <dx dx> and <dy dy> diagonal sigma^2 d_tau
    (off-diagonal 0), and <dx^mu dy^nu> = epsilon eta^{mumu} sigma_x sigma_y
    d_tau on the diagonal (0 off it). Standard errors are sample standard
    deviations over the batch divided by sqrt(n); a line is flagged unless
    |z| <= _Z_MAX, so a NaN z-score is flagged.

    The samples are those of sample_increments(spec, d_tau, n, seed), held
    in one (9, n) float64 block, 72 MB at 1e6 samples, half of what a
    separate draw, sign copy, per-axis tables and per-line temporaries take:
    rows 0-3 are dx, rows 4-7 dy, and row 8 holds each line's product and
    deviations. dy is the sign copy of the raw draw, formed before dx is
    scaled, so each sheet carries its own amplitude only. Each line sums
    and divides as ndarray.mean() and ndarray.std(ddof=1) do, in numpy's
    order, so every estimate and standard error keeps its bits.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != (4,) or u.shape != (4,):
        raise DomainError("v and u must have 4 entries each")
    if n < 10_000:
        raise DomainError(f"n must be at least 10000 for stable moments, got {n}")
    _check_d_tau(d_tau)
    rng = generator(seed)
    block = np.empty((9, n))
    dx, dy, scratch = block[0:4], block[4:8], block[8]
    # the (n, 4) draw lands in dy's rows; 0.0 + sqrt(d_tau) z is how
    # rng.normal forms dWx, and the + 0.0 turns a -0.0 into +0.0
    draw = dy.reshape(n, 4)
    rng.standard_normal(out=draw)
    draw *= np.sqrt(d_tau)
    draw += 0.0
    dx[...] = draw.T
    # per-axis rows: dy[mu] is sigma_y^mu dWy^mu + u^mu d_tau with the exact
    # dWy^mu = epsilon eta^{mumu} dWx^mu, dx[mu] is sigma_x^mu dWx^mu + v^mu d_tau
    np.multiply(dx, spec.sign_copy[:, None], out=dy)
    dx *= spec.sigma_x[:, None]
    dx += (v * d_tau)[:, None]
    dy *= spec.sigma_y[:, None]
    dy += (u * d_tau)[:, None]

    lines: list[MomentLine] = []

    def add(name: str, samples: np.ndarray, target: float):
        mean = np.add.reduce(samples) / n
        np.subtract(samples, mean, out=scratch)
        np.square(scratch, out=scratch)
        se = float(np.sqrt(np.add.reduce(scratch) / (n - 1)) / np.sqrt(n))
        est = float(mean)
        z = _zscore(est, target, se)
        lines.append(MomentLine(name, est, float(target), se, z, not abs(z) <= _Z_MAX))

    for mu in range(4):
        add(f"dx{mu}", dx[mu], v[mu] * d_tau)
    for mu in range(4):
        add(f"dy{mu}", dy[mu], u[mu] * d_tau)
    sx, sy = spec.sigma_x, spec.sigma_y
    eta = spec.metric.eta
    for mu in range(4):
        for nu in range(mu, 4):
            target = sx[mu] * sx[mu] * d_tau if mu == nu else 0.0
            add(f"dx{mu}dx{nu}", np.multiply(dx[mu], dx[nu], out=scratch), target)
    for mu in range(4):
        for nu in range(mu, 4):
            target = sy[mu] * sy[mu] * d_tau if mu == nu else 0.0
            add(f"dy{mu}dy{nu}", np.multiply(dy[mu], dy[nu], out=scratch), target)
    for mu in range(4):
        for nu in range(4):
            # epsilon * eta, not sign_copy: a target that moved with the draw could not flag it
            target = spec.epsilon * eta[mu] * sx[mu] * sy[mu] * d_tau if mu == nu else 0.0
            add(f"dx{mu}dy{nu}", np.multiply(dx[mu], dy[nu], out=scratch), target)

    return MomentReport(lines=tuple(lines), n=n, d_tau=float(d_tau), z_max=_Z_MAX)
