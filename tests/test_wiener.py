"""Paired Wiener increments: sign-copy rule, complex variance, moment targets."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from csoc import sde, wiener
from csoc.errors import DomainError
from csoc.lagrangian import quadratic_lagrangian
from csoc.sde import (constant_policy, estimate_action, integrate, integrate_with_increments,
                      linear_policy, path_increments)
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS
from csoc.wiener import (
    DiffusionSpec,
    MomentLine,
    MomentReport,
    _DRAW_CHUNK,
    _draw_paths,
    _substream_keys,
    _zscore,
    complex_sigma_squared,
    moment_check,
    path_generator,
)


def test_natural_spec_amplitudes():
    spec = DiffusionSpec.natural(hbar=2.0, m=0.5)
    assert np.allclose(spec.sigma_x, 2.0)
    assert np.allclose(spec.sigma_y, 2.0)
    with pytest.raises(DomainError):
        DiffusionSpec.natural(hbar=0.0)


def test_spec_rejects_bad_amplitudes():
    with pytest.raises(DomainError):
        DiffusionSpec(sigma_x=-1.0)
    with pytest.raises(DomainError):
        DiffusionSpec(sigma_x=[1.0, 1.0])
    with pytest.raises(DomainError):
        DiffusionSpec(epsilon=2)


def test_complex_variance_natural_mostly_plus():
    spec = DiffusionSpec.natural()
    assert np.array_equal(complex_sigma_squared(spec), [-2j, 2j, 2j, 2j])


def test_complex_variance_natural_mostly_minus():
    spec = DiffusionSpec.natural(metric=MOSTLY_MINUS)
    assert np.array_equal(complex_sigma_squared(spec), [2j, -2j, -2j, -2j])


def test_complex_variance_one_sheet_only():
    spec = DiffusionSpec(sigma_x=1.0, sigma_y=0.0)
    assert np.array_equal(complex_sigma_squared(spec), [1, 1, 1, 1])


def test_complex_variance_equal_sheets_exact():
    # sigma_x == sigma_y makes the real part an exact floating-point zero and
    # the imaginary part 2 epsilon eta hbar/m up to one rounding of the square
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        for epsilon in (1, -1):
            for hbar, m in ((1.0, 1.0), (0.7, 1.3)):
                spec = DiffusionSpec.natural(hbar=hbar, m=m, epsilon=epsilon,
                                             metric=metric)
                ss = complex_sigma_squared(spec)
                assert np.all(ss.real == 0.0)
                want = 2.0 * epsilon * metric.eta * (hbar / m)
                assert np.allclose(ss.imag, want, rtol=1e-14)


def test_sign_copy_factor():
    spec = DiffusionSpec.natural()
    assert np.array_equal(spec.sign_copy, [-1.0, 1.0, 1.0, 1.0])
    spec = DiffusionSpec.natural(epsilon=-1, metric=MOSTLY_MINUS)
    assert np.array_equal(spec.sign_copy, [-1.0, 1.0, 1.0, 1.0])


def test_increments_deterministic_in_seed():
    a = path_increments(0.01, 64, seed=7, path=3)
    assert np.array_equal(a, path_increments(0.01, 64, seed=7, path=3))
    assert not np.array_equal(a, path_increments(0.01, 64, seed=8, path=3))
    assert not np.array_equal(a, path_increments(0.01, 64, seed=7, path=4))


def test_increment_variance_matches_step():
    d_tau = 0.01
    n = 100_000
    dWx = _draw_paths(np.empty((1, n, 4)), d_tau, seed=3)[0]
    # sampling error of a variance estimate is about d_tau sqrt(2/n)
    tol = 5.0 * d_tau * np.sqrt(2.0 / n)
    for mu in range(4):
        assert abs(dWx[:, mu].var(ddof=1) - d_tau) < tol


def test_increment_scale_follows_sqrt_step():
    small = path_increments(0.01, 128, seed=5, path=2)
    big = path_increments(0.04, 128, seed=5, path=2)
    # same substream, 4x the step: same normals scaled by 2
    assert np.allclose(big, 2.0 * small, rtol=1e-12)


def test_moment_check_zero_drift_passes():
    spec = DiffusionSpec.natural()
    report = moment_check(spec, [0, 0, 0, 0], [0, 0, 0, 0],
                          d_tau=0.01, n=20_000, seed=0)
    assert len(report.lines) == 44
    assert report.passed
    assert report.n_flagged == 0
    assert abs(report.worst.zscore) < 5.0


def test_moment_check_drift_targets():
    spec = DiffusionSpec.natural()
    v = [0.5, 0.0, 0.0, 0.0]
    u = [0.0, 0.25, 0.0, 0.0]
    report = moment_check(spec, v, u, d_tau=0.01, n=20_000, seed=2)
    by_name = {ln.name: ln for ln in report.lines}
    assert by_name["dx0"].target == pytest.approx(0.005)
    assert by_name["dy1"].target == pytest.approx(0.0025)
    # mixed diagonal target carries the sheet correlation sign through eta
    assert by_name["dx0dy0"].target == pytest.approx(-0.01)
    assert by_name["dx1dy1"].target == pytest.approx(0.01)
    assert report.passed


@pytest.mark.parametrize("v0, dx0_flagged", [(np.nan, True), (0.0, False)], ids=("nan", "default"))
def test_moment_check_flags_at_the_fixed_threshold(v0, dx0_flagged):
    report = moment_check(DiffusionSpec.natural(), [v0, 0, 0, 0], [0] * 4, d_tau=0.01,
                          n=20_000, seed=0)
    assert report.z_max == 5.0
    assert all(ln.flagged == (not abs(ln.zscore) <= 5.0) for ln in report.lines)
    assert report.lines[0].name == "dx0" and report.lines[0].flagged == dx0_flagged


def test_increments_require_a_finite_positive_step():
    spec = DiffusionSpec.natural()
    for d_tau in (np.nan, np.inf, 0.0, -0.01):
        with pytest.raises(DomainError):
            moment_check(spec, [0] * 4, [0] * 4, d_tau, n=20_000, seed=0)


def test_moment_check_flags_nan_lines():
    # a NaN drift makes NaN estimates and z-scores; none of them may pass
    spec = DiffusionSpec.natural()
    report = moment_check(spec, [np.nan, 0, 0, 0], [0] * 4, 0.01, n=20_000, seed=0)
    nan_lines = [ln for ln in report.lines if np.isnan(ln.zscore)]
    assert nan_lines and all(ln.flagged for ln in nan_lines)
    assert not report.passed


def test_moment_check_requires_large_batch():
    spec = DiffusionSpec.natural()
    with pytest.raises(DomainError):
        moment_check(spec, [0, 0, 0, 0], [0, 0, 0, 0], 0.01, n=9_999, seed=0)


def reference_increments(spec, v, u, d_tau, n, seed):
    """The first n state differences, path by path, of ceil(n / _TABLE_STEPS)
    paths from 0 under constant_policy(v + iu), integrated from their
    path_increments: an (n, 8) array of dx^0..dx^3, dy^0..dy^3, and the
    state after each difference, the same shape."""
    steps = wiener._TABLE_STEPS
    dWx = np.stack([path_increments(d_tau, steps, seed, k) for k in range(-(-n // steps))])
    ens = integrate_with_increments(constant_policy(v + 1j * u), spec, np.zeros(4), d_tau, dWx)
    return (np.diff(ens.states, axis=1).reshape(-1, 8)[:n],
            ens.states[:, 1:].reshape(-1, 8)[:n])


def reference_moment_check(spec, v, u, d_tau, n, seed, z_max=5.0):
    """moment_check as plain numpy: reference_increments, and .mean() and
    .std(ddof=1) of each line's samples, the standard error floored at the
    roundoff of differences of states as large as the largest reached."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    d, later = reference_increments(spec, v, u, d_tau, n, seed)
    eps, peak, rms = np.finfo(float).eps, np.abs(later).max(axis=0), np.sqrt((d * d).mean(axis=0))
    dx, dy = d[:, :4].T, d[:, 4:].T
    mx, my = v * d_tau, u * d_tau
    sx, sy, eta = spec.sigma_x, spec.sigma_y, spec.metric.eta
    table = [(f"dx{mu}", dx[mu], mx[mu]) for mu in range(4)]
    table += [(f"dy{mu}", dy[mu], my[mu]) for mu in range(4)]
    table += [(f"dx{mu}dx{nu}", dx[mu] * dx[nu],
               (sx[mu] * sx[mu] if mu == nu else 0.0) * d_tau + mx[mu] * mx[nu])
              for mu in range(4) for nu in range(mu, 4)]
    table += [(f"dy{mu}dy{nu}", dy[mu] * dy[nu],
               (sy[mu] * sy[mu] if mu == nu else 0.0) * d_tau + my[mu] * my[nu])
              for mu in range(4) for nu in range(mu, 4)]
    table += [(f"dx{mu}dy{nu}", dx[mu] * dy[nu],
               (spec.epsilon * eta[mu] * sx[mu] * sy[mu] if mu == nu else 0.0) * d_tau
               + mx[mu] * my[nu])
              for mu in range(4) for nu in range(4)]
    rows = [*range(8)]
    rows += [(4 * a + mu, 4 * a + nu) for a in (0, 1) for mu in range(4) for nu in range(mu, 4)]
    rows += [(mu, 4 + nu) for mu in range(4) for nu in range(4)]
    floors = [eps * (peak[r] if isinstance(r, int) else rms[r[0]] * peak[r[1]]
                     + rms[r[1]] * peak[r[0]]) for r in rows]
    lines = []
    for (name, samples, target), floor in zip(table, floors):
        est = float(samples.mean())
        se = max(float(samples.std(ddof=1) / np.sqrt(n)), float(floor))
        z = _zscore(est, target, se)
        lines.append(MomentLine(name, est, float(target), se, z, not abs(z) <= z_max))
    return d, lines


def same_value(a, b) -> bool:
    """Equal with the same sign bit, or both NaN."""
    if isinstance(a, float):
        return (a == b and np.signbit(a) == np.signbit(b)) or (np.isnan(a) and np.isnan(b))
    return a == b


def rows_sorted(rows):
    """The rows of an (n, 8) float array as their bits, in lexicographic order."""
    bits = np.ascontiguousarray(rows).view(np.uint64)
    return bits[np.lexsort(bits.T[::-1])]


UNEQUAL = ([0.3, 0.7, 1.1, 0.0], [0.9, 0.2, 0.0, 1.3])  # a zero-width axis on each sheet
DRIFTS = (([0.0] * 4, [0.0] * 4),
          ([0.5, -1.0, 2.0, 0.1], [-0.3, 0.0, 1.0, 4.0]),
          ([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("n", (10_000, 12_345, 100_000))
@pytest.mark.parametrize("epsilon", (1, -1))
@pytest.mark.parametrize("metric", (MOSTLY_PLUS, MOSTLY_MINUS), ids=("plus", "minus"))
def test_moment_check_equals_reference_bit_for_bit(metric, epsilon, n, monkeypatch):
    # bit for bit in its samples: the table folds exactly the reference's n
    # state differences (a multiset: blocks and batches order them otherwise);
    # its lines then agree with .mean() and .std(ddof=1) to 1e-12 of each
    # line's sample scale, the root mean square of its samples, since the
    # fold and a two-pass sum round differently by a share of the terms summed
    folded, fold = [], wiener._fold

    def logged(acc, block):
        folded.append(block.copy())   # dx and dy, before the fold overwrites them
        fold(acc, block)

    monkeypatch.setattr(wiener, "_fold", logged)
    for sigma_x, sigma_y in ((1.0, 1.0), UNEQUAL):
        spec = DiffusionSpec(sigma_x=sigma_x, sigma_y=sigma_y, epsilon=epsilon, metric=metric)
        for v, u in DRIFTS:
            folded.clear()
            report = moment_check(spec, v, u, d_tau=0.03, n=n, seed=n + 1)
            samples, want = reference_moment_check(spec, v, u, d_tau=0.03, n=n, seed=n + 1)
            dx_dy = np.concatenate(folded, axis=1).T
            assert np.array_equal(rows_sorted(dx_dy), rows_sorted(samples))
            assert len(report.lines) == len(want) == 44
            for got, ref in zip(report.lines, want):
                assert (got.name, got.flagged) == (ref.name, ref.flagged)
                assert same_value(got.target, ref.target), ref.name
                assert same_value(got.zscore, _zscore(got.estimate, got.target, got.stderr))
                scale = math.hypot(ref.estimate, ref.stderr * math.sqrt(n))
                for field, tol in (("estimate", scale), ("stderr", scale / math.sqrt(n))):
                    a, b = getattr(got, field), getattr(ref, field)
                    assert same_value(a, b) or abs(a - b) <= 1e-12 * tol, (ref.name, field, a, b)


def test_moment_check_memory_does_not_grow_with_the_sample_count():
    spec = DiffusionSpec(sigma_x=UNEQUAL[0], sigma_y=UNEQUAL[1], epsilon=-1)
    # the first Generator imports numpy.random's pickling helpers; that is not the table
    moment_check(spec, [0.0] * 4, [0.0] * 4, d_tau=0.01, n=10_000, seed=3)
    # under 16 MiB of path-block dWx (sde's block rule), one batch of dx and
    # dy, and the two draw chunks of a split draw
    bound = (2 * sde._BLOCK_BYTES + 8 * wiener._BATCH * 8
             + 2 * _DRAW_CHUNK * wiener._TABLE_STEPS * 4 * 8 + 64 * 1024)
    for n in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            moment_check(spec, [0.0] * 4, [0.0] * 4, d_tau=0.01, n=n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (n, peak / 2**20)


SEED_GRID = (0, 1, 7, 2**31 - 1, 2**32, 2**40 + 5, 2**130 + 3)


@pytest.mark.parametrize("seed", SEED_GRID)
def test_vectorized_substream_keys_equal_seed_sequence(seed):
    # one- to five-word seeds, and spawn keys at both ends of the uint32 range
    paths = np.r_[np.arange(3000), 2**31, 2**32 - 1]
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(int(k),)).generate_state(2, np.uint64)
            for k in paths]
    assert np.array_equal(_substream_keys(seed, paths), want)


def test_rekeyed_generator_draws_each_path_substream():
    seed, n_steps, n_paths = 2**40 + 5, 3, 150
    dWx = _draw_paths(np.empty((n_steps, n_paths, 4)), 0.01, seed)
    part_used = 0
    for k in range(n_paths):
        rng = path_generator(seed, k)
        want = rng.normal(0.0, 0.1, (n_steps, 4))
        assert np.array_equal(dWx[:, k].view(np.uint64), want.view(np.uint64)), k
        part_used += rng.bit_generator.state["buffer_pos"] != 4
    # some paths leave Philox's buffer part used, so each re-key must clear it
    assert part_used
    with pytest.raises(DomainError):
        _draw_paths(np.empty((n_steps, 3, 4)), 0.01, -1)


def test_substream_keys_refuse_a_path_index_outside_uint32():
    # SeedSequence keys path 2**32 + 1 apart from path 1, so a wrapped index
    # would draw another path's stream
    for paths in ([2**32], [5, 2**32 + 1], [-1]):
        with pytest.raises(DomainError, match="path indices"):
            _substream_keys(7, paths)
    with pytest.raises(DomainError, match="path indices"):
        _draw_paths(np.empty((3, 2, 4)), 0.01, 7, first=2**32 - 1)


def draw_shares(monkeypatch, workers):
    """Force workers shares and log the (lo, hi, thread) of each one drawn."""
    log, real = [], wiener._draw_share

    def logged(out, keys, scale, lo, hi, failures):
        log.append((lo, hi, threading.get_ident()))
        real(out, keys, scale, lo, hi, failures)

    monkeypatch.setattr(wiener, "_draw_workers", lambda n_steps, n_paths: workers)
    monkeypatch.setattr(wiener, "_draw_share", logged)
    return log


@pytest.mark.parametrize("workers", [1, 2])
def test_split_draw_equals_each_path_substream(workers, monkeypatch):
    seed, n_steps, n_paths, first, d_tau = 2**40 + 5, 7, 3 * _DRAW_CHUNK + 5, 7, 0.01
    log = draw_shares(monkeypatch, workers)
    dWx = _draw_paths(np.empty((n_steps, n_paths, 4)), d_tau, seed, first=first)
    for j in range(n_paths):
        want = path_generator(seed, first + j).normal(0.0, np.sqrt(d_tau), (n_steps, 4))
        assert np.array_equal(dWx[:, j].view(np.uint64), want.view(np.uint64)), j
    # contiguous shares covering every path, the first drawn by the caller
    assert [(lo, hi) for lo, hi, _ in sorted(log)] == [
        (n_paths * i // workers, n_paths * (i + 1) // workers) for i in range(workers)]
    assert [ident == threading.get_ident() for *_, ident in sorted(log)] == [
        True] + [False] * (workers - 1)


def test_ensembles_are_bit_equal_on_one_and_two_workers(monkeypatch):
    mix = np.array([[0.3j, 0.2, 0, 0], [0.2, -0.1j, 0, 0], [0, 0, 0.1, 0.05], [0, 0, 0.05, -0.1]])
    args = (linear_policy(mix), DiffusionSpec.natural(), np.zeros(4, dtype=complex), 0.01, 20)
    results = []
    for workers in (1, 2):
        draw_shares(monkeypatch, workers)
        ens = integrate(*args, 3 * _DRAW_CHUNK + 5, seed=9)
        act = estimate_action(quadratic_lagrangian(), *args, 300, seed=9)
        results.append((ens.states.copy().view(np.uint64), repr(act)))
    (states1, action1), (states2, action2) = results
    assert np.array_equal(states1, states2)
    assert action1 == action2   # repr writes every float's shortest round-trip digits


def test_a_failing_share_is_raised_after_every_thread_is_joined(monkeypatch):
    real_philox = np.random.Philox

    def philox(seed):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)   # fails after the caller's share is done
            raise MemoryError("no room for this share")
        return real_philox(seed)

    monkeypatch.setattr(wiener, "_draw_workers", lambda n_steps, n_paths: 2)
    monkeypatch.setattr(np.random, "Philox", philox)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        _draw_paths(np.empty((5, 2 * _DRAW_CHUNK, 4)), 0.01, 3)
    assert threading.active_count() == before


def test_a_split_draw_holds_two_chunk_buffers_at_most():
    # more chunk buffers would break _run_paths's block budget
    n_steps, n_paths = wiener._SPLIT_STEPS, 8 * _DRAW_CHUNK
    out = np.empty((n_steps, n_paths, 4))
    _draw_paths(out, 0.01, 1)
    tracemalloc.start()
    try:
        _draw_paths(out, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _DRAW_CHUNK * n_steps * 4 * 8 + 64 * 1024, peak


def test_short_paths_and_draws_under_two_chunks_stay_on_the_calling_thread():
    # a one-step draw, as bellman_consistency makes, is all re-keys, which hold the GIL
    assert wiener._draw_workers(1, 10**6) == 1
    assert wiener._draw_workers(wiener._SPLIT_STEPS - 1, 10**6) == 1
    assert wiener._draw_workers(wiener._SPLIT_STEPS, 2 * _DRAW_CHUNK - 1) == 1
    assert 1 <= wiener._draw_workers(wiener._SPLIT_STEPS, 10**6) <= 2


NEGATIVE_SEED_CALLS = {
    "moment_check": lambda: moment_check(DiffusionSpec(), [0] * 4, [0] * 4, 0.01, 10_000, seed=-1),
    "path_generator": lambda: path_generator(0, -1),
    "path_increments": lambda: path_increments(0.01, 5, seed=-1, path=0),
    "integrate": lambda: integrate(constant_policy(np.zeros(4)), DiffusionSpec(), np.zeros(4),
                                   0.01, 5, 3, seed=-1),
}


@pytest.mark.parametrize("call", sorted(NEGATIVE_SEED_CALLS))
def test_a_negative_seed_or_path_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be nonnegative"):
        NEGATIVE_SEED_CALLS[call]()


@pytest.mark.parametrize("zscores, worst", [((0.5, float("nan"), 7.0), 1),
                                            ((float("nan"), 7.0), 0),
                                            ((1.0, -3.0, 3.0), 1)])
def test_the_worst_moment_line_is_the_first_nan_or_the_first_largest(zscores, worst):
    lines = tuple(MomentLine(f"line{i}", 0.0, 0.0, 1.0, z, not abs(z) <= 5.0)
                  for i, z in enumerate(zscores))
    report = MomentReport(lines=lines, n=10, d_tau=0.01, z_max=5.0)
    assert report.worst is lines[worst]
