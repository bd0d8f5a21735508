"""Euler-Maruyama stepping, action estimates, one-step dynamic programming."""

import csv
import tracemalloc

import numpy as np
import pytest

from csoc import sde
from csoc.errors import DomainError
from csoc.lagrangian import (
    Lagrangian,
    free_particle_lagrangian,
    quadratic_lagrangian,
    zero_lagrangian,
)
from csoc.sde import (
    bellman_consistency,
    constant_policy,
    estimate_action,
    integrate,
    integrate_with_increments,
    linear_policy,
    path_increments,
    pointwise_policy,
)
from csoc.spacetime import MOSTLY_MINUS
from csoc.wiener import _DRAW_CHUNK, DiffusionSpec, _draw_paths

ZERO4 = np.zeros(4, dtype=np.complex128)
STILL = constant_policy(ZERO4)
ETA = DiffusionSpec.natural().metric.eta

# a state-feedback drift mixing the real and imaginary sheets
MIX = np.array([[0.3j, 0.2, 0, 0],
                [0.2, -0.1j, 0, 0],
                [0, 0, 0.1, 0.05],
                [0, 0, 0.05, -0.1]])


def blow_up(tau, zp):
    """A per-point policy that fails a path once its x^1 passes 0.05."""
    if zp[1].real > 0.05:
        return np.array([np.nan, 0, 0, 0], dtype=np.complex128)
    return ZERO4


def frozen_feedback(tau, z):
    """MIX feedback returned read-only and non-contiguous: every other column
    of a wider array, so its rows have no float view."""
    wide = np.zeros((len(z), 8), dtype=np.complex128)
    wide[:, ::2] = z @ MIX.T
    w = wide[:, ::2]
    w.flags.writeable = False
    return w


def gather_reference(policy, spec, z0, d_tau, dWx, tau0=0.0, lagrangian=None):
    """Reference Euler loop that gathers the live paths by index every step.

    The imaginary sheet is driven by dWy, the whole signed copy of dWx,
    formed before the loop. A path dies when its state (or, with a Lagrangian, its action) turns
    non-finite: its state is set to NaN and it is stepped no more. Returns
    the states, the failed paths, the action and the mask of live paths.
    """
    n_paths, n_steps = dWx.shape[0], dWx.shape[1]
    dWy = dWx * spec.sign_copy
    x = np.broadcast_to(z0.real, (n_paths, 4)).copy()
    y = np.broadcast_to(z0.imag, (n_paths, 4)).copy()
    states = np.empty((n_paths, n_steps + 1, 8))
    states[:, 0, 0:4], states[:, 0, 4:8] = x, y
    action = np.zeros(n_paths, dtype=np.complex128)
    alive = np.ones(n_paths, dtype=bool)
    failed = []
    for t in range(n_steps):
        tau = tau0 + t * d_tau
        idx = np.flatnonzero(alive)
        if idx.size:
            z = x[idx] + 1j * y[idx]
            w = np.asarray(policy(tau, z), dtype=np.complex128)
            if lagrangian is not None:
                action[idx] += np.asarray(lagrangian.value(tau, z, w)) * d_tau
            x[idx] = x[idx] + w.real * d_tau + spec.sigma_x * dWx[idx, t]
            y[idx] = y[idx] + w.imag * d_tau + spec.sigma_y * dWy[idx, t]
            ok = np.isfinite(x[idx]).all(axis=1) & np.isfinite(y[idx]).all(axis=1)
            ok &= np.isfinite(action[idx])
            dead = idx[~ok]
            failed.extend(int(i) for i in dead)
            x[dead] = np.nan
            y[dead] = np.nan
            alive[dead] = False
        states[:, t + 1, 0:4], states[:, t + 1, 4:8] = x, y
    return states, tuple(sorted(failed)), action, alive


def reference_stats(samples):
    n = samples.size
    se = [float(part.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
          for part in (samples.real, samples.imag)]
    return complex(samples.mean()), se[0], se[1]


def test_noiseless_drift_is_exact_quadrature():
    spec = DiffusionSpec(sigma_x=0.0, sigma_y=0.0)
    ens = integrate(constant_policy([1, 0, 0, 0]), spec, ZERO4,
                    d_tau=0.01, n_steps=100, n_paths=3, seed=0)
    final = ens.states[:, -1]
    assert np.all(np.abs(final[:, 0] - 1.0) < 1e-12)
    assert np.all(final[:, 1:] == 0.0)
    assert ens.failed_paths == ()


def test_ensemble_grid_and_views():
    spec = DiffusionSpec.natural()
    ens = integrate(STILL, spec, ZERO4, d_tau=0.1, n_steps=5,
                    n_paths=7, seed=1, tau0=0.25)
    assert ens.n_paths == 7
    assert ens.n_steps == 5
    assert np.allclose(ens.taus(), 0.25 + 0.1 * np.arange(6))
    assert np.array_equal(ens.z(3), ens.x[:, 3] + 1j * ens.y[:, 3])


def test_spread_matches_accumulated_variance():
    # var(x^1 at tau) = sigma^2 tau for pure diffusion
    spec = DiffusionSpec.natural()
    ens = integrate(STILL, spec, ZERO4, d_tau=0.1, n_steps=10,
                    n_paths=50_000, seed=4)
    var = ens.x[:, -1, 1].var(ddof=1)
    tol = 5.0 * np.sqrt(2.0 / 50_000)
    assert abs(var - 1.0) < tol


def test_sheets_are_signed_copies_along_paths():
    # same Gaussians drive both sheets, so pure-diffusion paths satisfy
    # y^0 = -x^0 and y^i = x^i bit for bit (mostly-plus, epsilon = +1)
    spec = DiffusionSpec.natural()
    ens = integrate(STILL, spec, ZERO4, d_tau=0.05, n_steps=20,
                    n_paths=50, seed=2)
    assert np.array_equal(ens.y[..., 0], -ens.x[..., 0])
    assert np.array_equal(ens.y[..., 1:], ens.x[..., 1:])


def test_path_substreams_regenerate_in_isolation():
    dWx = _draw_paths(np.empty((12, 6, 4)), 0.01, seed=11)
    assert np.array_equal(path_increments(0.01, 12, seed=11, path=3), dWx[:, 3])


@pytest.mark.parametrize("d_tau, n_steps, path", [
    (0.0, 12, 3), (-0.01, 12, 3), (np.nan, 12, 3), (np.inf, 12, 3),
    (0.01, 0, 3), (0.01, -1, 3), (0.01, 12, -1)])
def test_path_increments_reject_a_bad_grid_or_path(d_tau, n_steps, path):
    with pytest.raises(DomainError):
        path_increments(d_tau, n_steps, seed=11, path=path)


def test_a_complex_dwx_is_refused():
    # copied into the float states buffer, its imaginary part would be lost
    dWx = np.zeros((2, 5, 4), dtype=np.complex128)
    dWx[..., 1] = 1j
    with pytest.raises(DomainError, match="real"):
        integrate_with_increments(STILL, DiffusionSpec.natural(), ZERO4, 0.01, dWx)


def test_strong_error_halves_with_the_step():
    # state-feedback drift, additive noise: strong order 1, so the coupled
    # difference between successive refinements shrinks by about 2x
    spec = DiffusionSpec.natural()
    policy = linear_policy(MIX)
    z0 = np.array([1.0, 0.5 + 0.2j, -0.3, 0.1j])
    n_paths, n1, d1 = 200, 32, 0.02
    dx4 = _draw_paths(np.empty((4 * n1, n_paths, 4)), d1 / 4, seed=6).swapaxes(0, 1)
    dx2 = dx4[:, 0::2] + dx4[:, 1::2]
    dx1 = dx2[:, 0::2] + dx2[:, 1::2]
    z1 = integrate_with_increments(policy, spec, z0, d1, dx1).z(n1)
    z2 = integrate_with_increments(policy, spec, z0, d1 / 2, dx2).z(2 * n1)
    z4 = integrate_with_increments(policy, spec, z0, d1 / 4, dx4).z(4 * n1)
    e_coarse = np.abs(z1 - z2).max(axis=1).mean()
    e_fine = np.abs(z2 - z4).max(axis=1).mean()
    assert 0.35 < e_fine / e_coarse < 0.65


def test_failed_paths_are_frozen_and_counted():
    spec = DiffusionSpec.natural()

    ens = integrate(pointwise_policy(blow_up), spec, ZERO4, d_tau=0.01,
                    n_steps=30, n_paths=40, seed=5)
    assert 0 < len(ens.failed_paths) < 40
    for p in ens.failed_paths:
        assert np.isnan(ens.states[p, -1]).any()
    alive = [p for p in range(40) if p not in ens.failed_paths]
    assert np.isfinite(ens.states[alive]).all()


def test_grid_validation():
    spec = DiffusionSpec.natural()
    for d_tau in (-0.01, np.nan, np.inf):
        with pytest.raises(DomainError):
            integrate(STILL, spec, ZERO4, d_tau=d_tau, n_steps=5,
                      n_paths=2, seed=0)
    with pytest.raises(DomainError):
        integrate(STILL, spec, np.zeros(3), d_tau=0.01, n_steps=5,
                  n_paths=2, seed=0)
    flat = lambda tau, z: np.zeros(4, dtype=np.complex128)
    with pytest.raises(DomainError):
        estimate_action(zero_lagrangian(), flat, spec, ZERO4, d_tau=0.01,
                        n_steps=5, n_paths=2, seed=0)
    with pytest.raises(DomainError):
        bellman_consistency(lambda tau, z: 0j, zero_lagrangian(), flat, spec,
                            tau=0.0, z0=ZERO4, d_tau=0.01, n_paths=2, seed=0)
    dWx = np.zeros((2, 5, 4))
    for d_tau, dx in ((-0.01, dWx), (0.01, dWx[0]), (0.01, dWx[:, :0]), (0.01, dWx[..., :3])):
        with pytest.raises(DomainError):
            integrate_with_increments(STILL, spec, ZERO4, d_tau, dx)


def test_csv_round_trip():
    spec = DiffusionSpec.natural()
    ens = integrate(STILL, spec, ZERO4, d_tau=0.01, n_steps=3,
                    n_paths=2, seed=9)
    import io
    import os
    import tempfile
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        ens.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    finally:
        os.unlink(path)
    assert rows[0] == ["path", "step", "tau",
                       "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"]
    assert len(rows) == 1 + 2 * 4
    # 17 significant digits round-trip binary64 exactly
    got = np.array([[float(v) for v in row[3:]] for row in rows[1:]])
    want = ens.states.reshape(8, 8)
    assert np.array_equal(got, want)


def csv_writer_reference(ens, path):
    """The trajectory table as csv.writer writes it, row by row."""
    taus = ens.taus()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "step", "tau",
                         "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"])
        for p in range(ens.n_paths):
            for t in range(ens.n_steps + 1):
                writer.writerow([str(p), str(t), "%.17g" % taus[t]]
                                + ["%.17g" % v for v in ens.states[p, t]])


def test_csv_matches_the_csv_writer_byte_for_byte(tmp_path):
    # failed paths write NaN rows; a signed zero and tiny values keep their text
    ens = integrate(pointwise_policy(blow_up), DiffusionSpec(sigma_x=0.7, sigma_y=1.3, epsilon=-1),
                    np.array([-0.0, 1e-300, 0.1j, 2.5]), d_tau=0.01, n_steps=20,
                    n_paths=12, seed=5, tau0=0.3)
    assert 0 < len(ens.failed_paths) < ens.n_paths
    ens.to_csv(tmp_path / "fast.csv")
    csv_writer_reference(ens, tmp_path / "reference.csv")
    got = (tmp_path / "fast.csv").read_bytes()
    assert b"nan" in got and b"-0," in got
    assert got == (tmp_path / "reference.csv").read_bytes()


def test_a_lagrangian_of_the_wrong_shape_is_a_domain_error():
    # the action adds a scalar or one value per path, and no other shape that
    # numpy would broadcast
    spec = DiffusionSpec.natural()

    def action(shape):
        lag = Lagrangian(value=lambda tau, z, w: np.ones(shape, dtype=np.complex128))
        return estimate_action(lag, STILL, spec, ZERO4, 0.02, 3, 8, seed=0)

    assert action(()).mean == action((8,)).mean == pytest.approx(0.06)
    for shape in ((8, 4), (1,)):
        with pytest.raises(DomainError, match=rf"lagrangian returned shape \({shape[0]},"):
            action(shape)


def test_action_of_constant_lagrangian_is_the_time_span():
    unit = Lagrangian(value=lambda tau, z, w: np.ones(
        np.asarray(w).shape[:-1], dtype=np.complex128))
    spec = DiffusionSpec.natural()
    est = estimate_action(unit, STILL, spec, ZERO4, d_tau=0.02,
                          n_steps=100, n_paths=8, seed=0)
    assert abs(est.mean - 2.0) < 1e-12
    assert est.stderr_re == 0.0
    assert est.stderr_im == 0.0
    assert est.valid


def test_action_of_quadratic_lagrangian_noiseless():
    spec = DiffusionSpec(sigma_x=0.0, sigma_y=0.0)
    policy = constant_policy([1, 0, 0, 0])
    for a, want in ((2.0, -1.0), (1.0, -0.5)):
        est = estimate_action(quadratic_lagrangian(a=a), policy, spec, ZERO4,
                              d_tau=0.01, n_steps=100, n_paths=4, seed=0)
        assert abs(est.mean - want) < 1e-12


def test_action_of_free_particle_at_rest():
    # on-shell rest velocity: L = sigma_tilde m c^2 = -1, integrated over 1
    spec = DiffusionSpec(sigma_x=0.0, sigma_y=0.0)
    est = estimate_action(free_particle_lagrangian(), constant_policy([1, 0, 0, 0]),
                          spec, ZERO4, d_tau=0.01, n_steps=100, n_paths=4, seed=0)
    assert abs(est.mean - (-1.0)) < 1e-12


def test_action_counts_failed_paths():
    spec = DiffusionSpec.natural()

    est = estimate_action(zero_lagrangian(), pointwise_policy(blow_up), spec,
                          ZERO4, d_tau=0.01, n_steps=30, n_paths=40, seed=5)
    assert est.n_failed > 0
    assert not est.valid


@pytest.mark.parametrize("tau0", [np.nan, np.inf, -np.inf])
def test_a_non_finite_start_time_is_a_domain_error(tau0):
    spec, dWx = DiffusionSpec.natural(), np.zeros((2, 3, 4))
    calls = [
        lambda: integrate(STILL, spec, ZERO4, 0.01, 3, 2, 0, tau0=tau0),
        lambda: integrate_with_increments(STILL, spec, ZERO4, 0.01, dWx, tau0=tau0),
        lambda: estimate_action(quadratic_lagrangian(), STILL, spec, ZERO4, 0.01, 3, 2, 0,
                                tau0=tau0),
        lambda: bellman_consistency(lambda tau, z: 0j, zero_lagrangian(), STILL, spec,
                                    tau0, ZERO4, 0.01, 2, 0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="start time must be finite"):
            call()


def test_a_horizon_that_overflows_is_a_domain_error():
    # finite d_tau and tau0 whose last step time is not: refused up front
    spec = DiffusionSpec.natural()
    calls = [
        lambda: integrate(STILL, spec, ZERO4, 1e308, 3, 2, 0),
        lambda: integrate_with_increments(STILL, spec, ZERO4, 1e308, np.zeros((2, 3, 4))),
        lambda: estimate_action(quadratic_lagrangian(), STILL, spec, ZERO4, 1e308, 3, 2, 0),
        lambda: bellman_consistency(lambda tau, z: 0j, zero_lagrangian(), STILL, spec,
                                    1e308, ZERO4, 1e308, 2, 0),
        lambda: path_increments(1e308, 3, 0, 0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="horizon"):
            call()
    assert integrate(STILL, spec, ZERO4, 1e300, 3, 2, 0).taus()[-1] == 3e300


def test_an_overflowing_path_is_counted_not_warned_about():
    # warnings are errors here: the stepping and the statistics must not warn
    args = (DiffusionSpec.natural(), np.ones(4), 0.01, 200, 50, 0)
    est = estimate_action(quadratic_lagrangian(), linear_policy(200 * np.eye(4)), *args)
    assert est.n_failed == 0 and np.isfinite(est.mean)   # actions of about 3.5e192
    assert est.stderr_re == np.inf and not est.valid     # whose spread overflows
    with pytest.raises(DomainError, match="all paths failed"):
        estimate_action(quadratic_lagrangian(), linear_policy(2000 * np.eye(4)), *args)
    ens = integrate(linear_policy(2e4 * np.eye(4)), *args)   # 201**t overflows
    assert ens.failed_paths == tuple(range(50))


def test_bellman_excludes_and_counts_failed_paths():
    def one_bad_row(tau, z):
        w = np.zeros(z.shape, dtype=np.complex128)
        w[17, 2] = np.inf
        return w

    res = bellman_consistency(lambda tau, z: complex(np.sum(z)), zero_lagrangian(), one_bad_row,
                              DiffusionSpec.natural(), tau=0.2, z0=ZERO4, d_tau=0.01,
                              n_paths=50, seed=3)
    assert np.isfinite(res.residual) and np.isfinite([res.stderr_re, res.stderr_im]).all()
    assert (res.n_paths, res.n_failed) == (50, 1)
    assert not res.valid   # 1 of 50 is above 0.1%
    all_bad = lambda tau, z: np.full(z.shape, np.inf + 0j)
    with pytest.raises(DomainError):
        bellman_consistency(lambda tau, z: 0j, zero_lagrangian(), all_bad,
                            DiffusionSpec.natural(), 0.2, ZERO4, 0.01, 50, 3)


def test_bellman_marks_a_mostly_failed_ensemble_invalid():
    def all_but_one_row(tau, z):
        w = np.full(z.shape, np.inf + 0j)
        w[7] = 0.0
        return w

    res = bellman_consistency(lambda tau, z: complex(np.sum(z)), zero_lagrangian(),
                              all_but_one_row, DiffusionSpec.natural(), tau=0.2, z0=ZERO4,
                              d_tau=0.01, n_paths=50, seed=3)
    assert (res.n_paths, res.n_failed) == (50, 49)
    assert np.isfinite(res.residual)
    assert not res.valid


def test_bellman_is_valid_without_failed_paths():
    res = bellman_consistency(lambda tau, z: complex(np.sum(z)), zero_lagrangian(),
                              STILL, DiffusionSpec.natural(), tau=0.2, z0=ZERO4,
                              d_tau=0.01, n_paths=50, seed=3)
    assert res.n_failed == 0 and res.valid


def test_integrate_holds_no_increment_copy():
    # dWx is drawn into the states buffer it drives: a separate dWx buffer
    # would add all of the increment bytes, a stored dWy as much again
    n_paths, n_steps = 2000, 100
    tracemalloc.start()
    try:
        ens = integrate(linear_policy(MIX), DiffusionSpec.natural(), ZERO4, 0.01,
                        n_steps, n_paths, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states, increments = n_paths * (n_steps + 1) * 8 * 8, n_paths * n_steps * 4 * 8
    assert ens.states.nbytes == states
    assert peak <= states + 0.5 * increments


def test_bellman_zero_field_zero_lagrangian():
    spec = DiffusionSpec.natural()
    res = bellman_consistency(lambda tau, z: 0j, zero_lagrangian(),
                              STILL, spec, tau=0.2, z0=ZERO4,
                              d_tau=0.01, n_paths=100, seed=0)
    assert res.residual == 0j
    assert res.stderr_re == 0.0


def test_bellman_free_particle_value_is_consistent():
    # J = sigma_tilde m c^2 (tau_f - tau) with the rest-shell policy: the
    # one-step residual cancels exactly, and z-independence kills the spread
    spec = DiffusionSpec.natural()
    lag = free_particle_lagrangian()
    tau_f = 1.0
    value = lambda tau, z: complex(-(tau_f - tau))
    res = bellman_consistency(value, lag, constant_policy([1, 0, 0, 0]), spec,
                              tau=0.3, z0=ZERO4, d_tau=0.01, n_paths=200, seed=1)
    assert abs(res.residual) < 1e-12
    assert res.stderr_re == 0.0
    assert res.stderr_im == 0.0


def test_bellman_flags_suboptimal_policy():
    # running 10% fast costs 0.1 d_tau m c^2 per step, exactly
    spec = DiffusionSpec.natural()
    lag = free_particle_lagrangian()
    tau_f = 1.0
    value = lambda tau, z: complex(-(tau_f - tau))
    res = bellman_consistency(value, lag, constant_policy([1.1, 0, 0, 0]), spec,
                              tau=0.3, z0=ZERO4, d_tau=0.01, n_paths=200, seed=1)
    assert res.residual.real == pytest.approx(0.001, rel=1e-9)
    assert abs(res.residual.imag) < 1e-12


REFERENCE_CASES = {
    "linear-feedback": (linear_policy(MIX), DiffusionSpec.natural(),
                        np.array([1.0, 0.5 + 0.2j, -0.3, 0.1j]), 0.02, 40, 60, 6),
    "noiseless-constant": (constant_policy([1, 0, 0, 0]),
                           DiffusionSpec(sigma_x=0.0, sigma_y=0.0), ZERO4, 0.01, 100, 4, 0),
    "blow-up": (pointwise_policy(blow_up), DiffusionSpec.natural(), ZERO4, 0.01, 30, 40, 5),
    # two whole draw chunks and a remainder, anticorrelated sheets of unequal width
    "chunk-edges": (linear_policy(MIX), DiffusionSpec(sigma_x=0.7, sigma_y=1.3, epsilon=-1),
                    np.array([0.2j, -0.1, 0.3 + 0.1j, 0.0]), 0.02, 9, 2 * _DRAW_CHUNK + 5, 12),
    # 2 * per_block + 1 paths at three paths a block, and a lone path
    "seven-paths": (linear_policy(MIX), DiffusionSpec.natural(epsilon=-1),
                    np.array([0.1, 0.2j, 0.0, -0.3]), 0.02, 11, 7, 4),
    "one-path": (linear_policy(MIX), DiffusionSpec.natural(), ZERO4, 0.02, 5, 1, 9),
    # a zero axis on each sheet, anticorrelated, mostly-minus, and a policy
    # output the stepper can neither write nor view as floats
    "zero-axes": (frozen_feedback,
                  DiffusionSpec(sigma_x=[0.7, 1, 0, 1.3], sigma_y=[1, 0, 0.4, 2],
                                epsilon=-1, metric=MOSTLY_MINUS),
                  np.array([0.3 - 0.1j, 0.0, -0.2j, 0.5]), 0.02, 13, 9, 21),
}


def path_major_increments(d_tau, n_steps, n_paths, seed):
    """Reference dWx, path by path from each path's own SeedSequence."""
    return np.stack([path_increments(d_tau, n_steps, seed, p) for p in range(n_paths)])


# depends on z as well as w, so it pins which state each step's L sees
Z_AND_W = Lagrangian(value=lambda tau, z, w: 0.55 * np.sum(ETA * w * w, axis=-1) + tau * z[..., 1])


def block_widths(policy, run, n_steps):
    """run(policy) with the policy recording the rows it is called on; returns
    the result and the width of each path block, which takes n_steps calls."""
    rows = []

    def recording(tau, z):
        rows.append(len(z))
        return policy(tau, z)

    result = run(recording)
    widths = rows[::n_steps]
    assert rows == [w for w in widths for _ in range(n_steps)]
    return result, widths


def check_action_and_bellman(case, per_block=None, monkeypatch=None):
    """estimate_action and bellman_consistency of a reference case against the
    gather reference, bit for bit; with per_block, under a dWx budget of
    per_block paths, and with the widths of the blocks checked. Returns the
    reference's mask of paths alive after the action run."""
    policy, spec, z0, d_tau, n_steps, n_paths, seed = REFERENCE_CASES[case]
    n_blocks = max(1, n_paths // (per_block or n_paths))

    if per_block:
        monkeypatch.setattr(sde, "_BLOCK_BYTES", per_block * n_steps * 4 * 8)
    est, widths = block_widths(policy, lambda p: estimate_action(
        Z_AND_W, p, spec, z0, d_tau, n_steps, n_paths, seed), n_steps)
    dWx = path_major_increments(d_tau, n_steps, n_paths, seed)
    _, _, action, alive = gather_reference(policy, spec, z0, d_tau, dWx, lagrangian=Z_AND_W)
    assert (est.mean, est.stderr_re, est.stderr_im) == reference_stats(action[alive])
    assert est.n_failed == n_paths - alive.sum()
    assert sum(widths) == n_paths and len(widths) == n_blocks
    assert max(widths) - min(widths) <= 1
    assert min(widths) >= 2 or n_paths == 1

    value = lambda tau, z: complex(np.sum(ETA * z * z)) + 0.3 * z[0] + tau
    if per_block:
        monkeypatch.setattr(sde, "_BLOCK_BYTES", per_block * 4 * 8)
    res, widths = block_widths(policy, lambda p: bellman_consistency(
        value, Z_AND_W, p, spec, 0.2, z0, d_tau, n_paths, seed), 1)
    assert len(widths) == n_blocks
    dx1 = path_major_increments(d_tau, 1, n_paths, seed)
    states, _, action1, _ = gather_reference(policy, spec, z0, d_tau, dx1, tau0=0.2,
                                             lagrangian=Z_AND_W)
    z1 = states[:, 1, 0:4] + 1j * states[:, 1, 4:8]
    samples = action1 + np.array([value(0.2 + d_tau, zp) for zp in z1])
    mean, se_re, se_im = reference_stats(samples)
    assert (res.residual, res.stderr_re, res.stderr_im) == (value(0.2, z0) - mean, se_re, se_im)
    return alive


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_stepper_matches_the_gather_reference_bit_for_bit(case):
    policy, spec, z0, d_tau, n_steps, n_paths, seed = REFERENCE_CASES[case]
    dWx = path_major_increments(d_tau, n_steps, n_paths, seed)

    states, failed, _, _ = gather_reference(policy, spec, z0, d_tau, dWx, tau0=0.1)
    for ens in (integrate_with_increments(policy, spec, z0, d_tau, dWx, tau0=0.1),
                integrate(policy, spec, z0, d_tau, n_steps, n_paths, seed, tau0=0.1)):
        assert np.array_equal(ens.states.view(np.uint64), states.view(np.uint64))
        assert ens.failed_paths == failed
    check_action_and_bellman(case)   # one block at the default budget


@pytest.mark.parametrize("per_block", [2, 3])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_path_blocks_match_the_gather_reference_bit_for_bit(case, per_block, monkeypatch):
    # a budget of 2 or 3 paths a block splits the paths into blocks of 2 to 5,
    # unevenly where per_block does not divide n_paths
    alive = check_action_and_bellman(case, per_block, monkeypatch)
    if case == "blow-up":   # failed paths farther apart than a block is wide
        failed = np.flatnonzero(~alive)
        assert failed.max() - failed.min() >= 2 * per_block


def test_a_block_draws_its_own_path_substreams():
    d_tau, n_steps, seed, first = 0.01, 6, 3, 70
    out = _draw_paths(np.empty((n_steps, 5, 4)), d_tau, seed, first=first)
    for j in range(5):
        assert np.array_equal(out[:, j], path_increments(d_tau, n_steps, seed, first + j))


def test_action_memory_scales_with_paths_not_path_steps():
    # 7 blocks of 2,857-2,858 paths, whose one dWx buffer (9.1 MB) replaces
    # the whole ensemble's 64 MB; z and the action take 80 bytes a path
    n_paths, n_steps = 20_000, 100
    args = (quadratic_lagrangian(), linear_policy(MIX), DiffusionSpec.natural(), ZERO4, 0.01)
    estimate_action(*args, 3, 4, seed=8)   # numpy.random's lazy imports, untraced
    tracemalloc.start()
    try:
        estimate_action(*args, n_steps, n_paths, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**23 + 100 * n_paths + 2**20


def test_a_path_block_holds_at_most_2_16_paths():
    # one step would let the dWx budget take 262,144 paths a block: the
    # width cap splits 3 * 2**16 one-step paths into three blocks
    n_paths = 3 * 2**16
    est, widths = block_widths(STILL, lambda p: estimate_action(
        zero_lagrangian(), p, DiffusionSpec.natural(), ZERO4, 0.01, 1, n_paths, seed=0), 1)
    assert widths == [2**16] * 3
    assert (est.mean, est.n_paths, est.n_failed) == (0j, n_paths, 0)


def test_the_stepper_never_writes_into_a_policy_output():
    returned = []

    def recording(tau, z):
        w = z @ MIX.T
        returned.append((w, w.copy()))
        return w

    spec = DiffusionSpec(sigma_x=0.7, sigma_y=1.3, epsilon=-1)
    integrate(recording, spec, ZERO4 + 0.1, 0.02, 6, 5, seed=3)
    estimate_action(Z_AND_W, recording, spec, ZERO4 + 0.1, 0.02, 6, 5, seed=3)
    assert len(returned) == 12
    for w, copy in returned:
        assert np.array_equal(w.view(np.uint64), copy.view(np.uint64))


def test_pointwise_policy_never_sees_a_non_finite_point():
    seen = []

    def record(tau, zp):
        seen.append(zp.copy())
        return blow_up(tau, zp)

    z = np.array([[0.1, 0.02, 0.3, 0.4], [np.nan, 0, 0, 0], [0, np.inf, 0, 0], [0, 0, 0, 1j * np.inf]])
    w = pointwise_policy(record)(0.0, z)
    assert len(seen) == 1
    assert np.array_equal(w[0], ZERO4)
    assert np.isnan(w[1:].real).all() and np.isnan(w[1:].imag).all()
    ens = integrate(pointwise_policy(record), DiffusionSpec.natural(), ZERO4, d_tau=0.01,
                    n_steps=30, n_paths=40, seed=5)
    assert ens.failed_paths
    assert np.isfinite(seen).all()
