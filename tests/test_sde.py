"""Euler-Maruyama stepping, action estimates, one-step dynamic programming."""

import csv

import numpy as np
import pytest

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
    ensemble_increments,
    estimate_action,
    integrate,
    integrate_with_increments,
    linear_policy,
    path_increments,
    pointwise_policy,
    zero_policy,
)
from csoc.wiener import DiffusionSpec

ZERO4 = np.zeros(4, dtype=np.complex128)
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


def gather_reference(policy, spec, z0, d_tau, dWx, dWy, tau0=0.0, lagrangian=None):
    """Reference Euler loop that gathers the live paths by index every step.

    A path dies when its state (or, with a Lagrangian, its action) turns
    non-finite: its state is set to NaN and it is stepped no more. Returns
    the states, the failed paths, the action and the mask of live paths.
    """
    n_paths, n_steps = dWx.shape[0], dWx.shape[1]
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
    se = [float(part.std(ddof=1) / np.sqrt(n)) for part in (samples.real, samples.imag)]
    return complex(samples.mean()), se[0], se[1]


def test_noiseless_drift_is_exact_quadrature():
    spec = DiffusionSpec.noiseless()
    ens = integrate(constant_policy([1, 0, 0, 0]), spec, ZERO4,
                    d_tau=0.01, n_steps=100, n_paths=3, seed=0)
    final = ens.states[:, -1]
    assert np.all(np.abs(final[:, 0] - 1.0) < 1e-12)
    assert np.all(final[:, 1:] == 0.0)
    assert ens.failed_paths == ()


def test_ensemble_grid_and_views():
    spec = DiffusionSpec.natural()
    ens = integrate(zero_policy(), spec, ZERO4, d_tau=0.1, n_steps=5,
                    n_paths=7, seed=1, tau0=0.25)
    assert ens.n_paths == 7
    assert ens.n_steps == 5
    assert np.allclose(ens.taus(), 0.25 + 0.1 * np.arange(6))
    assert np.array_equal(ens.z(3), ens.x[:, 3] + 1j * ens.y[:, 3])


def test_spread_matches_accumulated_variance():
    # var(x^1 at tau) = sigma^2 tau for pure diffusion
    spec = DiffusionSpec.natural()
    ens = integrate(zero_policy(), spec, ZERO4, d_tau=0.1, n_steps=10,
                    n_paths=50_000, seed=4)
    var = ens.x[:, -1, 1].var(ddof=1)
    tol = 5.0 * np.sqrt(2.0 / 50_000)
    assert abs(var - 1.0) < tol


def test_sheets_are_signed_copies_along_paths():
    # same Gaussians drive both sheets, so pure-diffusion paths satisfy
    # y^0 = -x^0 and y^i = x^i bit for bit (mostly-plus, epsilon = +1)
    spec = DiffusionSpec.natural()
    ens = integrate(zero_policy(), spec, ZERO4, d_tau=0.05, n_steps=20,
                    n_paths=50, seed=2)
    assert np.array_equal(ens.y[..., 0], -ens.x[..., 0])
    assert np.array_equal(ens.y[..., 1:], ens.x[..., 1:])


def test_path_substreams_regenerate_in_isolation():
    spec = DiffusionSpec.natural()
    dWx, dWy = ensemble_increments(spec, 0.01, 12, n_paths=6, seed=11)
    one_x, one_y = path_increments(spec, 0.01, 12, seed=11, path=3)
    assert np.array_equal(one_x, dWx[3])
    assert np.array_equal(one_y, dWy[3])


def test_strong_error_halves_with_the_step():
    # state-feedback drift, additive noise: strong order 1, so the coupled
    # difference between successive refinements shrinks by about 2x
    spec = DiffusionSpec.natural()
    policy = linear_policy(MIX)
    z0 = np.array([1.0, 0.5 + 0.2j, -0.3, 0.1j])
    n_paths, n1, d1 = 200, 32, 0.02
    dx4, dy4 = ensemble_increments(spec, d1 / 4, 4 * n1, n_paths, seed=6)
    dx2 = dx4[:, 0::2] + dx4[:, 1::2]
    dy2 = dy4[:, 0::2] + dy4[:, 1::2]
    dx1 = dx2[:, 0::2] + dx2[:, 1::2]
    dy1 = dy2[:, 0::2] + dy2[:, 1::2]
    z1 = integrate_with_increments(policy, spec, z0, d1, dx1, dy1).z(n1)
    z2 = integrate_with_increments(policy, spec, z0, d1 / 2, dx2, dy2).z(2 * n1)
    z4 = integrate_with_increments(policy, spec, z0, d1 / 4, dx4, dy4).z(4 * n1)
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
    with pytest.raises(DomainError):
        integrate(zero_policy(), spec, ZERO4, d_tau=-0.01, n_steps=5,
                  n_paths=2, seed=0)
    with pytest.raises(DomainError):
        integrate(zero_policy(), spec, np.zeros(3), d_tau=0.01, n_steps=5,
                  n_paths=2, seed=0)
    flat = lambda tau, z: np.zeros(4, dtype=np.complex128)
    with pytest.raises(DomainError):
        estimate_action(zero_lagrangian(), flat, spec, ZERO4, d_tau=0.01,
                        n_steps=5, n_paths=2, seed=0)
    with pytest.raises(DomainError):
        bellman_consistency(lambda tau, z: 0j, zero_lagrangian(), flat, spec,
                            tau=0.0, z0=ZERO4, d_tau=0.01, n_paths=2, seed=0)


def test_csv_round_trip():
    spec = DiffusionSpec.natural()
    ens = integrate(zero_policy(), spec, ZERO4, d_tau=0.01, n_steps=3,
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


def test_action_of_constant_lagrangian_is_the_time_span():
    unit = Lagrangian(value=lambda tau, z, w: np.ones(
        np.asarray(w).shape[:-1], dtype=np.complex128))
    spec = DiffusionSpec.natural()
    est = estimate_action(unit, zero_policy(), spec, ZERO4, d_tau=0.02,
                          n_steps=100, n_paths=8, seed=0)
    assert abs(est.mean - 2.0) < 1e-12
    assert est.stderr_re == 0.0
    assert est.stderr_im == 0.0
    assert est.valid


def test_action_of_quadratic_lagrangian_noiseless():
    spec = DiffusionSpec.noiseless()
    policy = constant_policy([1, 0, 0, 0])
    for a, want in ((2.0, -1.0), (1.0, -0.5)):
        est = estimate_action(quadratic_lagrangian(a=a), policy, spec, ZERO4,
                              d_tau=0.01, n_steps=100, n_paths=4, seed=0)
        assert abs(est.mean - want) < 1e-12


def test_action_of_free_particle_at_rest():
    # on-shell rest velocity: L = sigma_tilde m c^2 = -1, integrated over 1
    spec = DiffusionSpec.noiseless()
    est = estimate_action(free_particle_lagrangian(), constant_policy([1, 0, 0, 0]),
                          spec, ZERO4, d_tau=0.01, n_steps=100, n_paths=4, seed=0)
    assert abs(est.mean - (-1.0)) < 1e-12


def test_action_counts_failed_paths():
    spec = DiffusionSpec.natural()

    est = estimate_action(zero_lagrangian(), pointwise_policy(blow_up), spec,
                          ZERO4, d_tau=0.01, n_steps=30, n_paths=40, seed=5)
    assert est.n_failed > 0
    assert not est.valid


def test_bellman_zero_field_zero_lagrangian():
    spec = DiffusionSpec.natural()
    res = bellman_consistency(lambda tau, z: 0j, zero_lagrangian(),
                              zero_policy(), spec, tau=0.2, z0=ZERO4,
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
    "noiseless-constant": (constant_policy([1, 0, 0, 0]), DiffusionSpec.noiseless(),
                           ZERO4, 0.01, 100, 4, 0),
    "blow-up": (pointwise_policy(blow_up), DiffusionSpec.natural(), ZERO4, 0.01, 30, 40, 5),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_stepper_matches_the_gather_reference_bit_for_bit(case):
    policy, spec, z0, d_tau, n_steps, n_paths, seed = REFERENCE_CASES[case]
    # depends on z as well as w, so it pins which state each step's L sees
    lag = Lagrangian(value=lambda tau, z, w: 0.55 * np.sum(ETA * w * w, axis=-1) + tau * z[..., 1])
    dWx, dWy = ensemble_increments(spec, d_tau, n_steps, n_paths, seed)

    ens = integrate_with_increments(policy, spec, z0, d_tau, dWx, dWy, tau0=0.1)
    states, failed, _, _ = gather_reference(policy, spec, z0, d_tau, dWx, dWy, tau0=0.1)
    assert np.array_equal(ens.states.view(np.uint64), states.view(np.uint64))
    assert ens.failed_paths == failed

    est = estimate_action(lag, policy, spec, z0, d_tau, n_steps, n_paths, seed)
    _, _, action, alive = gather_reference(policy, spec, z0, d_tau, dWx, dWy,
                                           lagrangian=lag)
    assert (est.mean, est.stderr_re, est.stderr_im) == reference_stats(action[alive])
    assert est.n_failed == n_paths - alive.sum()

    value = lambda tau, z: complex(np.sum(ETA * z * z)) + 0.3 * z[0] + tau
    res = bellman_consistency(value, lag, policy, spec, 0.2, z0, d_tau, n_paths, seed)
    dx1, dy1 = ensemble_increments(spec, d_tau, 1, n_paths, seed)
    states, _, action, _ = gather_reference(policy, spec, z0, d_tau, dx1, dy1,
                                            tau0=0.2, lagrangian=lag)
    z1 = states[:, 1, 0:4] + 1j * states[:, 1, 4:8]
    samples = action + np.array([value(0.2 + d_tau, zp) for zp in z1])
    mean, se_re, se_im = reference_stats(samples)
    assert (res.residual, res.stderr_re, res.stderr_im) == (value(0.2, z0) - mean, se_re, se_im)


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
