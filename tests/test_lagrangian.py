"""Square-root Lagrangian values, weak-equation gradients, potential presets."""

import dataclasses

import numpy as np
import pytest

from csoc.errors import DomainError
from csoc.lagrangian import (
    EMFieldConfig,
    Lagrangian,
    em_lagrangian,
    free_particle_lagrangian,
    quadratic_lagrangian,
    vector_potential_preset,
    zero_lagrangian,
)
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS, apply_boost, weak_equation_residual

REST = np.array([1, 0, 0, 0], dtype=np.complex128)
Z0 = np.zeros(4, dtype=np.complex128)


def test_free_particle_value_at_rest():
    lag = free_particle_lagrangian()
    assert lag.value(0.0, Z0, REST) == pytest.approx(-1.0)
    lag_mm = free_particle_lagrangian(metric=MOSTLY_MINUS)
    assert lag_mm.value(0.0, Z0, REST) == pytest.approx(1.0)


def test_free_particle_value_scales_with_m_and_c():
    lag = free_particle_lagrangian(m=2.0, c=3.0)
    rest = np.array([3.0, 0, 0, 0], dtype=np.complex128)
    # sigma_tilde m c sqrt(c^2) = -m c^2
    assert lag.value(0.0, Z0, rest) == pytest.approx(-18.0)


def test_gradient_is_lower_index_momentum():
    lag = free_particle_lagrangian()
    g = lag.gradient_w(0.0, Z0, REST)
    assert np.allclose(g, [-1, 0, 0, 0])
    boosted = apply_boost(REST, 0.5, 1).components
    g2 = lag.gradient_w(0.0, Z0, boosted)
    assert np.allclose(g2, MOSTLY_PLUS.eta * boosted)


def test_constant_potential_shifts_value_and_gradient():
    A, _ = vector_potential_preset("constant(0.2,0,0,0)")
    lag = em_lagrangian(EMFieldConfig(q=2.0, A=A))
    # -1 from the mass term plus q A_0 w^0 = 0.4
    assert lag.value(0.0, Z0, REST) == pytest.approx(-0.6)
    g = lag.gradient_w(0.0, Z0, REST)
    assert np.allclose(g, [-1 + 0.4, 0, 0, 0])


def test_value_broadcasts_over_batches():
    lag = free_particle_lagrangian()
    w = np.broadcast_to(REST, (5, 4))
    z = np.zeros((5, 4), dtype=np.complex128)
    vals = lag.value(0.0, z, w)
    assert vals.shape == (5,)
    assert np.allclose(vals, -1.0)


def test_value_is_boost_invariant_without_charge():
    lag = free_particle_lagrangian()
    rng = np.random.default_rng(0)
    for _ in range(10):
        th = rng.uniform(-0.5, 0.5)
        axis = rng.integers(1, 4)
        w = apply_boost(REST, 0.3, 1).components
        v0 = lag.value(0.0, Z0, w)
        v1 = lag.value(0.0, Z0, apply_boost(w, th, int(axis)).components)
        assert abs(v1 - v0) < 1e-10


def test_quadratic_lagrangian_value_and_gradient():
    lag = quadratic_lagrangian(a=2.0)
    assert lag.value(0.0, Z0, REST) == pytest.approx(-1.0)
    assert np.allclose(lag.gradient_w(0.0, Z0, REST), [-2, 0, 0, 0])
    assert quadratic_lagrangian(a=1.0).value(0.0, Z0, REST) == pytest.approx(-0.5)


def test_zero_lagrangian_is_zero():
    lag = zero_lagrangian()
    assert lag.value(0.0, Z0, REST) == 0j
    assert np.all(lag.gradient_w(0.0, Z0, REST) == 0)


def _on_shell_gradient(cfg, w):
    # the weak equation: on the shell sum w^mu w_mu = sigma_tilde c^2 the square
    # root differentiates to m w_mu, so finite differences of the EM value equal
    # the published gradient m w_mu + q A_mu
    assert abs(weak_equation_residual(w, MOSTLY_PLUS, cfg.c)) < 1e-12
    closed = em_lagrangian(cfg)
    opaque = Lagrangian(value=closed.value)  # no closed-form gradient
    want = closed.grad(0.0, Z0, w)
    assert np.allclose(opaque.grad(0.0, Z0, w, h=1e-6), want, atol=1e-8)
    return want


def _complex_rapidity_velocity():
    # cosh^2 - sinh^2 = 1 also holds for complex rapidities, so the shell
    # admits genuinely complex velocities
    th = 0.2 + 0.1j
    return np.array([np.cosh(th), np.sinh(th), 0, 0], dtype=np.complex128)


def test_weak_gradient_check_at_rest():
    assert np.allclose(_on_shell_gradient(EMFieldConfig(), REST), [-1, 0, 0, 0])


def test_weak_gradient_check_boosted():
    w = apply_boost(REST, 0.5, 1).components
    assert np.allclose(_on_shell_gradient(EMFieldConfig(), w), MOSTLY_PLUS.eta * w)


def test_weak_gradient_check_complex_rapidity():
    w = _complex_rapidity_velocity()
    assert np.allclose(_on_shell_gradient(EMFieldConfig(), w), MOSTLY_PLUS.eta * w)


def test_finite_difference_gradient_fallback():
    cfg = EMFieldConfig(q=0.5, A=vector_potential_preset("constant(0.1,0.2,0,0)")[0])
    for w in (REST, apply_boost(REST, 0.3, 1).components, _complex_rapidity_velocity()):
        _on_shell_gradient(cfg, w)


def test_config_validation():
    with pytest.raises(DomainError):
        EMFieldConfig(m=0.0)
    with pytest.raises(DomainError):
        EMFieldConfig(c=-1.0)


def test_potential_presets():
    A, echo = vector_potential_preset("zero")
    assert A is None
    assert echo == {"potential": "zero"}

    A, echo = vector_potential_preset("constant(0.2,0,0,0)")
    out = A(0.0, Z0)
    assert np.array_equal(out, [0.2, 0, 0, 0])
    assert echo["components"] == [0.2, 0.0, 0.0, 0.0]

    A, echo = vector_potential_preset("linear-electric(0.5)")
    z = np.array([0, 0.4 + 0.2j, 0, 0], dtype=np.complex128)
    out = A(0.0, z)
    assert out[0] == pytest.approx(-0.5 * (0.4 + 0.2j))
    assert np.all(out[1:] == 0)
    assert echo["E"] == 0.5


def test_potential_preset_rejects_garbage():
    for bad in ("sinusoid", "constant(1,2)", "linear-electric()", "constant(a,b,c,d)"):
        with pytest.raises(DomainError):
            vector_potential_preset(bad)


def test_potential_shape_is_validated():
    cfg = EMFieldConfig(q=1.0, A=lambda tau, z: np.zeros(3))
    with pytest.raises(DomainError):
        cfg.potential(0.0, Z0)


def test_finite_difference_gradient_of_a_batch_equals_its_rows():
    opaque = Lagrangian(value=em_lagrangian(EMFieldConfig()).value)
    w = np.stack([apply_boost(REST, 0.3, 1).components, 3.0 * REST])
    for h in (None, 1e-6):   # each row's own step, and one explicit step
        batch = opaque.grad(0.0, Z0, w, h=h)
        for row, w_row in zip(batch, w):
            assert np.array_equal(row, opaque.grad(0.0, Z0, w_row, h=h))


def test_only_the_em_lagrangian_carries_its_config():
    cfg = EMFieldConfig(q=0.7, m=2.0, A=vector_potential_preset("linear-electric(0.5)")[0])
    assert em_lagrangian(cfg).em is cfg
    assert quadratic_lagrangian().em is None
    assert zero_lagrangian().em is None
    assert [f.name for f in dataclasses.fields(Lagrangian)] == ["value", "gradient_w", "em"]


def test_stationary_control_broadcasts_and_zeroes_the_gradient():
    cfg = EMFieldConfig(q=0.7, m=2.0, A=vector_potential_preset("linear-electric(0.5)")[0])
    lag = em_lagrangian(cfg)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    dj = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    w = cfg.stationary_control(0.2, z, dj)
    assert w.shape == (5, 4)
    for w_row, z_row, dj_row in zip(w, z, dj):
        assert np.array_equal(w_row, cfg.stationary_control(0.2, z_row, dj_row))
    assert np.allclose(lag.grad(0.2, z, w) + dj, 0.0, atol=1e-14)


def test_params_view_serves_the_stationary_control():
    # perfbench/workloads.py reads params["closed_form_control"]
    cfg = EMFieldConfig(q=0.7, A=vector_potential_preset("constant(0.2,-0.1,0,0.05)")[0])
    lag = em_lagrangian(cfg)
    dj = np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j
    assert np.array_equal(lag.params["closed_form_control"](0.4, Z0, dj),
                          lag.em.stationary_control(0.4, Z0, dj))
    assert quadratic_lagrangian().params == {}
