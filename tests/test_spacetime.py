"""Metric conventions, complex four-vectors, contractions, boosts."""

import numpy as np
import pytest

from csoc.errors import DomainError
from csoc.spacetime import (
    LOWER,
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    UPPER,
    ComplexFourVector,
    Metric,
    apply_boost,
    boost_matrix,
    contract,
    weak_equation_residual,
)


def test_metric_diagonals_and_signs():
    assert MOSTLY_PLUS.diag == (-1, 1, 1, 1)
    assert MOSTLY_PLUS.sigma_tilde == -1
    assert MOSTLY_MINUS.diag == (1, -1, -1, -1)
    assert MOSTLY_MINUS.sigma_tilde == 1
    assert Metric(diag=(1, -1, -1, -1)) == MOSTLY_MINUS


def test_metric_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Metric(diag=(1, 1, 1, 1))
    # diag is the only field: sigma_tilde is derived, epsilon belongs to the diffusion
    with pytest.raises(TypeError):
        Metric(diag=(-1, 1, 1, 1), sigma_tilde=-1)
    with pytest.raises(TypeError):
        Metric(diag=(-1, 1, 1, 1), epsilon=1)


def test_double_flip_is_identity():
    # eta is its own inverse, so flipping twice must return the input exactly
    v = np.array([1.5, -0.25, 3.0, 0.125])
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        back = metric.raise_or_lower(metric.raise_or_lower(v))
        assert np.array_equal(back, v)


def test_contract_unit_vectors():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert contract(e0, e0, MOSTLY_PLUS) == -1
    assert contract(e1, e1, MOSTLY_PLUS) == 1
    assert contract(e0, e0, MOSTLY_MINUS) == 1
    assert contract(e1, e1, MOSTLY_MINUS) == -1


def test_contract_imaginary_time_component():
    # (i,0,0,0) squared picks up i^2 = -1 on top of eta^00
    v = np.array([1j, 0, 0, 0])
    assert contract(v, v, MOSTLY_PLUS) == 1
    assert contract(v, v, MOSTLY_MINUS) == -1


def test_contract_mixed_index_skips_eta():
    metric = MOSTLY_PLUS
    w = ComplexFourVector(np.array([1.0 + 0.5j, 0.2, -0.3, 0.7j]))
    w_low = w.flipped(metric)
    assert w_low.index == LOWER
    direct = contract(w, w_low, metric)
    both_upper = contract(w, w, metric)
    assert direct == pytest.approx(both_upper)


def test_contract_symmetry_and_bilinearity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = complex(rng.normal() + 1j * rng.normal())
        assert contract(a, b) == pytest.approx(contract(b, a))
        assert contract(s * a + c, b) == pytest.approx(
            s * contract(a, b) + contract(c, b)
        )


def test_weak_equation_rest_and_boosted():
    for metric, c in ((MOSTLY_PLUS, 1.0), (MOSTLY_MINUS, 1.0), (MOSTLY_PLUS, 2.5)):
        rest = np.array([c, 0, 0, 0], dtype=complex)
        assert weak_equation_residual(rest, metric, c) == 0
        boosted = apply_boost(rest, 0.3, 1)
        assert abs(weak_equation_residual(boosted, metric, c)) < 1e-12


def test_weak_equation_detects_off_shell():
    # unit spatial velocity misses the shell by exactly 2 in mostly-plus
    w = np.array([0.0, 1.0, 0.0, 0.0])
    assert weak_equation_residual(w, MOSTLY_PLUS, 1.0) == 2


def test_weak_equation_rejects_nonpositive_c():
    with pytest.raises(DomainError):
        weak_equation_residual(np.ones(4), MOSTLY_PLUS, 0.0)


def test_boost_matrix_properties():
    lam = boost_matrix(0.3, 1)
    # boosts preserve the metric: Lambda^T eta Lambda == eta
    for metric in (MOSTLY_PLUS, MOSTLY_MINUS):
        eta = np.diag(metric.eta)
        assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-15
    assert np.array_equal(boost_matrix(0.0, 2), np.eye(4))
    with pytest.raises(DomainError):
        boost_matrix(0.3, 0)


def test_boost_invariance_of_contraction():
    rng = np.random.default_rng(11)
    for axis in (1, 2, 3):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        before = contract(a, b, MOSTLY_PLUS)
        after = contract(
            apply_boost(a, 0.45, axis), apply_boost(b, 0.45, axis), MOSTLY_PLUS
        )
        assert abs(after - before) < 1e-12


def test_boost_acts_on_parts_separately():
    v = ComplexFourVector(np.array([1, 0.2, 0, 0]) + 1j * np.array([0.5, 0, 0.1, 0]), UPPER)
    boosted = apply_boost(v, 0.7, 1)
    lam = boost_matrix(0.7, 1)
    assert np.allclose(boosted.x, lam @ v.x)
    assert np.allclose(boosted.y, lam @ v.y)


def test_boost_refuses_lower_index():
    low = ComplexFourVector(np.ones(4), LOWER)
    with pytest.raises(DomainError):
        apply_boost(low, 0.1, 1)


def test_four_vector_validation_and_parts():
    v = ComplexFourVector(np.array([1, 2, 3, 4]) + 1j * np.array([5, 6, 7, 8]), UPPER)
    assert v.index == UPPER
    assert np.array_equal(v.x, [1, 2, 3, 4])
    assert np.array_equal(v.y, [5, 6, 7, 8])
    with pytest.raises(DomainError):
        ComplexFourVector(np.ones(3))
    with pytest.raises(DomainError):
        ComplexFourVector(np.array([np.nan, 0, 0, 0]))
    with pytest.raises(DomainError):
        ComplexFourVector(np.ones(4), "sideways")


def test_four_vector_components_are_read_only():
    v = ComplexFourVector(np.ones(4))
    with pytest.raises(ValueError):
        v.components[0] = 2.0
