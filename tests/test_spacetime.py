"""Metric conventions, four-vector components, contractions, boosts."""

import warnings

import numpy as np
import pytest

from csoc.errors import DomainError
from csoc.spacetime import (
    MOSTLY_MINUS,
    MOSTLY_PLUS,
    Metric,
    _vector,
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
        back = metric.eta * (metric.eta * v)
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
        boosted = boost_matrix(0.3, 1) @ rest
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
        lam = boost_matrix(0.45, axis)
        after = contract(lam @ a, lam @ b, MOSTLY_PLUS)
        assert abs(after - before) < 1e-12


def test_boost_acts_on_parts_separately():
    v = np.array([1, 0.2, 0, 0]) + 1j * np.array([0.5, 0, 0.1, 0])
    lam = boost_matrix(0.7, 1)
    boosted = lam @ v
    assert np.allclose(boosted.real, lam @ v.real)
    assert np.allclose(boosted.imag, lam @ v.imag)


@pytest.mark.parametrize("rapidity", [800.0, -800.0, np.inf, -np.inf, np.nan])
def test_boost_that_overflows_is_a_domain_error(rapidity):
    # cosh overflows past |rapidity| ~ 710.5; the refusal itself warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="rapidity"):
            boost_matrix(rapidity, 1)
        assert np.isfinite(boost_matrix(700.0, 2)).all()


def test_four_vector_validation_and_parts():
    x, y = np.array([1, 2, 3, 4]), np.array([5, 6, 7, 8])
    v = _vector(x + 1j * y)
    assert v.dtype == np.complex128 and v.shape == (4,)
    assert np.array_equal(v.real, x)
    assert np.array_equal(v.imag, y)
    for bad in (np.ones(3), np.ones((2, 4)), 1.0):
        with pytest.raises(DomainError, match="4 components"):
            _vector(bad)
