"""The row presets of cr-scan and equivalence-audit, and the batched
Clifford checks, against the per-point code they replaced, bit for bit.

The references below are the per-point presets and the loop checks as they
were before they were batched; they stay here so that every later change to
the batched code is held to the same bits.
"""

import numpy as np
import pytest

from csoc import cli
from csoc.ccalc import _rows
from csoc.cli import main
from csoc.dirac import GammaSet, build_gammas, linearization_check
from csoc.spacetime import MOSTLY_MINUS, MOSTLY_PLUS

METRICS = (MOSTLY_PLUS, MOSTLY_MINUS)


def reference_cr_fields(metric):
    eta = metric.eta

    def analytic(tau, z):
        return complex(np.sum(eta * z * z)) + 0.1 * complex(np.exp(z[0])) + tau * complex(z[1])

    def twisted(tau, z):
        return analytic(tau, z) + 0.5 * complex(np.conj(z[0]))

    return analytic, twisted


def reference_audit_value_field(metric):
    eta = metric.eta

    def field(tau, z):
        return 0.1 * complex(np.sum(eta * z * z)) + 0.3 * complex(z[0]) + 0.05 * tau
    return field


def reference_linearization_check(gammas, n=100, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        worst = max(worst, gammas.square_slash_residual(a))
    return worst


def reference_anticommutator_residual(gammas):
    g = gammas.matrices
    eye2 = 2.0 * np.eye(4)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            target = eye2 * gammas.metric.eta[mu] if mu == nu else 0.0
            worst = max(worst, float(np.abs(anti - target).max()))
    return worst


def preset_pairs(metric):
    """(row preset, per-point reference) for each preset of the two scenarios."""
    return [*zip(cli._cr_fields(metric), reference_cr_fields(metric)),
            (cli._audit_value_field(metric), reference_audit_value_field(metric))]


def rows_with_box_edges(seed, n=512):
    """Random rows in the default box (half width 1, tau in [0, 1]), then its
    corners, its centre with either sign of zero, and tau at both ends."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 1.0, n)
    z = rng.uniform(-1.0, 1.0, (n, 4)) + 1j * rng.uniform(-1.0, 1.0, (n, 4))
    signs = np.array(np.meshgrid(*[(-1.0, 1.0)] * 8)).reshape(8, -1).T   # the 256 corners
    corners = signs[:, :4] + 1j * signs[:, 4:]
    zeros = np.array([[0j] * 4, [complex(-0.0, -0.0)] * 4, [complex(0.0, -0.0)] * 4])
    edges = np.concatenate([corners, zeros])
    edge_tau = np.resize([0.0, 1.0], len(edges))
    return np.concatenate([tau, edge_tau]), np.concatenate([z, edges])


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: str(m.diag))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_presets_equal_the_per_point_presets_bit_for_bit(metric, seed):
    tau, z = rows_with_box_edges(seed)
    for rows_field, reference in preset_pairs(metric):
        got = np.asarray(rows_field(tau, z))
        want = np.array([reference(t, p) for t, p in zip(tau.tolist(), z)])
        assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("probes", ["64", "1024"])
def test_scan_and_audit_reports_match_the_per_point_presets_byte_for_byte(
        tmp_path, monkeypatch, probes):
    args = ["run", "cr-scan", "--probes", probes]
    audit_args = ["run", "equivalence-audit", "--probes", probes]
    assert main([*args, "--out-dir", str(tmp_path / "rows")]) == 0
    assert main([*audit_args, "--out-dir", str(tmp_path / "rows")]) == 0
    monkeypatch.setattr(cli, "_cr_fields",
                        lambda metric: tuple(map(_rows, reference_cr_fields(metric))))
    monkeypatch.setattr(cli, "_audit_value_field",
                        lambda metric: _rows(reference_audit_value_field(metric)))
    assert main([*args, "--out-dir", str(tmp_path / "points")]) == 0
    assert main([*audit_args, "--out-dir", str(tmp_path / "points")]) == 0
    for name in ("cr-scan.json", "equivalence-audit.json"):
        rows = (tmp_path / "rows" / name).read_bytes()
        assert rows == (tmp_path / "points" / name).read_bytes(), name


def perturbed(gammas, rng):
    """The gamma set moved off the Clifford algebra by about 1e-9 an entry."""
    noise = rng.normal(size=(2, 4, 4, 4))
    return GammaSet(gammas.matrices + 1e-9 * (noise[0] + 1j * noise[1]), gammas.metric,
                    "perturbed")


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: str(m.diag))
def test_batched_linearization_check_equals_the_loop(metric):
    rng = np.random.default_rng(11)
    exact = build_gammas(metric)
    for seed in range(20):
        for gammas in (exact, perturbed(exact, rng)):
            got = linearization_check(gammas, n=100, seed=seed)
            want = reference_linearization_check(gammas, n=100, seed=seed)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), seed


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: str(m.diag))
def test_batched_anticommutator_residual_equals_the_loop(metric):
    # the exact gamma sets, then perturbed ones whose residual is not zero
    rng = np.random.default_rng(7)
    exact = build_gammas(metric)
    assert exact.anticommutator_residual() == reference_anticommutator_residual(exact) == 0.0
    for _ in range(20):
        gammas = perturbed(exact, rng)
        got = gammas.anticommutator_residual()
        assert got > 0.0 and type(got) is float
        assert got == reference_anticommutator_residual(gammas)
