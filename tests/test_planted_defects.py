"""Every check of `csoc run` can fail: a planted-defect gate.

Each catalogue entry plants one wrong line in a copy of the package and runs
`python -m csoc.cli` on that copy. The run must exit 1 with exactly the named
scenarios reported as FAIL, through exactly the named checks, and not through
a crash, which also exits 1. An unmodified copy run with the same arguments
must exit 0, so that no entry passes because its command fails anyway.
This is mutation testing (DeMillo, Lipton and Sayward, IEEE Computer 11
(1978)) with a hand-picked catalogue: one defect per claim that a scenario
checks.

Defects that no scenario catches yet are the KNOWN_GAPS ledger: each plants
its line the same way and expects `csoc run all` at the default config or at
`--epsilon -1` to report a FAIL, which today it does not, so each is a strict
xfail. A change that closes a gap turns its entry into an XPASS, which fails
the suite; the entry then moves to DEFECTS with its pinned FAIL lines.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from csoc.cli import SCENARIOS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "csoc"


@dataclass(frozen=True)
class Defect:
    """One wrong line: `old`, which occurs exactly once in `file` (under
    src/csoc), becomes `new`. `csoc <args>` must then fail exactly the
    scenarios of `failed`, each through exactly the checks it lists, in
    report order. With `factor`, every failed check's value also exceeds
    `factor` times its limit."""

    id: str
    file: str
    old: str
    new: str
    args: tuple
    failed: dict
    factor: Optional[float] = None


DEFECTS = (
    # the component signs dropped from route A's gradient coupling: the
    # plane-wave residuals do not read route A, so only the route check
    # fails, and by far more than stencil error
    Defect("route-coupling-unsigned", "dirac.py",
           "grad = eps[cols, None] * dj[cols]", "grad = dj[cols]",
           ("run", "all"), {"dirac-planewave": ("route-discrepancy",)}, factor=1e3),
    # dWy copies dWx with eta's signs alone, so anticorrelated sheets come
    # out correlated
    Defect("sign-copy-without-epsilon", "wiener.py",
           "return self.epsilon * self.metric.eta", "return self.metric.eta",
           ("run", "moments", "--epsilon", "-1"), {"moments": ("flagged-lines",)}),
    # the stepper's real-sheet noise at half its amplitude, at a sigma_x
    # other than 1: the moment table reads the stepper's own increments
    Defect("stepper-sigma-x-halved", "sde.py",
           "np.multiply(dx, spec.sigma_x, out=step.real)",
           "np.multiply(dx, 0.5 * spec.sigma_x, out=step.real)",
           ("run", "moments", "--sigma-x", "0.7"), {"moments": ("flagged-lines",)}),
    # the stepper's dWy signed by eta alone, so anticorrelated sheets step
    # correlated; the sign copy of DiffusionSpec stays right
    Defect("stepper-dwy-without-epsilon", "sde.py",
           "sigma_y = spec.sigma_y * spec.sign_copy", "sigma_y = spec.sigma_y * spec.metric.eta",
           ("run", "moments", "--epsilon", "-1"), {"moments": ("flagged-lines",)}),
    # the stepper's dWy negated at either epsilon
    Defect("stepper-dwy-negated", "sde.py",
           "sigma_y = spec.sigma_y * spec.sign_copy", "sigma_y = spec.sigma_y * -spec.sign_copy",
           ("run", "moments"), {"moments": ("flagged-lines",)}),
    # the stepper drops the imaginary drift u d_tau: seen through the drift
    # that run_moments steps with
    Defect("stepper-imaginary-drift-dropped", "sde.py",
           "step = w.copy()   # C order, as w may be broadcast, strided or read-only",
           "step = w.copy()   # C order, as w may be broadcast, strided or read-only\n"
           "        step.imag = 0",
           ("run", "moments"), {"moments": ("flagged-lines",)}),
    # the same on a noiseless imaginary sheet, whose lines have no spread
    # and stand on the standard error's roundoff floor alone
    Defect("stepper-imaginary-drift-dropped-noiseless", "sde.py",
           "step = w.copy()   # C order, as w may be broadcast, strided or read-only",
           "step = w.copy()   # C order, as w may be broadcast, strided or read-only\n"
           "        step.imag = 0",
           ("run", "moments", "--sigma-y", "0"), {"moments": ("flagged-lines",)}),
    # the central first difference divided by h instead of 2h
    Defect("first-difference-over-h", "ccalc.py",
           "_quot(v[:4] - v[4:], 2 * h, pydiv)", "_quot(v[:4] - v[4:], h, pydiv)",
           ("run", "all"),
           {"hopf-cole": ("linear-residual", "quadratic-residual", "order-deviation"),
            "dirac-planewave": ("free-plane-wave-residual", "coupled-plane-wave-residual",
                                "route-discrepancy")}),
    # the other branch of the square root in the EM Lagrangian
    Defect("lagrangian-other-root", "lagrangian.py",
           "core = st * cfg.m", "core = -st * cfg.m",
           ("run", "all"), {"hjb-residual": ("max-abs-residual",)}, factor=1e3),
)


@dataclass(frozen=True)
class Gap:
    """One wrong line that no scenario catches yet: `old`, which occurs
    exactly once in `file` (under src/csoc), becomes `new`."""

    id: str
    file: str
    old: str
    new: str


KNOWN_GAPS = (
    Gap("action-without-d-tau", "sde.py", "ab += value * d_tau", "ab += value"),
    Gap("stepper-tau-one-step-ahead", "sde.py",
        "tau = tau0 + t * d_tau", "tau = tau0 + (t + 1) * d_tau"),
    Gap("quadratic-gradient-doubled", "lagrangian.py",
        "return a * (eta * np.asarray(w, dtype=np.complex128))",
        "return 2 * a * (eta * np.asarray(w, dtype=np.complex128))"),
    Gap("hjb-second-order-doubled", "hjb.py",
        "second = 0.5 * complex(np.add.reduce(problem._sigma_squared * d2j))",
        "second = 1.0 * complex(np.add.reduce(problem._sigma_squared * d2j))"),
    Gap("sigma-squared-without-eta", "wiener.py",
        "2j * spec.epsilon * spec.metric.eta * sx * sy", "2j * spec.epsilon * sx * sy"),
    Gap("component-signs-all-plus", "dirac.py",
        "COMPONENT_SIGNS = (1.0, 1.0, -1.0, -1.0)", "COMPONENT_SIGNS = (1.0, 1.0, 1.0, 1.0)"),
)
GAP_ARGS = (("run", "all"), ("run", "all", "--epsilon", "-1"))

CONTROL_ARGS = sorted({d.args for d in DEFECTS} | set(GAP_ARGS))


def copy_package(root: Path) -> Path:
    shutil.copytree(PACKAGE, root / "csoc", ignore=shutil.ignore_patterns("__pycache__"))
    return root / "csoc"


def run_copy(root: Path, args: tuple, out: Path) -> subprocess.CompletedProcess:
    """`python -m csoc.cli <args>` on the copy under root, warnings as errors
    and -v, so stderr names each source file the child compiled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-v", "-W", "error", "-m", "csoc.cli", *args,
                           "--out-dir", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)


def messages(proc) -> str:
    """stderr without the import trace of -v."""
    return "\n".join(line for line in proc.stderr.splitlines()
                     if not line.startswith(("#", "import ")))


def expected_stdout(args: tuple, failed) -> str:
    names = SCENARIOS if args[1] == "all" else (args[1],)
    return "".join(f"{n}: {'FAIL' if n in failed else 'pass'}\n" for n in names)


def assert_imported(proc, source: Path) -> None:
    assert any(line.startswith("# code object from") and str(source) in line
               for line in proc.stderr.splitlines()), f"the child did not import {source}"


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.id)
def test_planted_defect_fails_exactly_its_scenarios(defect, tmp_path):
    target = copy_package(tmp_path) / defect.file
    text = target.read_text()
    assert text.count(defect.old) == 1, f"{defect.old!r} must occur once in {defect.file}"
    target.write_text(text.replace(defect.old, defect.new))

    out = tmp_path / "out"
    proc = run_copy(tmp_path, defect.args, out)
    assert_imported(proc, target)
    assert proc.returncode == 1, messages(proc)
    assert proc.stdout == expected_stdout(defect.args, defect.failed), messages(proc)
    for name, checks in defect.failed.items():
        report = json.loads((out / f"{name}.json").read_text())
        assert report["passed"] is False
        missed = [c for c in report["checks"] if not c["passed"]]
        assert tuple(c["name"] for c in missed) == checks, name
        if defect.factor is not None:
            for c in missed:
                assert c["value"] > defect.factor * c["limit"], (name, c)
    if defect.args[1] == "all":
        summary = json.loads((out / "summary.json").read_text())
        assert {n for n, ok in summary["scenarios"].items() if not ok} == set(defect.failed)


@pytest.mark.parametrize("args", CONTROL_ARGS, ids="-".join)
def test_unmodified_copy_passes(args, tmp_path):
    package = copy_package(tmp_path)
    proc = run_copy(tmp_path, args, tmp_path / "out")
    assert_imported(proc, package / "cli.py")
    assert proc.returncode == 0, messages(proc)
    assert proc.stdout == expected_stdout(args, ())


@pytest.mark.parametrize("gap", KNOWN_GAPS, ids=lambda g: g.id)
def test_each_known_gap_plants_one_line(gap):
    assert (PACKAGE / gap.file).read_text().count(gap.old) == 1, gap.old


@pytest.mark.parametrize("gap", [pytest.param(g, id=g.id, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="no scenario of csoc run catches it yet"))
    for g in KNOWN_GAPS])
def test_known_gap_fails_some_scenario(gap, tmp_path):
    target = copy_package(tmp_path) / gap.file
    target.write_text(target.read_text().replace(gap.old, gap.new))
    caught = []
    for args in GAP_ARGS:
        proc = run_copy(tmp_path, args, tmp_path / "-".join(args))
        assert_imported(proc, target)
        if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
            pytest.fail(f"{gap.id} crashes csoc {' '.join(args)}: {messages(proc)}")
        caught.append(proc.returncode == 1 and "FAIL" in proc.stdout)
    assert any(caught), f"csoc run all passes with {gap.id} planted"
