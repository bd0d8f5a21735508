"""The package's export list names each public name once, and each one exists;
the command line needs no third-party package but numpy; fixed tolerances and
steps are not keyword parameters."""

import dataclasses
import importlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import csoc
from csoc.cli import ScenarioConfig
from csoc.sde import path_increments


def test_every_export_resolves_once():
    assert len(csoc.__all__) == len(set(csoc.__all__))
    for name in csoc.__all__:
        getattr(csoc, name)


def fresh_interpreter(probe: str) -> str:
    """What probe prints in a new interpreter that imports csoc from src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_loads_only_numpy_and_the_standard_library():
    probe = ("import sys, numpy; before = set(sys.modules); import csoc.cli; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(new - set(sys.stdlib_module_names) - {'csoc', 'numpy'}))")
    assert fresh_interpreter(probe) == "[]"


def test_importing_the_cli_loads_no_concurrent_futures():
    # the ensemble draw starts plain threading.Threads; concurrent.futures
    # would add its import to every csoc run
    probe = "import sys, csoc.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_interpreter(probe) == "False"


def _calls_without_removed_keywords():
    """name -> (call taking extra keywords, keywords fixed as constants)."""
    lag = csoc.free_particle_lagrangian()
    problem = csoc.HJBProblem(lagrangian=lag, diffusion=csoc.DiffusionSpec.natural(),
                              tau_f=1.0)
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    dj = np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j
    field = lambda tau, zz: (0.25 * complex(np.sum(csoc.MOSTLY_PLUS.eta * zz * zz))
                             + 0.3 * complex(zz[0]))
    gammas = csoc.build_gammas(csoc.MOSTLY_PLUS)
    spinor = lambda tau, zz: np.exp(0.1 * zz[0]) * np.ones(4, dtype=np.complex128)
    return {
        "Lagrangian": (lambda **kw: csoc.Lagrangian(value=lag.value, **kw), ("params",)),
        "solve_optimal_control": (lambda **kw: csoc.solve_optimal_control(lag, dj, **kw),
                                  ("guess", "max_iter", "tol")),
        "equivalence_audit": (lambda **kw: csoc.equivalence_audit(lag, field, [(0.3, z)], **kw),
                              ("tol", "scan_tol", "solver_tol", "branch_tol")),
        "optimal_control_at": (lambda **kw: csoc.optimal_control_at(problem, dj, 0.3, z, **kw),
                               ("degenerate_tol",)),
        "hopf_cole_order": (lambda **kw: csoc.hopf_cole_order(field, 0.0, z, **kw),
                            ("h_coarse", "h_fine")),
        "route_consistency": (lambda **kw: csoc.route_consistency(gammas, spinor, 0.3, z, **kw),
                              ("signing",)),
        "integrate_with_increments": (
            lambda **kw: csoc.integrate_with_increments(csoc.constant_policy(np.zeros(4)),
                                                        csoc.DiffusionSpec(), z, 0.01,
                                                        np.zeros((2, 3, 4)), **kw),
            ("dWy", "seed")),
        "sde.path_increments": (lambda **kw: path_increments(0.01, 3, 0, 1, **kw), ("spec",)),
        "moment_check": (lambda **kw: csoc.moment_check(csoc.DiffusionSpec(), np.zeros(4),
                                                        np.zeros(4), 0.01, 10_000, 0, **kw),
                         ("z_max",)),
        "probe_points": (lambda **kw: csoc.probe_points(csoc.DomainBox.cube(0.5), 4, **kw),
                         ("shrink",)),
        "contract": (lambda **kw: csoc.contract(z, dj, csoc.MOSTLY_PLUS, **kw),
                     ("default_index",)),
    }


@pytest.mark.parametrize("name", sorted(_calls_without_removed_keywords()))
def test_removed_keywords_raise_type_error(name):
    call, removed = _calls_without_removed_keywords()[name]
    call()
    for keyword in removed:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: None})


REMOVED_MEMBERS = {
    csoc.DiffusionSpec: ("noiseless",),
    csoc.Metric: ("raise_or_lower",),
    csoc.PlaneWave: ("total_momentum",),
    csoc.DerivativeReport: ("max_residual",),
    ScenarioConfig: ("to_ini",),
    csoc.TrajectoryEnsemble: ("seed",),
    csoc.StationarityResult: ("converged",),
}


@pytest.mark.parametrize("owner", list(REMOVED_MEMBERS), ids=lambda cls: cls.__name__)
def test_members_without_a_caller_are_gone(owner):
    field_names = {f.name for f in dataclasses.fields(owner)}
    for member in REMOVED_MEMBERS[owner]:
        assert not hasattr(owner, member) and member not in field_names, member


def test_index_tagged_four_vector_names_are_gone():
    # a four-vector is a plain (4,) complex array; its index is a convention
    for name in ("UPPER", "LOWER", "ComplexFourVector", "apply_boost"):
        assert name not in csoc.__all__, name
        assert not hasattr(csoc, name), name
        assert not hasattr(csoc.spacetime, name), name


def test_readme_references_resolve():
    # every dotted csoc.<module>.<name> the README names exists
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        refs = set(re.findall(r"\bcsoc\.[a-z_]+\.[A-Za-z_][\w.]*\w", fh.read()))
    assert len(refs) >= 11
    for ref in sorted(refs):
        module, *attrs = ref.split(".")[1:]
        obj = importlib.import_module(f"csoc.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), ref
            obj = getattr(obj, attr)
