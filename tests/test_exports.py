"""The package's export list names each public name once, and each one exists;
the command line needs no third-party package but numpy; fixed tolerances and
steps are not keyword parameters."""

import os
import subprocess
import sys

import numpy as np
import pytest

import csoc


def test_every_export_resolves_once():
    assert len(csoc.__all__) == len(set(csoc.__all__))
    for name in csoc.__all__:
        getattr(csoc, name)


def test_importing_the_cli_loads_only_numpy_and_the_standard_library():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, numpy; before = set(sys.modules); import csoc.cli; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(new - set(sys.stdlib_module_names) - {'csoc', 'numpy'}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _calls_without_removed_keywords():
    """name -> (call taking extra keywords, keywords fixed as constants)."""
    lag = csoc.free_particle_lagrangian()
    problem = csoc.HJBProblem(lagrangian=lag, diffusion=csoc.DiffusionSpec.natural(),
                              tau_f=1.0)
    z = np.array([0.11 + 0.07j, -0.23 + 0.13j, 0.17 - 0.19j, 0.05 + 0.02j])
    dj = np.array([0.3, -0.2, 0.1, 0.05]) + 0.02j
    field = lambda tau, zz: (0.25 * complex(np.sum(csoc.MOSTLY_PLUS.eta * zz * zz))
                             + 0.3 * complex(zz[0]))
    return {
        "Lagrangian": (lambda **kw: csoc.Lagrangian(value=lag.value, **kw), ("params",)),
        "solve_optimal_control": (lambda **kw: csoc.solve_optimal_control(lag, dj, **kw),
                                  ("guess", "max_iter")),
        "equivalence_audit": (lambda **kw: csoc.equivalence_audit(lag, field, [(0.3, z)], **kw),
                              ("tol", "scan_tol", "solver_tol", "branch_tol")),
        "optimal_control_at": (lambda **kw: csoc.optimal_control_at(problem, dj, 0.3, z, **kw),
                               ("degenerate_tol",)),
        "hopf_cole_order": (lambda **kw: csoc.hopf_cole_order(field, 0.0, z, **kw),
                            ("h_coarse", "h_fine")),
        "ComplexFourVector.from_parts": (
            lambda **kw: csoc.ComplexFourVector.from_parts(z.real, z.imag, **kw), ("index",)),
    }


@pytest.mark.parametrize("name", sorted(_calls_without_removed_keywords()))
def test_removed_keywords_raise_type_error(name):
    call, removed = _calls_without_removed_keywords()[name]
    call()
    for keyword in removed:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: None})
