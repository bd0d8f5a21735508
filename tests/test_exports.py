"""The package's export list names each public name once, and each one exists;
the command line needs no third-party package but numpy."""

import os
import subprocess
import sys

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
