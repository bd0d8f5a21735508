"""The golden-number gate: `csoc run` reproduces its recorded artifacts.

tests/golden/gate.py records the SHA-256 of every artifact and every check's
value at each config; here the two cheap configs rerun in a subprocess under
-W error and are compared bytes for bytes on the recording's numpy, Python,
platform and SIMD dispatch targets, and by check values elsewhere. CI's
`gate.py check` reruns all.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_gate", ROOT / "tests" / "golden" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

GOLDEN = json.loads(gate.GOLDEN.read_text())
# the dispatch targets CI's third gate step turns off
NO_WIDE_KERNELS = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def test_every_ci_config_is_recorded_with_its_environment():
    assert sorted(GOLDEN["configs"]) == sorted(gate.CONFIGS)
    assert sorted(GOLDEN["environment"]) == ["numpy", "platform", "python", "simd"]
    for name, recorded in GOLDEN["configs"].items():
        assert recorded["commands"] == [list(a) for a in gate.CONFIGS[name]]
        assert recorded["sha256"] and "manifest.json" not in recorded["sha256"]


def test_ci_runs_the_check_and_runs_csoc_only_where_it_expects_exit_3():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    steps = [line.split("run: ", 1)[1] for line in workflow if line.strip().startswith("run: ")]
    assert steps.count("python tests/golden/gate.py check") == 1
    # on one CPU every ensemble draw takes the one-share path
    assert steps.count("taskset -c 0 python tests/golden/gate.py check") == 1
    # with numpy's widest kernels off the gate compares values
    assert steps.count(f'NPY_DISABLE_CPU_FEATURES="{NO_WIDE_KERNELS}" '
                       "python tests/golden/gate.py check") == 1
    assert all(step.endswith('test "$code" -eq 3') for step in steps if "csoc.cli run" in step)


def test_check_goes_on_past_a_failed_command_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(gate, "CONFIGS", {"default": (("covariance", "--rapidity", "800"),),
                                          "probes-1024": gate.CONFIGS["probes-1024"]})
    assert gate.main(["check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("golden gate default: ") and " exited 3:" in out[1]
    assert out[-1].startswith("golden gate probes-1024: ") and out[-1].endswith("no difference")


@pytest.mark.parametrize("name", ["default", "probes-1024"])
def test_a_run_reproduces_its_recorded_artifacts(name, tmp_path, capsys):
    failures = gate.run_config(name, tmp_path)
    mode, problems = gate.compare(name, tmp_path, GOLDEN)
    with capsys.disabled():
        print(f"\ngolden gate {name}: compared {mode}")
    assert not failures + problems, "\n".join(failures + problems)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-default")
    assert not gate.run_config("default", out)
    return out


def elsewhere():
    """The recorded digests as a comparison on another environment sees them."""
    golden = copy.deepcopy(GOLDEN)
    golden["environment"]["numpy"] = "0.0"
    return golden


def copy_run(run, out):
    out.mkdir()
    for f in run.iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    return out


def rewrite_check(path, name, **fields):
    report = json.loads(path.read_text())
    for check in report["checks"]:
        if check["name"] == name:
            check.update(fields)
    path.write_text(json.dumps(report))


def test_a_moved_byte_fails_the_byte_comparison(default_run, tmp_path):
    out = copy_run(default_run, tmp_path / "out")
    with open(out / "trajectories.csv", "a") as fh:
        fh.write("\n")
    golden = copy.deepcopy(GOLDEN)
    golden["environment"] = gate.environment()
    mode, problems = gate.compare("default", out, golden)
    assert mode == "bytes"
    assert [p.split(":")[0] for p in problems] == ["trajectories.csv"]


def test_the_value_comparison_allows_roundoff_and_nothing_more(default_run, tmp_path):
    out = copy_run(default_run, tmp_path / "out")
    # stencil roundoff far below the limit moves freely, within the floor
    rewrite_check(out / "cr-scan.json", "analytic-worst", value=4e-8)
    with open(out / "trajectories.csv", "a") as fh:
        fh.write("\n")
    assert gate.compare("default", out, elsewhere()) == ("values", [])

    rewrite_check(out / "hopf-cole.json", "order-deviation", value=0.2)
    rewrite_check(out / "moments.json", "flagged-lines", value=1.0, passed=False)
    mode, problems = gate.compare("default", out, elsewhere())
    assert mode == "values"
    assert [p.split(":")[0] for p in problems] == ["hopf-cole.json order-deviation",
                                                   "moments.json flagged-lines"]
    (out / "gammas.json").unlink()
    _, problems = gate.compare("default", out, elsewhere())
    assert problems[0].startswith("artifacts ")


def test_the_gate_compares_values_where_numpy_dispatches_other_kernels(default_run):
    # as CI's third gate step runs it; the run itself was made with every kernel on
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_WIDE_KERNELS)
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "golden" / "gate.py"), "compare",
                           "default", str(default_run)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "golden gate default: compared values, no difference\n"


def test_unknown_dispatch_targets_never_compare_bytes(default_run, monkeypatch):
    monkeypatch.setattr(gate, "simd_targets", lambda: "unknown")
    golden = copy.deepcopy(GOLDEN)
    golden["environment"] = gate.environment()
    assert gate.compare("default", default_run, golden) == ("values", [])
