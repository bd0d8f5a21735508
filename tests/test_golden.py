"""The golden-number gate: `csoc run` reproduces its recorded artifacts.

tests/golden/gate.py records the SHA-256 of every artifact and every
check's value at each CI config; here the two cheap configs rerun in a
subprocess under -W error and are compared bytes for bytes on the recording's
numpy, Python and platform, and by check values elsewhere. The CI steps
compare the other configs.
"""

import copy
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_gate", ROOT / "tests" / "golden" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

GOLDEN = json.loads(gate.GOLDEN.read_text())


def test_every_ci_config_is_recorded_with_its_environment():
    assert sorted(GOLDEN["configs"]) == sorted(gate.CONFIGS)
    assert sorted(GOLDEN["environment"]) == ["numpy", "platform", "python"]
    for name, recorded in GOLDEN["configs"].items():
        assert recorded["commands"] == [list(a) for a in gate.CONFIGS[name]]
        assert recorded["sha256"] and "manifest.json" not in recorded["sha256"]


def test_every_ci_run_step_compares_its_config():
    # each CI step that runs `csoc run` and expects exit 0 runs one config's
    # commands and then compares its directory; only the exit-3 steps do not
    steps = [line.split("run: ", 1)[1] for line in
             (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
             if line.strip().startswith("run: ") and "csoc.cli run" in line]
    compared = []
    for step in steps:
        if "-eq 3" in step:
            assert "gate.py" not in step
            continue
        *runs, check = [shlex.split(part) for part in step.split(" && ")]
        name = check[3]
        assert check[:3] == ["python", "tests/golden/gate.py", "compare"]
        assert [r[:5] for r in runs] == [["python", "-W", "error", "-m", "csoc.cli"]] * len(runs)
        assert [tuple(r[6:-2]) for r in runs] == list(gate.CONFIGS[name])
        assert {r[-1] for r in runs} == {check[4]}
        compared.append(name)
    assert sorted(compared) == sorted(gate.CONFIGS)


@pytest.mark.parametrize("name", ["default", "probes-1024"])
def test_a_run_reproduces_its_recorded_artifacts(name, tmp_path, capsys):
    gate.run_config(name, tmp_path)
    mode, problems = gate.compare(name, tmp_path, GOLDEN)
    with capsys.disabled():
        print(f"\ngolden gate {name}: compared {mode}")
    assert not problems, "\n".join(problems)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-default")
    gate.run_config("default", out)
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
