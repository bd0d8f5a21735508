"""The golden-number gate: every `csoc run` artifact pinned across changes.

digests.json holds, for each config in CONFIGS, the SHA-256 of every file a
run writes except manifest.json (whose timestamp changes every run), the
`passed` flag and `value` of every check in its reports, and the numpy
version, Python version and platform the digests were recorded on.

    python tests/golden/gate.py record             # rerun every config, rewrite digests.json
    python tests/golden/gate.py check              # rerun every config, compare each
    python tests/golden/gate.py compare NAME DIR   # check a finished run of config NAME in DIR

A comparison made on the recording's numpy, Python and platform compares
bytes: every artifact must have its recorded digest. Elsewhere numpy's or
libm's arithmetic may round a last bit differently, and most check values
are stencil roundoff, so it compares values instead: the same artifact
names, the same checks with the same `passed` flags, and each value within
VALUE_RTOL of the recorded one plus a floor of FLOOR_SHARE times the
check's limit. Either way the comparison says which one it made.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "digests.json"
SRC = HERE.parents[1] / "src"

_CHARGE = ("--metric", "mostly-minus", "--q", "0.5", "--potential", "linear-electric(0.3)")
# each config: the `csoc run` arguments of each command, run in order into one directory
CONFIGS = {
    "default": (("all",),),
    "probes-1024": (("all", "--probes", "1024"),),
    "scan-audit-4096": (("cr-scan", "--probes", "4096"),
                        ("equivalence-audit", "--probes", "4096")),
    "charged": (("all",) + _CHARGE,),
    "anticorrelated": (("all", "--epsilon", "-1"),),
    "charged-1024": (("all", "--probes", "1024") + _CHARGE + ("--epsilon", "-1"),),
    "sde-demo-300": (("sde-demo", "--demo-paths", "300", "--epsilon", "-1", "--sigma-x", "0.7"),),
    "moments-1e6": (("moments", "--n-paths", "1000000", "--epsilon", "-1", "--sigma-x", "0.7"),),
}
VALUE_RTOL = 1e-6    # relative tolerance of a check value under the value comparison
FLOOR_SHARE = 0.05   # plus this share of the check's limit, as an absolute floor


def environment() -> dict:
    """What decides the bits of a run: numpy, Python and the platform."""
    libc = "-".join(platform.libc_ver())
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}-{libc}"}


def run_config(name: str, out_dir: Path) -> list[str]:
    """Run config name's commands on this tree's src into out_dir, warnings
    as errors: what each command that did not exit 0 printed."""
    failures = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for args in CONFIGS[name]:
        cmd = [sys.executable, "-W", "error", "-m", "csoc.cli", "run", *args,
               "--out-dir", str(out_dir)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return failures


def digest(out_dir: Path) -> dict:
    """The SHA-256 of every pinned artifact in out_dir, and every report's checks."""
    sha, checks = {}, {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        sha[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json":
            report = json.loads(data)
            if "checks" in report:
                checks[path.name] = {c["name"]: {"passed": c["passed"], "value": c["value"],
                                                 "limit": c["limit"]}
                                     for c in report["checks"]}
    return {"sha256": sha, "checks": checks}


def _close(value, recorded, limit) -> bool:
    """value against recorded under the value comparison; non-finite values
    (written as strings) must be equal."""
    if isinstance(value, str) or isinstance(recorded, str):
        return value == recorded
    return (abs(value - recorded)
            <= VALUE_RTOL * max(abs(value), abs(recorded)) + FLOOR_SHARE * abs(limit))


def compare(name: str, out_dir: Path, golden: dict | None = None) -> tuple[str, list[str]]:
    """Compare a finished run of config name with its recorded digests:
    the comparison made ("bytes" or "values") and the differences found."""
    golden = json.loads(GOLDEN.read_text()) if golden is None else golden
    want, got = golden["configs"][name], digest(out_dir)
    problems = []
    if sorted(got["sha256"]) != sorted(want["sha256"]):
        problems.append(f"artifacts {sorted(got['sha256'])}, recorded {sorted(want['sha256'])}")
    if environment() == golden["environment"]:
        problems += [f"{f}: sha256 {got['sha256'].get(f)}, recorded {h}"
                     for f, h in want["sha256"].items() if got["sha256"].get(f) != h]
        return "bytes", problems
    for f, checks in want["checks"].items():
        have = got["checks"].get(f, {})
        if sorted(have) != sorted(checks):
            problems.append(f"{f}: checks {sorted(have)}, recorded {sorted(checks)}")
            continue
        for check, rec in checks.items():
            now = have[check]
            if now["passed"] != rec["passed"] or not _close(now["value"], rec["value"], rec["limit"]):
                problems.append(f"{f} {check}: passed {now['passed']} value {now['value']}, "
                                f"recorded passed {rec['passed']} value {rec['value']}")
    return "values", problems


def runs():
    """(name, directory, failures) of each config run into a temporary directory."""
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            yield name, Path(tmp), run_config(name, Path(tmp))


def record() -> None:
    """Rewrite digests.json from a run of every config, unless a command fails."""
    configs = {}
    for name, out_dir, failures in runs():
        if failures:
            raise RuntimeError("\n".join(failures))
        configs[name] = {"commands": [list(a) for a in CONFIGS[name]], **digest(out_dir)}
        print(f"recorded {name}: {len(configs[name]['sha256'])} artifacts")
    payload = {"environment": environment(), "configs": configs}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        record()
        return 0
    if argv == ["check"]:   # a command that did not exit 0 is one of its config's problems
        golden = json.loads(GOLDEN.read_text())
        results = ((name, *compare(name, out_dir, golden), failures)
                   for name, out_dir, failures in runs())
    elif len(argv) == 3 and argv[0] == "compare" and argv[1] in CONFIGS:
        results = [(argv[1], *compare(argv[1], Path(argv[2])), [])]
    else:
        print(f"usage: gate.py record | check | compare {{{','.join(CONFIGS)}}} DIR", file=sys.stderr)
        return 2
    failed = 0
    for name, mode, problems, failures in results:
        problems = failures + problems
        head = f"{len(problems)} differences" if problems else "no difference"
        print("\n  ".join([f"golden gate {name}: compared {mode}, {head}", *problems]))
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
