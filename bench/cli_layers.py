"""Time each scenario runner of `csoc run` in process and write BENCH_<label>.json.

Configs (those of the CI `run all` steps without a charge):

    default        every key at its default (64 probes, 1e5 moment samples)
    probes-1024    --probes 1024

Each runner of cli.RUNNERS is called on the config cli resolves from those
flags, writing its CSV and JSON side files into a temporary directory, as
`csoc run all` calls it; the scenario report and manifest that `run` adds
are not written. One warm-up round runs every runner at every config, then
REPEATS (7) rounds each time, back to back, the yardstick and every runner
at every config. The yardstick is the per-point analytic field of cr-scan
as it was written before the presets took rows, called at 4,096 fixed
points: Python and numpy only, the same code whatever the csoc sources.
An entry holds the median and quartiles of a runner's seconds and
per_yardstick, its median over the yardstick's: the machine's speed drifts
between runs on a shared host, and this ratio of two times taken in the
same rounds compares two trees through such drift, where the seconds alone
do not. An entry also holds a sha256 of the runner's report as strict JSON,
so two records show whether the trees report the same numbers. This is a
record for comparing two trees, not a pass/fail gate.

    python3 bench/cli_layers.py --label cli-parent --src ../parent/src
    python3 bench/cli_layers.py --label cli-change

`--src` picks the csoc sources to import (default: ./src next to this
script). The record names the sources by git rev and by a sha256 of their
csoc/*.py files, as bench/sde_layers.py does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {"default": {}, "probes-1024": {"probes": "1024"}}
REPEATS = 7   # timed rounds
YARDSTICK_POINTS = 4096


def load(name: str, path: Path):
    """A module from its file, registered under name, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runners(cli, configs: dict, out_dir: Path) -> list:
    """(scenario, config name, call) for every runner at every config; each
    call returns the runner's report."""
    out = []
    for config, flags in configs.items():
        cfg = cli.config_from_layers({**flags, "out_dir": str(out_dir / config)})
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, runner in cli.RUNNERS.items():
            out.append((name, config, lambda runner=runner, cfg=cfg: runner(cfg)))
    return out


def yardstick(np, n_points: int = YARDSTICK_POINTS):
    """The per-point analytic field of cr-scan at n_points fixed points."""
    eta = np.array([-1.0, 1.0, 1.0, 1.0])

    def analytic(tau, z):
        return complex(np.sum(eta * z * z)) + 0.1 * complex(np.exp(z[0])) + tau * complex(z[1])

    rng = np.random.default_rng(0)
    taus = rng.uniform(0.0, 1.0, n_points).tolist()
    zs = rng.uniform(-1.0, 1.0, (n_points, 4)) + 1j * rng.uniform(-1.0, 1.0, (n_points, 4))

    def replay():
        for tau, z in zip(taus, zs):
            analytic(tau, z)
    return replay


def report_sha256(cli, report: dict) -> str:
    """sha256 of a report as `csoc run` serializes it, strict JSON with sorted keys."""
    text = json.dumps(cli._jsonable(report), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def measure(calls: list, reference, repeats: int = REPEATS) -> dict:
    """Seconds of the yardstick and of each call per timed round, and each
    call's report from the warm-up round, keyed by (scenario, config)."""
    reports = {(name, config): call() for name, config, call in calls}
    times = {"yardstick": []} | {key: [] for key in reports}
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times["yardstick"].append(time.perf_counter() - start)
        for name, config, call in calls:
            start = time.perf_counter()
            call()
            times[(name, config)].append(time.perf_counter() - start)
    return {"times": times, "reports": reports}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="csoc sources to time")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "csoc" / "__init__.py").is_file():
        parser.error(f"no csoc sources at {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    from csoc import cli

    with tempfile.TemporaryDirectory() as tmp:
        got = measure(runners(cli, CONFIGS, Path(tmp)), yardstick(np))
    times = got["times"]
    yard = quartiles(times["yardstick"])
    entries = []
    for (name, config), report in got["reports"].items():
        q1, median, q3 = quartiles(times[(name, config)])
        checks = report.get("checks", [])
        entries.append({
            "scenario": name, "config": config, "repeats": REPEATS,
            "q1_s": q1, "median_s": median, "q3_s": q3,
            "per_yardstick": median / yard[1],
            "passed": bool(checks) and all(c["passed"] for c in checks),
            "report_sha256": report_sha256(cli, report),
            "times_s": times[(name, config)],
        })
        print(f"{config} {name}: {1e3 * median:.1f} ms (q1 {1e3 * q1:.1f}, q3 {1e3 * q3:.1f}), "
              f"{median / yard[1]:.3f} yardsticks", file=sys.stderr)
    sde_layers = load("sde_layers", Path(__file__).with_name("sde_layers.py"))
    record = {
        "label": args.label, "git_rev": sde_layers.git_rev(src),
        "src_sha256": sde_layers.src_sha256(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "configs": CONFIGS,
        "yardstick_points": YARDSTICK_POINTS,
        "yardstick_q1_s": yard[0], "yardstick_median_s": yard[1], "yardstick_q3_s": yard[2],
        "yardstick_times_s": times["yardstick"],
        "total_median_s": {config: sum(e["median_s"] for e in entries if e["config"] == config)
                           for config in CONFIGS},
        "total_per_yardstick": {config: sum(e["per_yardstick"] for e in entries
                                            if e["config"] == config) for config in CONFIGS},
        "entries": entries,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
