"""Time the stochastic layers of csoc one at a time and write BENCH_<label>.json.

Layers and sizes (those of the perfbench `ensemble` workload):

    wiener._draw_paths        34,236 paths x 200 steps, into one (STEPS, n, 4) buffer
    sde.integrate             34,236 paths x 200 steps, whole trajectory stored
    sde.estimate_action        4,096 paths x 200 steps, action only, in path blocks
    wiener.moment_check       1e6 increment samples

Each layer is called once small to warm up, then timed REPEATS (5) times in
this one process; an entry holds the median and quartiles of those times,
the throughput (path-steps/s, or samples/s for moment_check), the array
bytes computed from the sizes (the one dWx buffer filled, the stored
states, the action's one dWx block buffer plus its final states and
actions, the (9, n) sample block of moment_check) and the peak bytes
numpy allocated during one further call, traced with tracemalloc outside
the timed repeats. Timings on a shared machine drift; this is a record for
comparing two trees, not a pass/fail gate.

    python3 bench/sde_layers.py --label parent --src ../parent/src
    python3 bench/sde_layers.py --label change

`--src` picks the csoc sources to import (default: ./src next to this
script). The draw layer is looked up as wiener._draw_paths, or as its
earlier home sde._draw_increments, so older trees can be timed too; the
action's dWx bytes follow the block rule of the sources timed, whose byte
budget is sde._BLOCK_BYTES and width cap sde._BLOCK_PATHS; sources without a
budget hold every path's dWx, and sources without a cap let the budget alone
set the width. The record names the sources by the git rev of the repository
holding them (suffixed -dirty when it has uncommitted changes) and by a
sha256 of their csoc/*.py files, computed as perfbench's stamp does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 200
D_TAU = 1e-3
INTEGRATE_PATHS = 34_236
ACTION_PATHS = 4_096
MOMENT_SAMPLES = 1_000_000
REPEATS = 5   # timed calls per layer
F64 = 8


def layers(csoc, np):
    """(name, layer, sizes, work, work unit, array bytes, call(scale)) per layer."""
    spec = csoc.DiffusionSpec.natural()
    rng = np.random.default_rng(5)
    matrix = -0.5 * np.eye(4) + 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    z0 = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
    policy = csoc.linear_policy(matrix)
    lagrangian = csoc.quadratic_lagrangian(1.0, spec.metric)

    draw = getattr(csoc.wiener, "_draw_paths", None) or csoc.sde._draw_increments

    def paths(n, scale):
        return max(1, n // scale)

    def increments(scale):
        out = np.empty((STEPS, paths(INTEGRATE_PATHS, scale), 4))
        return draw(out, D_TAU, 11)

    def integrate(scale):
        return csoc.sde.integrate(policy, spec, z0, D_TAU, STEPS, paths(INTEGRATE_PATHS, scale), 12)

    def action(scale):
        return csoc.sde.estimate_action(lagrangian, policy, spec, z0, D_TAU, STEPS,
                                        paths(ACTION_PATHS, scale), 13)

    def moments(scale):
        return csoc.wiener.moment_check(spec, np.zeros(4), np.zeros(4), D_TAU,
                                        max(10_000, MOMENT_SAMPLES // scale), 14)

    # estimate_action's dWx buffer holds its widest path block, by the block
    # rule of the sources timed; sources without one hold every path's dWx,
    # and sources without a width cap let the byte budget alone set it
    budget = getattr(csoc.sde, "_BLOCK_BYTES", None)
    cap = getattr(csoc.sde, "_BLOCK_PATHS", ACTION_PATHS)
    per_block = ACTION_PATHS if budget is None else min(cap, max(2, budget // (STEPS * 32)))
    n_blocks = max(1, ACTION_PATHS // per_block)
    action_bytes = (STEPS * -(-ACTION_PATHS // n_blocks) * 4 * F64
                    + ACTION_PATHS * 5 * 2 * F64)   # complex z (4 a path) and action
    increment_bytes = INTEGRATE_PATHS * STEPS * 4 * F64
    return [
        (draw.__name__, draw.__module__.split(".")[-1], {"paths": INTEGRATE_PATHS, "steps": STEPS},
         INTEGRATE_PATHS * STEPS, "path-steps", increment_bytes, increments),
        ("integrate", "sde", {"paths": INTEGRATE_PATHS, "steps": STEPS},
         INTEGRATE_PATHS * STEPS, "path-steps", INTEGRATE_PATHS * (STEPS + 1) * 8 * F64, integrate),
        ("estimate_action", "sde", {"paths": ACTION_PATHS, "steps": STEPS},
         ACTION_PATHS * STEPS, "path-steps", action_bytes, action),
        ("moment_check", "wiener", {"samples": MOMENT_SAMPLES},
         MOMENT_SAMPLES, "samples", 9 * MOMENT_SAMPLES * F64, moments),
    ]


def git_rev(path: Path):
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=path, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "csoc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(call) -> tuple[list[float], int]:
    """Seconds of each timed call, then the traced peak bytes of one more."""
    call(64)  # warm-up at 1/64 of the size
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call(1)
        times.append(time.perf_counter() - start)
        del result
    tracemalloc.start()
    try:
        result = call(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return times, peak


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
    import csoc

    entries = []
    for name, layer, sizes, work, unit, array_bytes, call in layers(csoc, np):
        times, peak = measure(call)
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        entries.append({
            "name": name, "layer": layer, "sizes": sizes, "repeats": REPEATS,
            "median_s": median, "q1_s": q1, "q3_s": q3, "times_s": times,
            "work": work, "work_unit": unit, "work_per_s": work / median,
            "array_bytes": array_bytes, "peak_traced_bytes": peak,
        })
        print(f"{layer}.{name}: median {median:.3f} s (q1 {q1:.3f}, q3 {q3:.3f}), "
              f"{work / median:.3g} {unit}/s, peak {peak / 1e6:.0f} MB", file=sys.stderr)
    record = {
        "label": args.label, "git_rev": git_rev(src), "src_sha256": src_sha256(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(), "entries": entries,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
