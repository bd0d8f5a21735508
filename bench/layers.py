"""Time each layer of csoc on its own and write BENCH_<label>.json.

One record holds three families of entries, at the sizes of the perfbench
workloads they come from.

stochastic (those of `ensemble`):

    wiener._draw_paths        34,236 paths x 200 steps, into one (STEPS, n, 4) buffer
    sde.integrate             34,236 paths x 200 steps, whole trajectory stored
    sde.estimate_action        4,096 paths x 200 steps, action only, in path blocks
    wiener.moment_check       1e6 increment samples

An entry also holds the throughput (path-steps/s, or samples/s for
moment_check), the array bytes computed from the sizes (the one dWx buffer
filled, the stored states, the action's one dWx block buffer plus its final
states and actions, the (9, n) sample block of moment_check) and the peak
bytes numpy allocated during one call, traced with tracemalloc outside the
timed rounds.

probe (those of `probe-sweep`, seed 1, 1,024 probes, its own inputs):

    ccalc.analyticity_scan       the analytic and the contaminated field, blocks of 32 probes
    control.equivalence_audit    EM Lagrangian with a constant potential, blocks of 32 probes
    hjb.hjb_residual_probe       EM closed-form control
    hjb.hjb_residual_probe       quadratic_lagrangian (the Newton path)
    hjb.hjb_residual_pair        the real pair of the EM field, h = 1e-3
    dirac.route_consistency      coupled plane wave, components (0, 2)
    dirac.linearized_residual    coupled plane wave, separable in tau

A filling sweep first runs each call with every field and `PlaneWave.phi`
memoized on (tau, z bytes), storing each value and logging each field and
spinor call (the log gives the calls per probe). Four modes are timed:

    live      the sweep with the workload's fields
    memo      the sweep with the memoized fields: csoc's own code plus a
              dict lookup per field call
    fields    the logged calls replayed on the workload's fields, no csoc
    lookups   the logged calls replayed on the memoized fields

and the entry's own time is csoc = memo - lookups. `PlaneWave.phi` is
csoc's code, so for the two Dirac calls fields moves with the tree.

cli (the golden gate's `run all` configs without a charge): every runner of
cli.RUNNERS at `default` (every key at its default) and at `probes-1024`
(--probes 1024), writing its CSV and JSON side files into a temporary
directory as `csoc run all` calls it; the scenario report and manifest that
`run` adds are not written. An entry also holds whether every check passed;
tests/golden/ pins the bytes every runner writes.

Every family warms up first: the stochastic calls at 1/64 of their sizes,
the filling sweeps, one call of each runner. Then REPEATS (5) rounds each
time the yardstick and then every entry once. The yardstick is cr-scan's
per-point analytic field at 4,096 fixed points: Python and numpy only, the
same code whatever the csoc sources. An entry holds the quartiles of each
mode's seconds and per_yardstick, the median of its own seconds over the
yardstick's. The machine's speed drifts between runs on a shared host, by
up to 30% over minutes, and this ratio of two times taken in the same
rounds compares two trees through such drift, where the seconds alone do
not. This is a record for comparing two trees, not a pass/fail gate.

    python3 bench/layers.py --label parent --src ../parent/src
    python3 bench/layers.py --label change

`--src` picks the csoc sources to import (default: ./src next to this
script); the probe inputs come from perfbench/workloads.py next to it. The
record names the sources by the git rev of the repository holding them
(suffixed -dirty when it has uncommitted changes) and by a sha256 of their
csoc/*.py files, computed as perfbench's stamp does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 200
D_TAU = 1e-3
INTEGRATE_PATHS = 34_236
ACTION_PATHS = 4_096
MOMENT_SAMPLES = 1_000_000
F64 = 8
SEED = 1
PROBES = 1024
FIELDS = ("analytic", "contaminated", "audit_field", "em_value", "quad_value", "em_r", "em_i")
CONFIGS = {"default": {}, "probes-1024": {"probes": "1024"}}
YARDSTICK_POINTS = 4096
REPEATS = 5   # timed rounds


def stochastic(csoc, np, scale: int = 1) -> list:
    """(record, timed calls) per stochastic layer, its path and sample counts
    divided by scale; warmed up, and its peak traced."""
    spec = csoc.DiffusionSpec.natural()
    rng = np.random.default_rng(5)
    matrix = -0.5 * np.eye(4) + 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    z0 = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
    policy = csoc.linear_policy(matrix)
    lagrangian = csoc.quadratic_lagrangian(1.0, spec.metric)
    paths = max(1, INTEGRATE_PATHS // scale)
    action_paths = max(1, ACTION_PATHS // scale)
    samples = max(10_000, MOMENT_SAMPLES // scale)

    def increments(k):
        return csoc.wiener._draw_paths(np.empty((STEPS, max(1, paths // k), 4)), D_TAU, 11)

    def integrate(k):
        return csoc.sde.integrate(policy, spec, z0, D_TAU, STEPS, max(1, paths // k), 12)

    def action(k):
        return csoc.sde.estimate_action(lagrangian, policy, spec, z0, D_TAU, STEPS,
                                        max(1, action_paths // k), 13)

    def moments(k):
        return csoc.wiener.moment_check(spec, np.zeros(4), np.zeros(4), D_TAU,
                                        max(10_000, samples // k), 14)

    # estimate_action's dWx buffer holds its widest path block (sde's block rule)
    per_block = min(csoc.sde._BLOCK_PATHS, max(2, csoc.sde._BLOCK_BYTES // (STEPS * 32)))
    n_blocks = max(1, action_paths // per_block)
    action_bytes = (STEPS * -(-action_paths // n_blocks) * 4 * F64
                    + action_paths * 5 * 2 * F64)   # complex z (4 a path) and action
    path_sizes = {"paths": paths, "steps": STEPS}
    layers = [
        ("wiener", "_draw_paths", path_sizes, paths * STEPS, "path-steps",
         paths * STEPS * 4 * F64, increments),
        ("sde", "integrate", path_sizes, paths * STEPS, "path-steps",
         paths * (STEPS + 1) * 8 * F64, integrate),
        ("sde", "estimate_action", {"paths": action_paths, "steps": STEPS},
         action_paths * STEPS, "path-steps", action_bytes, action),
        ("wiener", "moment_check", {"samples": samples}, samples, "samples",
         9 * samples * F64, moments),
    ]
    out = []
    for layer, name, sizes, work, unit, array_bytes, call in layers:
        call(64)   # warm-up at 1/64 of the size
        tracemalloc.start()
        try:
            result = call(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        record = {"family": "stochastic", "layer": layer, "name": name, "sizes": sizes,
                  "work": work, "work_unit": unit, "array_bytes": array_bytes,
                  "peak_traced_bytes": peak}
        out.append((record, {"call": lambda call=call: call(1)}))
    return out


def load_workloads():
    """perfbench's workloads module; it imports csoc when a workload is built."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _memo(f):
    """f memoized on tau and the bytes of each array argument."""
    cache = {}

    def memo(tau, *arrays):
        key = (tau, *[a.tobytes() for a in arrays])
        v = cache.get(key)
        if v is None:
            v = cache[key] = f(tau, *arrays)
        return v
    return memo


def probe_sweeps(csoc, np, sweep) -> list:
    """(layer, name, sweep(fields, phi, probes)) per timed call; fields maps
    the workload's field names to callables, phi is the spinor."""
    metric_problem = dict(diffusion=sweep.spec, tau_f=sweep.tau_f)
    problem_em = csoc.HJBProblem(lagrangian=sweep.em, **metric_problem)
    problem_quad = csoc.HJBProblem(lagrangian=sweep.quad, **metric_problem)
    a_wave = sweep.wave.potential()
    block = min(32, len(sweep.probes))

    def blocks(probes):
        return (probes[i:i + block] for i in range(0, len(probes), block))

    def scans(f, phi, probes):
        for b in blocks(probes):
            csoc.ccalc.analyticity_scan(f["analytic"], b)
            csoc.ccalc.analyticity_scan(f["contaminated"], b)

    def audit(f, phi, probes):
        for b in blocks(probes):
            csoc.control.equivalence_audit(sweep.em, f["audit_field"], b)

    def em_probe(f, phi, probes):
        for tau, z in probes:
            csoc.hjb.hjb_residual_probe(problem_em, f["em_value"], tau, z)

    def newton_probe(f, phi, probes):
        for tau, z in probes:
            r = csoc.hjb.hjb_residual_probe(problem_quad, f["quad_value"], tau, z)
            assert r.control_method == "newton"

    def pair(f, phi, probes):
        for tau, z in probes:
            csoc.hjb.hjb_residual_pair(problem_em, f["em_r"], f["em_i"], tau,
                                       z.real, z.imag, h=1e-3)

    def route(f, phi, probes):
        for tau, z in probes:
            csoc.dirac.route_consistency(sweep.gammas, phi, tau, z, q=sweep.q_wave,
                                         A=a_wave, components=(0, 2))

    def linearized(f, phi, probes):
        for tau, z in probes:
            np.abs(csoc.dirac.linearized_residual(sweep.gammas, phi, tau, z, lam=sweep.wave.lam,
                                                  q=sweep.q_wave, A=a_wave))

    return [
        ("ccalc", "analyticity_scan", scans),
        ("control", "equivalence_audit", audit),
        ("hjb", "hjb_residual_probe.em", em_probe),
        ("hjb", "hjb_residual_probe.newton", newton_probe),
        ("hjb", "hjb_residual_pair", pair),
        ("dirac", "route_consistency", route),
        ("dirac", "linearized_residual", linearized),
    ]


def probe(csoc, np, sweep) -> list:
    """(record, timed modes) per probe-sweep call, after its filling sweep."""
    out = []
    probes = sweep.probes
    for layer, name, run in probe_sweeps(csoc, np, sweep):
        live = {field: getattr(sweep, field) for field in FIELDS}
        live["phi"] = sweep.wave.phi
        memo = {field: _memo(f) for field, f in live.items()}
        log = []

        def logged(field, memo=memo, log=log):
            f = memo[field]

            def call(*args):
                log.append((field, args))
                return f(*args)
            return call

        run({field: logged(field) for field in FIELDS}, logged("phi"), probes)

        def replay(fns, log=log):
            for field, args in log:
                fns[field](*args)

        spinor = sum(field == "phi" for field, _ in log)
        record = {"family": "probe", "layer": layer, "name": name, "probes": len(probes),
                  "field_calls_per_probe": (len(log) - spinor) / len(probes),
                  "spinor_calls_per_probe": spinor / len(probes)}
        timed = {"live": lambda run=run, live=live: run(live, live["phi"], probes),
                 "memo": lambda run=run, memo=memo: run(memo, memo["phi"], probes),
                 "fields": lambda replay=replay, live=live: replay(live),
                 "lookups": lambda replay=replay, memo=memo: replay(memo)}
        out.append((record, timed))
    return out


def runners(cli, configs: dict, out_dir: Path) -> list:
    """(record, timed call) per runner of cli.RUNNERS at every config, after
    one call whose report the record describes."""
    out = []
    for config, flags in configs.items():
        cfg = cli.config_from_layers({**flags, "out_dir": str(out_dir / config)})
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, runner in cli.RUNNERS.items():
            checks = runner(cfg).get("checks", [])
            record = {"family": "cli", "layer": "cli", "name": name, "config": config,
                      "passed": bool(checks) and all(c["passed"] for c in checks)}
            out.append((record, {"call": lambda runner=runner, cfg=cfg: runner(cfg)}))
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


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


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


def bench(src: Path, label: str, scale: int = 1, probes: int = PROBES,
          configs: dict = CONFIGS, points: int = YARDSTICK_POINTS,
          repeats: int = REPEATS) -> dict:
    """The record of one run on the csoc sources at src, which sys.path
    already finds; the sizes are those of the module docstring unless a
    test shrinks them."""
    import numpy as np
    import csoc
    from csoc import cli

    reference = yardstick(np, points)
    yard_times = []
    with tempfile.TemporaryDirectory() as tmp:
        entries = (stochastic(csoc, np, scale)
                   + probe(csoc, np, load_workloads().ProbeSweep(SEED, probes))
                   + runners(cli, configs, Path(tmp)))
        times = [{mode: [] for mode in timed} for _, timed in entries]
        for _ in range(repeats):
            yard_times.append(seconds(reference))
            for (_, timed), entry_times in zip(entries, times):
                for mode, call in timed.items():
                    entry_times[mode].append(seconds(call))
    yard = quartiles(yard_times)
    records = []
    for (record, _), entry_times in zip(entries, times):
        if record["family"] == "probe":
            entry_times["csoc"] = [m - k for m, k in zip(entry_times["memo"],
                                                         entry_times["lookups"])]
        q = {mode: quartiles(t) for mode, t in entry_times.items()}
        q1, median, q3 = q["csoc" if record["family"] == "probe" else "call"]
        record |= {"median_s": median, "per_yardstick": median / yard[1],
                   "quartiles_s": q, "times_s": entry_times}
        if "work" in record:
            record["work_per_s"] = record["work"] / median
        records.append(record)
        where = f" {record['config']}" if "config" in record else ""
        print(f"{record['layer']}.{record['name']}{where}: "
              f"{1e3 * median:.1f} ms (q1 {1e3 * q1:.1f}, q3 {1e3 * q3:.1f}), "
              f"{median / yard[1]:.3f} yardsticks",
              file=sys.stderr)
    return {
        "label": label, "git_rev": git_rev(src), "src_sha256": src_sha256(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "repeats": repeats, "seed": SEED, "configs": configs,
        "yardstick": {"points": points, "quartiles_s": yard, "times_s": yard_times},
        "entries": records,
    }


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
    record = bench(src, args.label)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
