"""Time the per-probe calls of the probe sweep one at a time and write BENCH_<label>.json.

Calls and sizes (those of the perfbench `probe-sweep` workload, seed 1):

    ccalc.analyticity_scan       the analytic and the contaminated field, blocks of 32 probes
    control.equivalence_audit    EM Lagrangian with a constant potential, blocks of 32 probes
    hjb.hjb_residual_probe       EM closed-form control, 1,024 probes
    hjb.hjb_residual_probe       quadratic_lagrangian (the Newton path), 1,024 probes
    hjb.hjb_residual_pair        the real pair of the EM field, h = 1e-3, 1,024 probes
    dirac.route_consistency      coupled plane wave, components (0, 2), 1,024 probes
    dirac.linearized_residual    coupled plane wave, separable in tau, 1,024 probes

The inputs are perfbench's own (`workloads.ProbeSweep`), built from the
seed. A filling sweep first runs each call with every field and
`PlaneWave.phi` memoized on (tau, z bytes), storing each value and logging
each field and spinor call (the log gives the calls per probe). Then
REPEATS (5) rounds each time five things back to back:

    live      the sweep with the workload's fields
    memo      the sweep with the memoized fields: csoc's own code plus a
              dict lookup per field call
    fields    the logged calls replayed on the workload's fields, no csoc
    lookups   the logged calls replayed on the memoized fields
    yardstick the workload's analytic field at the first 4,096 points of
              its scans, the same code whatever the csoc sources

so csoc_s = memo - lookups is csoc's own time and field_s = fields the
time of the fields, `PlaneWave.phi` included (it is csoc's code, so for the
two Dirac calls field_s moves with the tree). An entry holds the medians
and quartiles of each, and csoc_per_yardstick = csoc_s / yardstick: the
machine's speed drifts between runs on a shared host, by up to 30% over
minutes, and this ratio of two times taken in the same rounds compares two
trees through such drift, where the seconds alone do not. This is a record
for comparing two trees, not a pass/fail gate.

    python3 bench/probe_layers.py --label probe-parent --src ../parent/src
    python3 bench/probe_layers.py --label probe-change

`--src` picks the csoc sources to import (default: ./src next to this
script); the inputs come from perfbench/ next to this script. The record
names the sources by git rev and by a sha256 of their csoc/*.py files, as
bench/sde_layers.py does.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PROBES = 1024
REPEATS = 5   # timed sweeps per call and field mode
FIELDS = ("analytic", "contaminated", "audit_field", "em_value", "quad_value", "em_r", "em_i")


def load(name: str, path: Path):
    """A module from its file, registered under name, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """perfbench's workloads module; it imports csoc when a workload is built."""
    return load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def _memo(f, pair=False):
    """f memoized on (tau, z bytes), or (tau, x bytes, y bytes) for a pair field."""
    cache = {}
    if pair:
        def memo(tau, x, y):
            key = (tau, x.tobytes(), y.tobytes())
            v = cache.get(key)
            if v is None:
                v = cache[key] = f(tau, x, y)
            return v
    else:
        def memo(tau, z):
            key = (tau, z.tobytes())
            v = cache.get(key)
            if v is None:
                v = cache[key] = f(tau, z)
            return v
    return memo


def calls(sweep, csoc):
    """(name, layer, sweep(fields, phi, probes)) per timed call; fields maps
    the workload's field names to callables, phi is the spinor."""
    import numpy as np

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
        ("analyticity_scan", "ccalc", scans),
        ("equivalence_audit", "control", audit),
        ("hjb_residual_probe.em", "hjb", em_probe),
        ("hjb_residual_probe.newton", "hjb", newton_probe),
        ("hjb_residual_pair", "hjb", pair),
        ("route_consistency", "dirac", route),
        ("linearized_residual", "dirac", linearized),
    ]


def yardstick(sweep, n_calls=4096):
    """The analytic field at the first n_calls points its scans evaluate:
    perfbench's code and numpy only, the same on every tree."""
    points = []

    def record(tau, z):
        points.append((tau, z))
        return sweep.analytic(tau, z)

    rows = sweep.probes[:min(32, len(sweep.probes))]
    while len(points) < n_calls:
        sweep.csoc.ccalc.analyticity_scan(record, rows)
    points = points[:n_calls]

    def replay():
        for tau, z in points:
            sweep.analytic(tau, z)
    return replay


def measure(sweep, run, repeats=REPEATS, reference=None) -> dict:
    """The field and spinor calls per probe of one filling sweep, then the
    seconds of each round's live, memo, fields, lookups and yardstick
    timings (reference, when given, is the yardstick's replay)."""
    live = {name: getattr(sweep, name) for name in FIELDS}
    live["phi"] = sweep.wave.phi
    memo = {name: _memo(f, pair=name in ("em_r", "em_i")) for name, f in live.items()}
    log = []

    def logged(name):
        f = memo[name]

        def call(*args):
            log.append((name, args))
            return f(*args)
        return call

    probes = sweep.probes
    run({name: logged(name) for name in FIELDS}, logged("phi"), probes)

    def replay(fns):
        for name, args in log:
            fns[name](*args)

    modes = {"live": lambda: run(live, live["phi"], probes),
             "memo": lambda: run(memo, memo["phi"], probes),
             "fields": lambda: replay(live), "lookups": lambda: replay(memo),
             "yardstick": reference or yardstick(sweep)}
    times = {mode: [] for mode in modes}
    for _ in range(repeats):
        for mode, action in modes.items():
            start = time.perf_counter()
            action()
            times[mode].append(time.perf_counter() - start)
    spinor = sum(name == "phi" for name, _ in log)
    return {"field_calls_per_probe": (len(log) - spinor) / len(probes),
            "spinor_calls_per_probe": spinor / len(probes), "times": times}


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
    import csoc

    sweep = load_workloads().ProbeSweep(SEED, PROBES)
    reference = yardstick(sweep)
    entries = []
    for name, layer, run in calls(sweep, csoc):
        got = measure(sweep, run, reference=reference)
        times = got["times"]
        times["csoc"] = [m - k for m, k in zip(times["memo"], times["lookups"])]
        q = {mode: quartiles(t) for mode, t in times.items()}
        entries.append({
            "name": name, "layer": layer, "probes": PROBES, "repeats": REPEATS,
            "field_calls_per_probe": got["field_calls_per_probe"],
            "spinor_calls_per_probe": got["spinor_calls_per_probe"],
            **{f"{mode}_{key}_s": value for mode, (q1, median, q3) in q.items()
               for key, value in (("q1", q1), ("median", median), ("q3", q3))},
            "csoc_us_per_probe": 1e6 * q["csoc"][1] / PROBES,
            "csoc_per_yardstick": q["csoc"][1] / q["yardstick"][1],
            "times_s": times,
        })
        print(f"{layer}.{name}: live {q['live'][1]:.3f} s, csoc {q['csoc'][1]:.3f} s "
              f"(q1 {q['csoc'][0]:.3f}, q3 {q['csoc'][2]:.3f}), fields {q['fields'][1]:.3f} s, "
              f"csoc/yardstick {q['csoc'][1] / q['yardstick'][1]:.3f}; "
              f"{got['field_calls_per_probe']:g} field + {got['spinor_calls_per_probe']:g} "
              f"spinor calls per probe", file=sys.stderr)
    sde_layers = load("sde_layers", Path(__file__).with_name("sde_layers.py"))
    record = {
        "label": args.label, "git_rev": sde_layers.git_rev(src),
        "src_sha256": sde_layers.src_sha256(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(), "seed": SEED,
        "live_total_s": sum(e["live_median_s"] for e in entries),
        "csoc_total_s": sum(e["csoc_median_s"] for e in entries),
        "field_total_s": sum(e["fields_median_s"] for e in entries),
        "csoc_per_yardstick": sum(e["csoc_per_yardstick"] for e in entries),
        "entries": entries,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
