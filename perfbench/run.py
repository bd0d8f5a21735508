#!/usr/bin/env python3
"""Benchmark of csoc, timed from outside through each layer's public functions.

    python3 perfbench/run.py --workload probe-sweep --seed 1 --seconds 35 --trace 0

Workloads: probe-sweep, ensemble, cli-default (see workloads.py and NOTES.md).
Run it from the root of a checkout; csoc is imported from ./src, not installed.

A run builds its inputs from the seed, runs one short warm-up pass, then
repeats passes over the same inputs for --seconds; wall_s is built from the
90th percentile of the timed segments of those passes (see pass_wall).

--trace 0 prints the end-to-end metrics wall_s, work_per_s, setup_s and
peak_rss_mb. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics, including trace.overhead_s. Before the result one line
{"stamp": ...} records versions, machine, seed, input sizes and the quartiles
of the passes. The last line of stdout is always one JSON object with the
keys correct, attempted, failed and metrics.

Every pass's outputs are checked; a failed check is a failed operation. The
run exits 2 without a result when the csoc sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, patched_layers  # noqa: E402

WORKLOADS = ("probe-sweep", "ensemble", "cli-default")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
READY = "perfbench-ready"


def make_workload(name: str, seed: int):
    if name == "probe-sweep":
        return workloads.ProbeSweep(seed)
    if name == "ensemble":
        return workloads.Ensemble(seed)
    return workloads.CliDefault(seed, ROOT)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> list:
    if len(values) < 2:
        return [median(values)] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def timed_pass(wl, tracer=None, warm_up=False) -> workloads.PassResult:
    """Run and time one pass; an exception fails every operation of the pass."""
    t0 = time.perf_counter()
    try:
        result = wl.warm_up() if warm_up else wl.run(tracer)
    except Exception as exc:  # a crash in the library is a failed pass, not a crash here
        result = workloads.PassResult()
        result.check(False, f"pass raised {exc!r}", n=wl.ops_per_pass)
    if result.seconds is None:
        result.seconds = time.perf_counter() - t0
    if not result.phases:
        result.phases = {"pass": [result.seconds]}
    return result


def quantile(values, q: float) -> float:
    """The q-quantile of values, interpolating between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


SEGMENT_QUANTILE = 0.9


def pass_wall(passes) -> float:
    """Seconds for one pass: the sum over its phases of segments per pass x
    the 90th percentile of that phase's segment times over all passes.

    A phase is a run of segments doing equal work: probe-sweep's 32 blocks of
    32 probes, each of the ensemble stepper's 200 steps, or a part timed once
    per pass (a whole cli-default child). The host runs the vCPU in two
    states about 1.8x apart, each lasting 5-30 s, so the median over a run's
    segments flips between them from run to run. The 90th percentile sits on
    the slow state, which nearly every run visits, so runs agree; a change
    that slows or speeds every segment moves it in proportion.
    """
    total = 0.0
    for phase, segments in passes[0].phases.items():
        pooled = [s for p in passes for s in p.phases.get(phase, ())]
        total += len(segments) * quantile(pooled, SEGMENT_QUANTILE)
    return total


# ------------------------------------------------------------------ set-up

def setup_samples(workload: str, seed: int) -> list:
    """Seconds from spawn to inputs ready, each in a fresh interpreter.

    Each child repeats what the measuring process did before its warm-up
    pass: interpreter start, imports and input generation from the seed.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up child exited with code {proc.returncode}")
    return out


def import_breakdown() -> tuple[float, float]:
    """Median seconds of `import csoc.cli` and of the scipy imports within it.

    Read from `python -X importtime` in fresh interpreters: csoc is the sum of
    the outermost csoc entries, scipy of the scipy entries with no scipy
    ancestor.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, scipys = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import csoc.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = (len(name) - len(name.lstrip())) // 2
                entries.append((depth, name.strip(), int(parts[1]) / 1e6))
        totals.append(sum(c for d, n, c in entries
                          if d == 1 and n.split(".")[0] == "csoc"))
        scipys.append(_outermost(entries, "scipy"))
    return median(totals), median(scipys)


def _outermost(entries, package: str) -> float:
    """Cumulative time of the package's entries not nested in another of its entries.

    importtime prints a module after everything it imported, so an entry's
    descendants are the entries just before it with a greater depth.
    """
    total = 0.0
    covered_depth = None   # depth of the package entry whose children we are in
    for depth, name, cumulative in reversed(entries):
        if covered_depth is not None and depth <= covered_depth:
            covered_depth = None
        if covered_depth is None and name.split(".")[0] == package:
            total += cumulative
            covered_depth = depth
    return total


# ------------------------------------------------------------------ metrics

def end_to_end(wl, passes, setup_s) -> dict:
    wall = pass_wall(passes)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "work_per_s": {"value": wl.work / wall, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
    }


def per_layer(wl, tracers, overhead_s, imports) -> dict:
    """Times are medians over the traced passes; counts, which repeat
    exactly, come from the last traced pass."""
    t = tracers[-1]
    counts = t.counts

    def busy(prefix):
        return median([tr.busy(prefix) for tr in tracers])

    def share(num, den):
        return num / den if den else 0.0

    def tally(key):
        return t.tallies.get(key, (0, 0))

    audit_probes = counts["control.audit_probes"]
    solves = t.fn_calls("control", "solve_optimal_control") + 2 * audit_probes
    hjb_probes = t.fn_calls("hjb", "hjb_residual_probe", "hjb_residual_pair")
    is_ensemble = isinstance(wl, workloads.Ensemble)
    cli = getattr(wl, "traces", [])
    m = {
        "ccalc.busy_s": (busy("ccalc"), "s"),
        "ccalc.field_calls": (tally("field")[0], "count"),
        "ccalc.field_points": (tally("field")[1], "count"),
        "control.busy_s": (busy("control"), "s"),
        "control.solves": (solves, "count"),
        "control.grad_calls_per_solve": (share(t.entered("lagrangian.grad", "control"), solves),
                                         "count"),
        "control.evaluated_share": (share(counts["control.evaluated"], audit_probes), "share"),
        "lagrangian.busy_s": (busy("lagrangian"), "s"),
        "lagrangian.grad_calls": (t.entered("lagrangian.grad"), "count"),
        "lagrangian.value_calls": (t.entered("lagrangian.value"), "count"),
        "hjb.busy_s": (busy("hjb"), "s"),
        "hjb.probes": (hjb_probes, "count"),
        "hjb.newton_share": (share(t.entered("control", "hjb"), hjb_probes), "share"),
        "dirac.busy_s": (busy("dirac"), "s"),
        "dirac.spinor_calls": (tally("spinor")[0], "count"),
        "wiener.busy_s": (busy("wiener"), "s"),
        "wiener.increments": (counts["wiener.increments"], "count"),
        "wiener.flagged_lines": (counts["wiener.flagged"], "count"),
        "sde.increments_s": (busy("sde.increments"), "s"),
        "sde.integrate_s": (busy("sde.integrate"), "s"),
        "sde.action_s": (busy("sde.action"), "s"),
        "sde.path_steps": (tally("policy")[1], "count"),
        "sde.policy_calls": (tally("policy")[0], "count"),
        "sde.failed_paths": (counts["sde.failed_paths"], "count"),
        "sde.array_mb": (wl.array_bytes() / 1e6 if is_ensemble else 0.0, "MB"),
        "cli.import_s": (imports[0], "s"),
        "cli.import_scipy_s": (imports[1], "s"),
    }
    for name in workloads.CLI_SCENARIOS:
        m[f"cli.scenario_s.{name}"] = (median([c["scenario_s"].get(name, 0.0) for c in cli]), "s")
    m["cli.io_s"] = (median([c["run_s"] - sum(c["scenario_s"].values()) for c in cli]), "s")
    m["cli.artifact_bytes"] = (cli[-1]["artifact_bytes"] if cli else 0, "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def csoc_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "csoc" or n.startswith("csoc.")]


# ------------------------------------------------------------------ stamp

def stamp(args, wl, passes, extra: dict) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "csoc").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
    q1, q2, q3 = quartiles([p.seconds for p in passes])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "l3_bytes": int(l3.stdout) if l3.stdout.strip().isdigit() else None,
        "sizes": wl.sizes(),
        "passes": {"n": len(passes), "q1_s": q1, "median_s": q2, "q3_s": q3,
                   "segments": {ph: len(seg) for ph, seg in passes[0].phases.items()}},
        **extra,
    }


# ------------------------------------------------------------------ runs

def measure(args, wl) -> dict:
    t_begin = time.perf_counter()
    warm = timed_pass(wl, warm_up=True)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    # start another pass only if at least half of it fits in the time left
    while not plain or (time.perf_counter() - start + 0.5 * plain[-1].seconds
                        * (2 if args.trace else 1)) < args.seconds:
        plain.append(timed_pass(wl))
        if args.trace:
            tracers.append(Tracer())
            with patched_layers(tracers[-1], csoc_modules()):
                traced.append(timed_pass(wl, tracers[-1]))

    if args.trace:
        overhead = pass_wall(traced) - pass_wall(plain)
        metrics = per_layer(wl, tracers, overhead, import_breakdown())
        extra = {"traced_passes": {"n": len(traced), "wall_s": pass_wall(traced)}}
        write_spans(args.workload, tracers[-1])
    else:
        setup = setup_samples(args.workload, args.seed)
        metrics = end_to_end(wl, plain, median(setup) + warm.seconds)
        extra = {"setup": {"spawn_to_inputs_s": setup, "warmup_s": warm.seconds,
                           "in_process_inputs_s": t_begin - T_START}}
    results = [warm, *plain, *traced]
    failed = sum(r.failed for r in results)
    notes = sorted({n for r in results for n in r.notes})
    print(json.dumps({"stamp": stamp(args, wl, plain, extra), "failures": notes[:8]}))
    return {"correct": failed == 0, "attempted": sum(r.attempted for r in results),
            "failed": failed, "metrics": metrics}


def write_spans(workload: str, tracer: Tracer) -> None:
    """Keep the last traced pass's spans: name, start, end, parent index."""
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}.json", "w") as fh:
        json.dump({"spans": tracer.spans}, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "csoc" / "__init__.py").is_file():
        print(f"perfbench: no csoc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = make_workload(args.workload, args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0
    try:
        result = measure(args, wl)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
