#!/usr/bin/env python3
"""Self-test of the benchmark's checks at a tiny size.

    python3 perfbench/selftest.py        (from the root of a checkout)

Each workload first runs clean and must report no failed operation. Then a
deliberately wrong output is fed through the same checks, and it must show
up as failed operations, not as a pass: a contaminated field declared
analytic, an HJB residual off by 1e-3, a failed path and a shifted action
estimate, a `csoc run all` whose artifacts change between passes and one that
exits non-zero. Also checked: traced counts repeat exactly at a fixed seed,
the import-time parser, and that the benchmark exits non-zero without
printing a result when the csoc sources are missing. Exits 1 on the first
miss.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched_layers  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def probe_sweep() -> None:
    import csoc
    wl = workloads.ProbeSweep(seed=5, n_probes=4)
    clean = wl.run()
    expect(clean.failed == 0 and clean.attempted == wl.ops_per_pass,
           f"probe-sweep clean pass: {clean.attempted} attempted, {clean.failed} failed")

    scan = csoc.ccalc.analyticity_scan

    def everything_analytic(f, probes, **kw):
        rep = scan(f, probes, **kw)
        results = tuple(dataclasses.replace(r, scaled_residual=0.0, passed=True)
                        for r in rep.results)
        return dataclasses.replace(rep, results=results, passed=True)

    with mock.patch.object(csoc.ccalc, "analyticity_scan", everything_analytic):
        bad = wl.run()
    expect(bad.failed == wl.n, f"contaminated field declared analytic: {bad.failed} failed")

    probe = csoc.hjb.hjb_residual_probe

    def off_residual(*args, **kw):
        r = probe(*args, **kw)
        return dataclasses.replace(r, residual=r.residual + 1e-3)

    with mock.patch.object(csoc.hjb, "hjb_residual_probe", off_residual):
        bad = wl.run()
    expect(bad.failed == 2 * wl.n, f"HJB residual off by 1e-3: {bad.failed} failed")

    # counts are exact: two traced passes at one seed agree
    tallies = []
    for _ in range(2):
        tracer = Tracer()
        with patched_layers(tracer, run.csoc_modules()):
            wl.run(tracer)
        tallies.append((tracer.tallies, tracer.counts, tracer.calls, tracer.nested))
    expect(tallies[0] == tallies[1] and tallies[0][0]["field"][0] > 0,
           "traced call and point counts repeat exactly")


def ensemble() -> None:
    import csoc
    wl = workloads.Ensemble(seed=5, paths=64, action_paths=64, samples=10_000)
    clean = wl.run()
    expect(clean.failed == 0 and clean.attempted == wl.ops_per_pass,
           f"ensemble clean pass: {clean.attempted} attempted, {clean.failed} failed")

    integrate = csoc.sde.integrate

    def one_failed_path(*args, **kw):
        return dataclasses.replace(integrate(*args, **kw), failed_paths=(0,))

    with mock.patch.object(csoc.sde, "integrate", one_failed_path):
        bad = wl.run()
    expect(bad.failed == 1, f"a failed path: {bad.failed} failed")

    estimate = csoc.sde.estimate_action

    def shifted(*args, **kw):
        est = estimate(*args, **kw)
        return dataclasses.replace(est, mean=est.mean + 10 * est.stderr_re)

    with mock.patch.object(csoc.sde, "estimate_action", shifted):
        bad = wl.run()
    expect(bad.failed == 1, f"action estimate shifted by ten standard errors: {bad.failed} failed")


def cli_default() -> None:
    wl = workloads.CliDefault(seed=5, root=ROOT)
    try:
        first = wl.run()
        expect(first.failed == 0 and first.attempted == wl.ops_per_pass,
               f"cli-default clean pass: {first.attempted} attempted, {first.failed} failed")
        wl.cli_seed += 1     # every scenario still passes, but the bytes change
        changed = wl.run()
        expect(changed.failed == 1, f"artifacts differ between passes: {changed.failed} failed")
        wl.env["PYTHONPATH"] = str(wl.tmp / "missing")
        broken = wl.run()
        expect(broken.failed == broken.attempted == wl.ops_per_pass,
               f"run all exiting non-zero: {broken.failed} of {broken.attempted} failed")
    finally:
        wl.close()


def import_parser() -> None:
    # (depth, name, cumulative s) in importtime order: children before parents
    entries = [(3, "scipy._lib", 0.1), (2, "scipy", 0.3), (2, "scipy.stats", 0.5),
               (1, "csoc.hjb", 0.9), (1, "numpy", 0.2), (0, "csoc", 1.2)]
    expect(abs(run._outermost(entries, "scipy") - 0.8) < 1e-12,
           "import-time parser sums outermost scipy entries only")


def no_sources() -> None:
    scratch = ROOT / ".perfbench-tmp" / "bare"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(HERE, scratch / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ensemble",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(ROOT / ".perfbench-tmp", ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"no sources: exit {proc.returncode} and no result")


if __name__ == "__main__":
    probe_sweep()
    ensemble()
    cli_default()
    import_parser()
    no_sources()
    print("selftest passed")
