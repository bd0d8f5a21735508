"""The layer timers in bench/ still find every routine they time."""

import importlib.util
from pathlib import Path

import numpy as np

import csoc
from csoc import cli

BENCH = Path(__file__).resolve().parent.parent / "bench" / "sde_layers.py"
PROBE_BENCH = BENCH.with_name("probe_layers.py")
CLI_BENCH = BENCH.with_name("cli_layers.py")


def test_every_timed_layer_runs_at_its_smallest_size():
    spec = importlib.util.spec_from_file_location("sde_layers", BENCH)
    sde_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sde_layers)
    entries = sde_layers.layers(csoc, np)
    assert [(name, layer) for name, layer, *_ in entries] == [
        ("_draw_paths", "wiener"), ("integrate", "sde"), ("estimate_action", "sde"),
        ("moment_check", "wiener")]
    for *_, call in entries:
        assert call(10**9) is not None   # one path, or 10,000 samples


def test_every_timed_probe_call_runs_at_its_smallest_size():
    # one probe, one timed sweep of each kind; the filling sweep counts the
    # field and spinor calls the probe sweep makes per probe
    spec = importlib.util.spec_from_file_location("probe_layers", PROBE_BENCH)
    probe_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe_layers)
    sweep = probe_layers.load_workloads().ProbeSweep(probe_layers.SEED, 1)
    counts = {}
    for name, layer, run in probe_layers.calls(sweep, csoc):
        got = probe_layers.measure(sweep, run, repeats=1)
        assert all(len(t) == 1 and t[0] > 0 for t in got["times"].values())
        counts[f"{layer}.{name}"] = (got["field_calls_per_probe"], got["spinor_calls_per_probe"])
    assert counts == {
        "ccalc.analyticity_scan": (32, 0), "control.equivalence_audit": (16, 0),
        "hjb.hjb_residual_probe.em": (19, 0), "hjb.hjb_residual_probe.newton": (19, 0),
        "hjb.hjb_residual_pair": (70, 0), "dirac.route_consistency": (0, 19),
        "dirac.linearized_residual": (0, 17)}


def test_every_timed_runner_runs_at_a_small_config(tmp_path):
    # one round of every runner at a config small enough for a test
    spec = importlib.util.spec_from_file_location("cli_layers", CLI_BENCH)
    cli_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_layers)
    small = {"probes": "2", "n_paths": "10000", "demo_paths": "2", "n_steps": "3"}
    calls = cli_layers.runners(cli, {"small": small}, tmp_path)
    assert [(name, config) for name, config, _ in calls] == [(s, "small") for s in cli.SCENARIOS]
    got = cli_layers.measure(calls, cli_layers.yardstick(np, 8), repeats=1)
    assert all(len(t) == 1 and t[0] > 0 for t in got["times"].values())
    for report in got["reports"].values():
        assert report["checks"] and len(cli_layers.report_sha256(cli, report)) == 64
