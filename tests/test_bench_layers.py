"""The layer timer bench/layers.py still finds every routine it times."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import csoc
from csoc import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

SMALL = {"probes": "2", "n_paths": "10000", "demo_paths": "2", "n_steps": "3"}


def test_every_timed_layer_runs_at_its_smallest_size():
    entries = layers.stochastic(csoc, np, 10**9)   # one path, or 10,000 samples
    assert [(r["layer"], r["name"]) for r, _ in entries] == [
        ("wiener", "_draw_paths"), ("wiener", "_draw_paths.one_step"), ("sde", "integrate"),
        ("sde", "estimate_action"), ("wiener", "moment_check")]
    for record, timed in entries:
        assert record["peak_traced_bytes"] > 0
        assert timed["call"]() is not None


def test_every_timed_probe_call_runs_at_its_smallest_size():
    # one probe; the filling sweep counts the field and spinor calls the
    # probe sweep makes per probe
    sweep = layers.load_workloads().ProbeSweep(layers.SEED, 1)
    counts = {}
    for record, timed in layers.probe(csoc, np, sweep):
        assert sorted(timed) == ["fields", "live", "lookups", "memo"]
        for call in timed.values():
            call()
        counts[f"{record['layer']}.{record['name']}"] = (
            record["field_calls_per_probe"], record["spinor_calls_per_probe"])
    assert counts == {
        "ccalc.analyticity_scan": (32, 0), "control.equivalence_audit": (16, 0),
        "hjb.hjb_residual_probe.em": (19, 0), "hjb.hjb_residual_probe.newton": (19, 0),
        "hjb.hjb_residual_pair": (70, 0), "dirac.route_consistency": (0, 19),
        "dirac.linearized_residual": (0, 17)}


def test_every_timed_runner_runs_at_a_small_config(tmp_path):
    entries = layers.runners(cli, {"small": SMALL}, tmp_path)
    assert [(r["name"], r["config"]) for r, _ in entries] == [(s, "small") for s in cli.SCENARIOS]
    for record, timed in entries:
        assert record["passed"]
        assert timed["call"]()["checks"]


def test_one_run_records_every_entry_against_the_yardstick():
    # the whole measurement path at its smallest sizes, one round
    src = ROOT / "src"
    record = layers.bench(src, "test", scale=10**9, probes=1, configs={"small": SMALL},
                          points=8, repeats=1)
    assert record["label"] == "test" and record["src_sha256"] == layers.src_sha256(src)
    json.dumps(record, allow_nan=False)
    assert len(record["yardstick"]["times_s"]) == 1 and record["yardstick"]["quartiles_s"][1] > 0
    families = {}
    for entry in record["entries"]:
        families.setdefault(entry["family"], []).append(entry["name"])
        assert np.isfinite(entry["per_yardstick"])   # a probe's csoc = memo - lookups may be < 0
        assert entry["median_s"] == entry["quartiles_s"][
            "csoc" if entry["family"] == "probe" else "call"][1]
        assert all(len(q) == 3 for q in entry["quartiles_s"].values())
        assert all(len(t) == 1 for t in entry["times_s"].values())
    assert families == {
        "stochastic": ["_draw_paths", "_draw_paths.one_step", "integrate", "estimate_action",
                       "moment_check"],
        "probe": ["analyticity_scan", "equivalence_audit", "hjb_residual_probe.em",
                  "hjb_residual_probe.newton", "hjb_residual_pair", "route_consistency",
                  "linearized_residual"],
        "cli": list(cli.SCENARIOS)}
