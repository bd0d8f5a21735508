"""The layer timer in bench/ still finds every routine it times."""

import importlib.util
from pathlib import Path

import numpy as np

import csoc

BENCH = Path(__file__).resolve().parent.parent / "bench" / "sde_layers.py"


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
