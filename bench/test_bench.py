"""Self-test of the benchmark: span arithmetic and a smoke run.

Run with ``python3 -m pytest bench`` from the root of the checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import _scaled  # noqa: E402
from tracer import Tracer, install, layer_metrics, self_times  # noqa: E402


def test_self_time_is_duration_minus_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_overlapping_children_are_covered_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_scaling_multiplies_times_and_divides_rates():
    figures = {"train_s": 8.0, "wall_s": 12.0, "client_updates_per_s": 160.0, "peak_rss_mb": 900.0}
    scaled = _scaled(figures, 1.25)
    assert scaled == {
        "train_s": 10.0,
        "wall_s": 15.0,
        "client_updates_per_s": 128.0,
        "peak_rss_mb": 900.0,
    }
    assert figures["train_s"] == 8.0


def test_missing_targets_are_reported_absent_not_raised():
    tracer = Tracer()
    install(
        tracer,
        [
            ("fedrec.no_such_module", "f", "x.gone_module", None),
            ("fedrec.rng", "no_such_function", "x.gone_function", None),
        ],
    )
    assert tracer.absent == {"x.gone_module", "x.gone_function"}
    trace = {"spans": [], "absent": ["client.update"], "counts": {}, "samples": {}}
    metrics = layer_metrics(trace)
    assert "client.update_s" not in metrics
    assert "client.update.calls" not in metrics
    assert "client.upload_rows" not in metrics
    assert metrics["gnn.propagate.calls"] == 0


def test_a_hook_that_no_longer_fits_drops_its_count_only():
    tracer = Tracer()
    traced = tracer.wrap("client.update", lambda: object(), hook=lambda t, a, k, r: r.item_grads)
    traced()
    traced()
    assert tracer.hook_failed == {"client.update"}
    trace = {
        "spans": [tuple(s) for s in tracer.spans],
        "absent": [],
        "hook_failed": sorted(tracer.hook_failed),
        "counts": {},
        "samples": {},
    }
    metrics = layer_metrics(trace)
    assert metrics["client.update.calls"] == 2
    assert "client.upload_rows" not in metrics


def _run(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info, result


def test_smoke_run_prints_every_metric_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        info, result = _run(trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert info["environment"]["seed"] == 3
        assert not info["failures"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        for metric in spec[key]:
            assert printed.get(metric["name"]) == metric["unit"], metric["name"]
