"""The code ``bench/tracer.py`` holds, checked in tier-1.

The benchmark's tracer wraps ``fedrec`` functions by name from outside the
package and reads their arguments and results in hooks. A renamed target
drops its metrics, and a hook that no longer fits lands in ``hook_failed``;
either way a per-layer metric of ``BENCHMARK.json`` goes missing. This
module loads ``bench/tracer.py`` and ``bench/run.py`` by path, edits nothing
under ``bench/``, and runs the ``tiny`` workload's pipeline in-process
under the tracer, whose uploaded rows and per-client calls must match the
counts CI pins for it. Every wrapped attribute is restored afterwards.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fedrec.cli import main as cli_main
from fedrec.data import write_interactions
from fedrec.synthetic import two_community_dataset

ROOT = Path(__file__).resolve().parent.parent
# spans whose targets are gone on purpose; their metrics have other spans
KNOWN_ABSENT = {
    "client.local_item_table",
    "pretrain.infonce_terms",
    "pretrain.make_views",
    "pretrain.view_operator",
}
# the counts that .github/workflows/tests.yml pins for tiny at seed 3
TINY_PINS = {
    "privacy.ldp_rows": 1219,
    "server.aggregate_rows_in": 2438,
    "client.upload_rows": 1219,
    "client.update.calls": 100,
    "data.client_graph.calls": 140,
    "gnn.propagate.calls": 22,
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


@pytest.fixture
def restore_fedrec(monkeypatch, tracer_module):
    """Every attribute the tracer may replace, registered with monkeypatch so
    that its original comes back at teardown."""
    for name, module in list(sys.modules.items()):
        if name == "fedrec" or name.startswith("fedrec."):
            for key, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, key, value)
    for module_name, path, _, _ in tracer_module.TARGETS:
        *owner_path, attr = path.split(".")
        if owner_path:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, attr, getattr(owner, attr))


def test_every_target_resolves_but_the_known_absent(tracer_module, restore_fedrec):
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    assert tracer.absent == KNOWN_ABSENT


def test_a_traced_tiny_run_keeps_every_hook_and_per_layer_metric(
    tracer_module, restore_fedrec, tmp_path
):
    run = _load("run")
    workload = run.WORKLOADS["tiny"]
    data = tmp_path / "tiny.tsv"
    dataset = two_community_dataset(workload.users, workload.items, 3, workload.per_user)
    write_interactions(dataset, data)
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    common = ["--data.path", str(data), *workload.flags, "--seed", "3"]
    pre, train = tmp_path / "pretrain", tmp_path / "train"
    commands = {
        "pretrain": ["pretrain", "--out", str(pre), *common],
        "train": ["train", "--out", str(train), "--warm-start", str(pre / "pretrained.txt"), *common],
        "evaluate": [
            "evaluate", "--out", str(tmp_path / "evaluate"),
            "--checkpoint", str(train / "checkpoint.txt"), *common,
        ],
    }
    for phase, argv in commands.items():
        tracer.phase = phase
        with tracer.span(f"cli.{phase}"):
            assert cli_main(argv) == 0, phase
    tracer.dump(tmp_path / "spans.json")
    trace = tracer_module.load_spans(tmp_path / "spans.json")

    assert trace["hook_failed"] == []
    # run.py adds the tracing overhead itself, from traced and untraced runs
    units = {name: unit for name, (unit, _, _) in tracer_module.LAYER_METRICS.items()}
    units.update(run.TRACE_UNITS)
    metrics = tracer_module.layer_metrics(trace)
    metrics.update(dict.fromkeys(run.TRACE_UNITS, 0.0))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    assert [m["name"] for m in declared if units[m["name"]] != m["unit"]] == []
    assert {name: metrics[name] for name in TINY_PINS} == TINY_PINS
