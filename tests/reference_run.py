"""Two small ``simulate`` runs and their committed reference.

``tests/data/reference_run.json`` holds what these runs wrote at the commit
that recorded it, and ``tests/test_reference_run.py`` compares fresh runs
against it. A change that moves bits on purpose re-records the reference
from the root of a checkout with

    PYTHONPATH=src python tests/reference_run.py

and says in CHANGES.md which values moved.

The runs:

- ``determinism``: the configuration of acceptance test_09;
- ``private``: the CI private-path flags (LDP, decoys, masking, neighbour
  expansion) on a 60-user input, then ``evaluate`` on its checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fedrec.cli import main as cli_main
from fedrec.data import write_interactions
from fedrec.gnn import load_checkpoint
from fedrec.synthetic import two_community_dataset

REFERENCE = Path(__file__).with_name("data") / "reference_run.json"
# floats may differ from the reference by this share of the largest magnitude
# in their array: BLAS and libm builds may round differently across platforms
RTOL = 1e-12

RUNS = {
    "determinism": (
        dict(n_users=30, n_items=20, seed=7, per_user=6),
        [
            "--model.dim", "8", "--model.layers", "1", "--train.max_rounds", "4",
            "--train.eval_every", "2", "--train.eta", "0.5",
            "--train.clients_per_round", "30", "--cluster.k", "2",
            "--pretrain.epochs", "2", "--seed", "11",
        ],
    ),
    "private": (
        dict(n_users=60, n_items=40, seed=0, per_user=12),
        [
            "--model.dim", "32", "--train.eta", "10", "--pretrain.eta", "0.3",
            "--train.max_rounds", "20", "--cluster.k", "4",
            "--train.clients_per_round", "100", "--privacy.enabled", "true",
            "--privacy.pseudo_items_p", "5", "--privacy.mask_ratio", "0.2",
            "--graph.neighbor_expansion", "true", "--seed", "0",
        ],
    ),
}
ARTIFACTS = (
    "pretrained.txt",
    "pretrain_summary.json",
    "checkpoint.txt",
    "rounds.jsonl",
    "clusters.csv",
    "results.json",
    "evaluate/results.json",
)


def _table(path: Path) -> dict:
    table, _flags = load_checkpoint(path)
    return {"users": table.users.tolist(), "items": table.items.tolist()}


def run(name: str, workdir: Path) -> dict:
    """Run ``name`` in ``workdir`` and return its record."""
    dataset, flags = RUNS[name]
    data, out = workdir / f"{name}.tsv", workdir / name
    write_interactions(two_community_dataset(**dataset), data)
    flags = ["--data.path", str(data)] + flags
    if cli_main(["simulate", *flags, "--out", str(out)]) != 0:
        raise RuntimeError(f"{name}: simulate failed")
    checkpoint = str(out / "checkpoint.txt")
    evaluate = ["evaluate", *flags, "--checkpoint", checkpoint, "--out", str(out / "evaluate")]
    if cli_main(evaluate) != 0:
        raise RuntimeError(f"{name}: evaluate failed")
    rounds = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    clusters = (out / "clusters.csv").read_text().splitlines()[1:]
    return {
        "sha256": {
            f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS
        },
        "clusters": [int(line.split(",")[1]) for line in clusters],
        "rounds": rounds,
        "pretrain_losses": json.loads((out / "pretrain_summary.json").read_text())["losses"],
        "pretrained": _table(out / "pretrained.txt"),
        "checkpoint": _table(out / "checkpoint.txt"),
        "results": json.loads((out / "results.json").read_text()),
        "evaluate": json.loads((out / "evaluate" / "results.json").read_text()),
    }


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run(name, Path(tmp)) for name in RUNS}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"rtol": RTOL, "runs": runs}, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    record()
