"""Memory grows with interactions, not with users squared.

A run of ``pretrain``, ``train`` (2 rounds) and ``evaluate`` on 4N users
with the same interactions per user may cost at most 5× the ``tracemalloc``
peak of the same run on N users. N = 600 is above one InfoNCE row block
(``INFONCE_CELLS`` similarities cover 512 users at once), so both runs hold
block buffers of the same size, and the ratio does not set the small run's
whole N×N matrix against the large run's block.

The client overlays hold rows only for the clients' local graphs: each holds
at most the union of its client's graphs over the rounds it trained, and all
of them together stay within the same multiple of interactions × d × 8 bytes
at N and at 4N users.

The server adds each upload into one block over the round's distinct ids:
an ``aggregate`` call's peak stays within one multiple of its output, one
upload and the uploads' ids, whether it sums 50 uploads or 400.
"""

import tracemalloc

import numpy as np
import pytest

from fedrec import client
from fedrec.cli import main
from fedrec.config import (
    ExperimentConfig, GraphSection, ModelSection, PretrainSection, PrivacySection, TrainSection,
)
from fedrec.data import leave_one_out_split, write_interactions
from fedrec.gnn import GradientUpdate
from fedrec.pretrain import INFONCE_CELLS
from fedrec.server import aggregate, run_training, warm_up
from fedrec.synthetic import two_community_dataset

USERS = 600
FLAGS = ("--model.dim", "16", "--pretrain.epochs", "1", "--train.max_rounds", "2", "--seed", "0")


def traced_peaks(n_users, tmp_path):
    """The ``tracemalloc`` peak of each command of one run, in bytes."""
    data = tmp_path / f"users{n_users}.tsv"
    dataset = two_community_dataset(n_users=n_users, n_items=300, seed=0, per_user=20)
    write_interactions(dataset, data)
    out = tmp_path / f"run{n_users}"
    flags = ["--data.path", str(data), *FLAGS]
    commands = {
        "pretrain": ["pretrain", *flags, "--out", str(out)],
        "train": ["train", *flags, "--warm-start", str(out / "pretrained.txt"), "--out", str(out)],
        "evaluate": [
            "evaluate", *flags, "--checkpoint", str(out / "checkpoint.txt"),
            "--out", str(out / "eval"),
        ],
    }
    peaks = {}
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_four_times_the_users_cost_at_most_five_times_the_peak(tmp_path):
    assert USERS**2 > INFONCE_CELLS
    small = traced_peaks(USERS, tmp_path)
    large = traced_peaks(4 * USERS, tmp_path)
    ratios = {name: round(large[name] / small[name], 2) for name in small}
    assert max(large.values()) <= 5 * max(small.values()), (small, large, ratios)


def trained(cfg, n_users, n_items, per_user):
    """The split and ``run_training``'s result from the seeded init on a
    synthetic input, with each user's local graph items over every round:
    the claimed items of each ``client_update`` and the shared fold items."""
    dataset = two_community_dataset(n_users=n_users, n_items=n_items, seed=0, per_user=per_user)
    split = leave_one_out_split(dataset)
    graphs = [set() for _ in range(n_users)]
    finish = client.client_update

    def recording(states, cg, step, ctx, rng):
        graphs[cg.user] |= set(cg.true_ids.tolist()) | set(cg.pseudo_ids.tolist())
        if ctx.neighbors is not None:
            lo, hi = ctx.neighbors.ptr[cg.user], ctx.neighbors.ptr[cg.user + 1]
            graphs[cg.user] |= set(ctx.neighbors.items[lo:hi].tolist())
        return finish(states, cg, step, ctx, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client, "client_update", recording)
        result = run_training(cfg, split, warm_up(cfg, split).table)
    return split, result, graphs


@pytest.mark.parametrize("rounds", [5, 40])
def test_each_overlay_holds_at_most_its_local_graphs(rounds):
    # the private path: decoys, masking, LDP and neighbour expansion
    cfg = ExperimentConfig(
        model=ModelSection(dim=8),
        train=TrainSection(eta=10.0, max_rounds=rounds, clients_per_round=100, patience=rounds),
        pretrain=PretrainSection(epochs=0),
        privacy=PrivacySection(enabled=True, pseudo_items_p=5, mask_ratio=0.2),
        graph=GraphSection(neighbor_expansion=True),
    )
    _, result, graphs = trained(cfg, 200, 100, 12)
    assert len(result.reports) == rounds
    held = 0
    for user, overlay in enumerate(result.states.overlays):
        assert set(overlay.local_items.tolist()) <= graphs[user], user
        held += len(overlay.local_items)
    assert held > 0


def test_overlay_bytes_stay_a_multiple_of_the_interactions():
    cfg = ExperimentConfig(
        model=ModelSection(dim=16),
        train=TrainSection(max_rounds=5, patience=5),
        pretrain=PretrainSection(epochs=0),
    )
    shares = {}
    for n_users in (USERS, 4 * USERS):
        split, result, _ = trained(cfg, n_users, 300, 20)
        overlays = result.states.overlays
        held = sum(o.local_items.nbytes + o.local_rows.nbytes for o in overlays)
        shares[n_users] = held / (len(split.indices) * cfg.model.dim * 8)
    # with privacy off a graph is the training items: one row and one id per interaction
    assert all(0 < share <= 17 / 16 for share in shares.values()), shares


@pytest.mark.parametrize("k", [50, 400])
def test_an_aggregate_peak_does_not_grow_with_the_uploaded_rows(k):
    rng = np.random.default_rng(0)
    rows, d, n_items = 50, 32, 200
    updates = [
        GradientUpdate(np.sort(rng.choice(n_items, rows, replace=False)), rng.normal(size=(rows, d)), 3)
        for _ in range(k)
    ]
    tracemalloc.start()
    try:
        merged = aggregate(updates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ids = sum(u.items.nbytes for u in updates)
    held = merged.items.nbytes + merged.item_grads.nbytes + updates[0].item_grads.nbytes + ids
    # one copy of every uploaded row is k * rows * d * 8 bytes: 7.5x held at k = 50, 23x at 400
    assert peak <= 2 * held, (peak, held)
