"""Memory grows with interactions, not with users squared.

A run of ``pretrain``, ``train`` (2 rounds) and ``evaluate`` on 4N users
with the same interactions per user may cost at most 5× the ``tracemalloc``
peak of the same run on N users. N = 600 is above one InfoNCE row block
(``INFONCE_CELLS`` similarities cover 512 users at once), so both runs hold
block buffers of the same size, and the ratio does not set the small run's
whole N×N matrix against the large run's block.
"""

import tracemalloc

from fedrec.cli import main
from fedrec.data import write_interactions
from fedrec.pretrain import INFONCE_CELLS
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
