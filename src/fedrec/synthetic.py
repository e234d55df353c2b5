"""Synthetic two-community interaction data for experiments and tests."""

from __future__ import annotations

import argparse

import numpy as np

from .data import InteractionDataset, write_interactions
from .rng import substream


def two_community_dataset(
    n_users: int = 200,
    n_items: int = 100,
    seed: int = 0,
    per_user: int = 18,
    cross_rate: float = 0.1,
) -> InteractionDataset:
    """Users split into two communities with mostly-disjoint item pools.

    Even users draw from the first half of the catalog, odd users from the
    second, with a ``cross_rate`` fraction of out-of-community interactions.
    Timestamps enumerate each user's draws in random order, so the held-out
    items are representative of the user's community.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if per_user < 3:
        raise ValueError("per_user must be >= 3 for a leave-one-out split")
    if not 0 <= cross_rate <= 1:
        raise ValueError("cross_rate must be in [0, 1]")
    half = n_items // 2
    pools = (np.arange(half), np.arange(half, n_items))
    if per_user > min(len(pools[0]), len(pools[1])):
        raise ValueError("per_user exceeds the community pool size")
    rng = substream(seed, "two-community")
    n_cross = int(round(per_user * cross_rate))
    n_own = per_user - n_cross
    rows = np.empty((n_users * per_user, 3), dtype=np.int64)
    rows[:, 0] = np.repeat(np.arange(n_users), per_user)
    rows[:, 2] = np.tile(np.arange(per_user), n_users)
    for user in range(n_users):
        own, other = pools[user % 2], pools[1 - user % 2]
        picks = np.concatenate(
            [
                rng.choice(own, size=n_own, replace=False),
                rng.choice(other, size=n_cross, replace=False),
            ]
        )
        rng.shuffle(picks)
        rows[user * per_user : (user + 1) * per_user, 1] = picks
    return InteractionDataset(n_users, n_items, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write a synthetic two-community interaction file."
    )
    parser.add_argument("out", help="output path (tab-separated)")
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--items", type=int, default=100)
    parser.add_argument("--per-user", type=int, default=18)
    parser.add_argument("--cross-rate", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        ds = two_community_dataset(
            args.users, args.items, args.seed, args.per_user, args.cross_rate
        )
    except ValueError as exc:
        parser.error(str(exc))
    write_interactions(ds, args.out)
    print(f"wrote {len(ds.interactions)} interactions to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
