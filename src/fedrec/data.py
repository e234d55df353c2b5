"""Interaction logs, the leave-one-out split, and per-client local graphs."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DataError
from .privacy import PrivacyConfig, mask_interacted_items, sample_pseudo_items


class Interaction(NamedTuple):
    user: int
    item: int
    timestamp: int


@dataclass(frozen=True)
class InteractionDataset:
    """Densified user-item interactions; ids run 0..N-1 and 0..M-1."""

    n_users: int
    n_items: int
    interactions: tuple[Interaction, ...]


def load_interactions(path) -> InteractionDataset:
    """Read `user<TAB>item<TAB>timestamp` lines into a dataset.

    Raw ids are densified to contiguous 0-based ranges in first-appearance
    order. Duplicate (user, item) pairs keep the earliest timestamp. Lines
    starting with ``#`` and blank lines are skipped.
    """
    user_ids: dict[int, int] = {}
    item_ids: dict[int, int] = {}
    position: dict[tuple[int, int], int] = {}
    rows: list[Interaction] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected `user<TAB>item<TAB>timestamp`"
                )
            try:
                raw_user, raw_item, ts = (int(p) for p in parts)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer field") from exc
            if raw_user < 0 or raw_item < 0 or ts < 0:
                raise DataError(f"{path}:{lineno}: negative value")
            user = user_ids.setdefault(raw_user, len(user_ids))
            item = item_ids.setdefault(raw_item, len(item_ids))
            key = (user, item)
            if key in position:
                idx = position[key]
                if ts < rows[idx].timestamp:
                    rows[idx] = Interaction(user, item, ts)
            else:
                position[key] = len(rows)
                rows.append(Interaction(user, item, ts))
    if not rows:
        raise DataError(f"{path}: empty dataset")
    return InteractionDataset(len(user_ids), len(item_ids), tuple(rows))


def write_interactions(ds: InteractionDataset, path) -> None:
    """Serialize a dataset back to the tab-separated input format."""
    with open(path, "w", encoding="utf-8") as fh:
        for it in ds.interactions:
            fh.write(f"{it.user}\t{it.item}\t{it.timestamp}\n")


def density(ds: InteractionDataset) -> float:
    """Fraction of observed (user, item) pairs: |R| / (N * M)."""
    if ds.n_users <= 0 or ds.n_items <= 0:
        raise ValueError("dataset must have users and items")
    return len(ds.interactions) / (ds.n_users * ds.n_items)


@dataclass(frozen=True)
class SplitDataset:
    """Per-user train/validation/test partition of the interactions."""

    n_users: int
    n_items: int
    train: Mapping[int, frozenset[int]]
    validation: Mapping[int, int]
    test: Mapping[int, int]


def leave_one_out_split(ds: InteractionDataset) -> SplitDataset:
    """Hold out each user's two latest interactions.

    Per user, interactions are ordered by (timestamp, input order); the last
    becomes the test item, the second-to-last the validation item, the rest
    the training set. Users with fewer than three interactions are rejected.
    """
    per_user: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for order, it in enumerate(ds.interactions):
        per_user[it.user].append((it.timestamp, order, it.item))
    train: dict[int, frozenset[int]] = {}
    validation: dict[int, int] = {}
    test: dict[int, int] = {}
    for user in range(ds.n_users):
        rows = sorted(per_user[user])
        if len(rows) < 3:
            raise DataError(
                f"user {user} has {len(rows)} interaction(s); the split needs >= 3"
            )
        *rest, second_last, last = rows
        train[user] = frozenset(item for _, _, item in rest)
        validation[user] = second_last[2]
        test[user] = last[2]
    return SplitDataset(ds.n_users, ds.n_items, train, validation, test)


@dataclass(frozen=True)
class ClientGraph:
    """One user's local ego-graph after the obfuscation steps.

    ``true_items`` are the unmasked training items, ``pseudo_items`` the
    decoys reported as interacted, ``masked_items`` the hidden training
    items. ``neighbor_users`` holds (anonymous-user-token, shared-item-id)
    pairs when one-hop neighbor expansion is on.
    """

    user: int
    n_items: int
    true_items: frozenset[int]
    pseudo_items: frozenset[int]
    masked_items: frozenset[int]
    neighbor_users: tuple[tuple[str, int], ...] = ()


def build_client_graph(
    split: SplitDataset,
    user: int,
    privacy: PrivacyConfig,
    rng: np.random.Generator,
    neighbors: Iterable[tuple[str, int]] = (),
) -> ClientGraph:
    """Apply masking and then pseudo-item sampling to a user's train items.

    Pseudo items are drawn from the complement of the full training set, so
    they never collide with masked items either. Draw order (mask, pseudo)
    is fixed so a keyed stream reproduces the graph bit for bit.
    """
    if user not in split.train:
        raise DataError(f"user {user} not present in the split")
    train_items = split.train[user]
    kept, masked = mask_interacted_items(train_items, privacy.mask_ratio, rng)
    pseudo = sample_pseudo_items(
        split.n_items, train_items, privacy.pseudo_items_p, rng
    )
    return ClientGraph(
        user=user,
        n_items=split.n_items,
        true_items=kept,
        pseudo_items=pseudo,
        masked_items=masked,
        neighbor_users=tuple(sorted(neighbors)),
    )
