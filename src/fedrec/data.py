"""Interaction logs, the leave-one-out split, and per-client local graphs."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .config import PrivacySection
from .errors import DataError, read_text
from .privacy import mask_interacted_items, sample_pseudo_items


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """Densified user-item interactions; ids run 0..N-1 and 0..M-1.
    ``interactions`` is an ``(R, 3)`` int64 array of (user, item, timestamp)
    rows; any sequence of triples is converted on construction."""

    n_users: int
    n_items: int
    interactions: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.interactions, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "interactions", rows)


def _first_appearance_ids(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids for ``raw`` numbered in order of first appearance, and
    how many distinct values there are."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse], len(first)


def load_interactions(path) -> InteractionDataset:
    """Read `user<TAB>item<TAB>timestamp` lines into a dataset.

    Raw ids are densified to contiguous 0-based ranges in first-appearance
    order. Duplicate (user, item) pairs keep the earliest timestamp, at their
    first line's position. ``#`` lines and blank lines are skipped. Fields
    are integers in [0, 2**63).
    """
    lines = (text := read_text(path)).removesuffix("\n").split("\n")
    if all(map(re.compile(r"[0-9]{1,18}\t[0-9]{1,18}\t[0-9]{1,18}").fullmatch, lines)):
        raw = np.loadtxt(lines, np.int64, comments=None, ndmin=2)
    else:
        raw = _read_lines(path, text)
    users, n_users = _first_appearance_ids(raw[:, 0])
    items, n_items = _first_appearance_ids(raw[:, 1])
    pair, n_pairs = _first_appearance_ids(users * n_items + items)
    dedup = np.full((n_pairs, 3), np.iinfo(np.int64).max)
    dedup[pair, 0], dedup[pair, 1] = users, items
    np.minimum.at(dedup[:, 2], pair, raw[:, 2])
    return InteractionDataset(n_users, n_items, dedup)


def _read_lines(path, text: str) -> np.ndarray:
    """The per-line reader: every accepted form, and every named error."""
    rows: list[tuple[int, ...]] = []
    for lineno, rawline in enumerate(text.split("\n"), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected `user<TAB>item<TAB>timestamp`")
        try:
            row = tuple(map(int, parts))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer field") from exc
        if min(row) < 0 or max(row) >= 2**63:
            raise DataError(f"{path}:{lineno}: value out of range [0, 2**63)")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    return np.array(rows, dtype=np.int64)


def write_interactions(ds: InteractionDataset, path) -> None:
    """Serialize a dataset back to the tab-separated input format."""
    np.savetxt(path, ds.interactions, fmt="%d", delimiter="\t")


def density(ds: InteractionDataset) -> float:
    """Fraction of observed (user, item) pairs: |R| / (N * M)."""
    if ds.n_users <= 0 or ds.n_items <= 0:
        raise ValueError("dataset must have users and items")
    return len(ds.interactions) / (ds.n_users * ds.n_items)


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Per-user train/validation/test partition of the interactions.

    The training sets are CSR: user ``u``'s items, sorted ascending, are
    ``indices[indptr[u]:indptr[u + 1]]``. ``validation`` and ``test`` hold
    one item per user. :func:`leave_one_out_split` makes all four arrays
    int64 and read-only.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def train_items(self, user: int) -> np.ndarray:
        """User ``user``'s training items as a sorted int64 array."""
        if not 0 <= user < self.n_users:
            raise DataError(f"user {user} not present in the split")
        return self.indices[self.indptr[user] : self.indptr[user + 1]]


def leave_one_out_split(ds: InteractionDataset) -> SplitDataset:
    """Hold out each user's two latest interactions.

    Per user, interactions are ordered by (timestamp, input order); the last
    becomes the test item, the second-to-last the validation item, the rest
    the training set. Users with fewer than three interactions are rejected.
    """
    users, items, stamps = ds.interactions.T
    order = np.lexsort((np.arange(len(users)), stamps, users))
    counts = np.bincount(users, minlength=ds.n_users)
    short = np.flatnonzero(counts < 3)
    if len(short):
        user = int(short[0])
        raise DataError(
            f"user {user} has {counts[user]} interaction(s); the split needs >= 3"
        )
    ends = np.cumsum(counts)
    held = np.zeros(len(order), dtype=bool)
    held[ends - 1] = held[ends - 2] = True
    # (user, item) keys of the training rows, sorted and deduplicated
    train = np.unique((users * ds.n_items + items)[order[~held]])
    per_user = np.bincount(train // ds.n_items, minlength=ds.n_users)
    indptr = np.concatenate(([0], np.cumsum(per_user)))
    arrays = (indptr, train % ds.n_items, items[order[ends - 2]], items[order[ends - 1]])
    for arr in arrays:
        arr.flags.writeable = False
    return SplitDataset(ds.n_users, ds.n_items, *arrays)


@dataclass(frozen=True, eq=False)
class ClientGraph:
    """One user's local ego-graph after the obfuscation steps, as sorted
    int64 id arrays: ``true_ids`` the unmasked training items,
    ``pseudo_ids`` the decoys reported as interacted (never training items),
    ``masked_ids`` the hidden training items. ``true_items``,
    ``pseudo_items`` and ``masked_items`` give each as a frozenset, the
    form ``bench/tracer.py`` joins with ``|``.
    """

    user: int
    n_items: int
    true_ids: np.ndarray
    pseudo_ids: np.ndarray
    masked_ids: np.ndarray

    @property
    def true_items(self) -> frozenset[int]:
        return frozenset(self.true_ids.tolist())

    @property
    def pseudo_items(self) -> frozenset[int]:
        return frozenset(self.pseudo_ids.tolist())

    @property
    def masked_items(self) -> frozenset[int]:
        return frozenset(self.masked_ids.tolist())


def build_client_graph(
    split: SplitDataset, user: int, privacy: PrivacySection, rng: np.random.Generator
) -> ClientGraph:
    """Apply masking and then pseudo-item sampling to a user's train items.

    Pseudo items are drawn from the complement of the full training set, so
    they never collide with masked items either. Draw order (mask, pseudo)
    is fixed so a keyed stream reproduces the graph bit for bit.
    """
    train_items = split.train_items(user)
    kept, masked = mask_interacted_items(train_items, privacy.mask_ratio, rng)
    pseudo = sample_pseudo_items(split.n_items, train_items, privacy.pseudo_items_p, rng)
    return ClientGraph(user, split.n_items, kept, pseudo, masked)
