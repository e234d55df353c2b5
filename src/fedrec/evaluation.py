"""Leave-one-out top-K evaluation over per-user models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import SplitDataset

PHASES = ("validation", "test")
# users per scoring block: its (block, M) arrays stay small, and its overlay
# rows are at most its members' local-graph rows
EVAL_BLOCK = 32


def recall_at_k(rank: int | None, k: int) -> float:
    """1 if the held-out item made the top k, else 0 (misses count as 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 if rank is not None and rank <= k else 0.0


def ndcg_at_k(rank: int | None, k: int) -> float:
    """Position-discounted gain of the single held-out item."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rank is None or rank > k:
        return 0.0
    return 1.0 / math.log2(rank + 1)


@dataclass(eq=False)
class UserEvalModel:
    """Everything needed to rank one user's catalog.

    ``excluded`` indexes the non-candidates: training items plus any pseudo
    items the local graph currently claims. The held-out item can land in
    there (a pseudo draw may swallow it), which scores as a miss. ``scores``,
    every item's score, defaults to ``item_rows @ user_embedding``.
    """

    user_embedding: np.ndarray
    item_rows: np.ndarray
    excluded: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.scores is None:
            self.scores = self.item_rows @ self.user_embedding


@dataclass(eq=False)
class EvalResult:
    k: int
    recall: float
    ndcg: float


def target_rank(
    model: UserEvalModel, target: int, extra_excluded: Sequence[int] = ()
) -> int | None:
    """1-based rank of ``target`` among candidates, or None if excluded.

    Candidates are all items outside ``model.excluded`` and ``extra_excluded``;
    ordering is by descending score with ties to the smaller item id.
    """
    keep = np.ones(len(model.scores), dtype=bool)
    keep[model.excluded] = False
    keep[np.asarray(extra_excluded, dtype=np.int64)] = False
    return _block_ranks(model.scores[None], keep[None], np.array([target]))[0]


def _block_ranks(scores: np.ndarray, keep: np.ndarray, targets: np.ndarray) -> list:
    """:func:`target_rank` of each row's target among its candidates ``keep``."""
    rows = np.arange(len(targets))
    at = scores[rows, targets][:, None]
    ahead = np.count_nonzero(keep & (scores > at), axis=1)
    before = np.arange(scores.shape[1]) < targets[:, None]
    tied = np.count_nonzero(keep & before & (scores == at), axis=1)
    return [int(r) if ok else None for r, ok in zip(ahead + tied + 1, keep[rows, targets])]


def user_ranks(
    split: SplitDataset, models: Iterable[tuple[int, UserEvalModel]]
) -> dict[int, tuple[int | None, int | None]]:
    """(validation rank, test rank) of each user's held-out items.

    One pass over ``(user, model)`` pairs, ranked ``EVAL_BLOCK`` at a time
    from their stacked scores, so a caller can build a block of models, rank
    it and drop it before building the next. For the test phase the
    validation item is excluded from candidacy as well.
    """
    ranks: dict[int, tuple[int | None, int | None]] = {}
    models = iter(models)
    while block := list(islice(models, EVAL_BLOCK)):
        users = [user for user, _ in block]
        if bad := [user for user in users if not 0 <= user < split.n_users]:
            raise ValueError(f"user {bad[0]} has no held-out items")
        scores = np.stack([model.scores for _, model in block])
        excluded = [model.excluded for _, model in block]
        member = np.repeat(np.arange(len(block)), [len(e) for e in excluded])
        keep = np.ones(scores.shape, dtype=bool)
        keep[member, np.concatenate(excluded)] = False
        val = split.validation[users]
        first = _block_ranks(scores, keep, val)
        keep[np.arange(len(users)), val] = False
        ranks.update(zip(users, zip(first, _block_ranks(scores, keep, split.test[users]))))
    return ranks


def rank_metrics(ranks: Mapping[int, tuple], cutoffs: Sequence[int]) -> dict[str, dict]:
    """Recall@K / NDCG@K of both phases averaged over ``user_ranks``' users."""
    results: dict[str, dict[int, EvalResult]] = {}
    for index, phase in enumerate(PHASES):
        phase_ranks = [pair[index] for _, pair in sorted(ranks.items())]
        results[phase] = {}
        for k in cutoffs:
            recalls = [recall_at_k(r, k) for r in phase_ranks]
            ndcgs = [ndcg_at_k(r, k) for r in phase_ranks]
            results[phase][k] = EvalResult(k, float(np.mean(recalls)), float(np.mean(ndcgs)))
    return results


def evaluate_cutoffs(
    split: SplitDataset, models: Iterable[tuple[int, UserEvalModel]], cutoffs: Sequence[int]
) -> dict[str, dict[int, EvalResult]]:
    """Recall@K / NDCG@K of both phases from one ``user_ranks`` pass."""
    return rank_metrics(user_ranks(split, models), cutoffs)
