"""Leave-one-out top-K evaluation over per-user models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .data import SplitDataset

PHASES = ("validation", "test")


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
    there (a pseudo draw may swallow it), which scores as a miss.
    """

    user_embedding: np.ndarray
    item_rows: np.ndarray
    excluded: np.ndarray

    @cached_property
    def scores(self) -> np.ndarray:
        """Score of every item, computed once however many targets are ranked."""
        return self.item_rows @ self.user_embedding

    @cached_property
    def candidates(self) -> np.ndarray:
        """Mask of the items outside ``excluded``, built once per model."""
        keep = np.ones(len(self.item_rows), dtype=bool)
        keep[self.excluded] = False
        return keep


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
    keep = model.candidates
    if len(extra_excluded):
        keep = keep.copy()
        keep[np.asarray(extra_excluded, dtype=np.int64)] = False
    if not keep[target]:
        return None
    scores = model.scores
    target_score = scores[target]
    ahead = np.count_nonzero(keep & (scores > target_score))
    tied = np.count_nonzero(keep[:target] & (scores[:target] == target_score))
    return int(ahead + tied) + 1


def user_ranks(
    split: SplitDataset, models: Iterable[tuple[int, UserEvalModel]]
) -> dict[int, tuple[int | None, int | None]]:
    """(validation rank, test rank) of each user's held-out items.

    One pass over ``(user, model)`` pairs, so a caller can build each model,
    rank it and drop it before building the next. Both ranks are counted from
    the model's one candidate mask; for the test phase the validation item is
    excluded from candidacy as well.
    """
    ranks: dict[int, tuple[int | None, int | None]] = {}
    for user, model in models:
        if not 0 <= user < split.n_users:
            raise ValueError(f"user {user} has no held-out items")
        val = int(split.validation[user])
        ranks[user] = (
            target_rank(model, val),
            target_rank(model, int(split.test[user]), (val,)),
        )
    return ranks


def evaluate_cutoffs(
    split: SplitDataset,
    models: Iterable[tuple[int, UserEvalModel]],
    cutoffs: Sequence[int],
) -> dict[str, dict[int, EvalResult]]:
    """Recall@K / NDCG@K of both phases averaged over users, from one
    ranking pass over ``(user, model)`` pairs."""
    ranks = user_ranks(split, models)
    results: dict[str, dict[int, EvalResult]] = {}
    for index, phase in enumerate(PHASES):
        phase_ranks = [pair[index] for _, pair in sorted(ranks.items())]
        results[phase] = {}
        for k in cutoffs:
            recalls = [recall_at_k(r, k) for r in phase_ranks]
            ndcgs = [ndcg_at_k(r, k) for r in phase_ranks]
            results[phase][k] = EvalResult(k, float(np.mean(recalls)), float(np.mean(ndcgs)))
    return results

