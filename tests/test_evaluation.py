import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.data import InteractionDataset, leave_one_out_split
from fedrec.evaluation import (
    UserEvalModel,
    evaluate_cutoffs,
    ndcg_at_k,
    recall_at_k,
    target_rank,
)


class TestPointMetrics:
    def test_recall(self):
        assert recall_at_k(1, 10) == 1.0
        assert recall_at_k(11, 10) == 0.0
        assert recall_at_k(None, 10) == 0.0

    def test_ndcg(self):
        assert ndcg_at_k(1, 10) == 1.0
        assert ndcg_at_k(2, 10) == pytest.approx(1.0 / math.log2(3), abs=1e-12)
        assert ndcg_at_k(11, 10) == 0.0
        assert ndcg_at_k(None, 5) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.none(), st.integers(1, 50)))
    def test_both_metrics_are_monotone_in_k(self, rank):
        recalls = [recall_at_k(rank, k) for k in range(1, 30)]
        ndcgs = [ndcg_at_k(rank, k) for k in range(1, 30)]
        assert recalls == sorted(recalls)
        assert ndcgs == sorted(ndcgs)


def fixture_split(n_users=20, n_items=15, seed=0):
    gen = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        items = gen.choice(n_items, size=6, replace=False)
        rows.extend((u, int(i), t) for t, i in enumerate(items))
    ds = InteractionDataset(n_users, n_items, rows)
    return leave_one_out_split(ds)


def bare_models(split, tables_seed=1):
    gen = np.random.default_rng(tables_seed)
    items = gen.normal(size=(split.n_items, 4))
    return {
        u: UserEvalModel(gen.normal(size=4), items, split.train_items(u))
        for u in range(split.n_users)
    }


def brute_force_rank(model, target, extra):
    """Independent oracle: full sort of every candidate, then find the target."""
    excluded = set(model.excluded) | set(extra)
    if target in excluded:
        return None
    scores = model.item_rows @ model.user_embedding
    candidates = [i for i in range(len(scores)) if i not in excluded]
    ordered = sorted(candidates, key=lambda i: (-scores[i], i))
    return ordered.index(target) + 1


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        split = fixture_split(n_users=5)
        models = {}
        for u in range(split.n_users):
            items = np.zeros((split.n_items, 2))
            items[split.test[u]] = [5.0, 0.0]
            models[u] = UserEvalModel(
                np.array([1.0, 0.0]), items, split.train_items(u)
            )
        result = evaluate_cutoffs(split, models.items(), (10,))["test"][10]
        assert result.recall == 1.0
        assert result.ndcg == 1.0

    def test_equal_scores_rank_by_item_id(self):
        split = fixture_split(n_users=1, n_items=10, seed=3)
        user = 0
        model = UserEvalModel(np.zeros(2), np.zeros((10, 2)), split.train_items(user))
        rank = target_rank(model, split.validation[user])
        candidates = sorted(set(range(10)) - set(split.train_items(user).tolist()))
        assert rank == candidates.index(split.validation[user]) + 1

    def test_matches_brute_force_oracle_on_twenty_users(self):
        split = fixture_split()
        models = bare_models(split)
        for phase in ("validation", "test"):
            held = split.validation if phase == "validation" else split.test
            expected_ranks = {}
            for u, model in models.items():
                extra = {split.validation[u]} if phase == "test" else set()
                expected_ranks[u] = brute_force_rank(model, held[u], extra)
            for k in (1, 3, 10):
                result = evaluate_cutoffs(split, models.items(), (k,))[phase][k]
                exp_recall = np.mean(
                    [recall_at_k(r, k) for r in expected_ranks.values()]
                )
                exp_ndcg = np.mean([ndcg_at_k(r, k) for r in expected_ranks.values()])
                assert result.recall == exp_recall
                assert result.ndcg == exp_ndcg

    def test_validation_item_blocks_the_test_ranking(self):
        split = fixture_split(n_users=1, seed=5)
        model = UserEvalModel(
            np.ones(2), np.ones((split.n_items, 2)), split.train_items(0)
        )
        ranks_val = target_rank(model, split.validation[0])
        assert ranks_val is not None
        # in the test phase the validation item is not a candidate
        assert target_rank(model, split.validation[0], (split.validation[0],)) is None

    def test_rescaling_a_user_embedding_changes_nothing(self):
        split = fixture_split()
        models = bare_models(split)
        baseline = evaluate_cutoffs(split, models.items(), (5,))["test"][5]
        models[3] = UserEvalModel(
            models[3].user_embedding * 1000.0,
            models[3].item_rows,
            models[3].excluded,
        )
        rescaled = evaluate_cutoffs(split, models.items(), (5,))["test"][5]
        assert rescaled.recall == baseline.recall
        assert rescaled.ndcg == baseline.ndcg

    def test_excluded_target_is_a_miss(self):
        split = fixture_split(n_users=1, seed=9)
        model = UserEvalModel(
            np.ones(2),
            np.ones((split.n_items, 2)),
            np.union1d(split.train_items(0), [split.test[0]]),
        )
        result = evaluate_cutoffs(split, [(0, model)], (10,))["test"][10]
        assert result.recall == 0.0
        assert result.ndcg == 0.0

    def test_cutoffs_share_one_ranking_pass(self):
        split = fixture_split()
        models = bare_models(split)
        by_k = evaluate_cutoffs(split, models.items(), (1, 5, 10))["validation"]
        assert set(by_k) == {1, 5, 10}
        assert by_k[1].recall <= by_k[5].recall <= by_k[10].recall
