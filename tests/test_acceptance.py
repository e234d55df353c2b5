"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 7 and 8 are directional desk-scale experiments on the bundled
synthetic two-community dataset (200 users, 100 items); their hyperparameters
and thresholds were calibrated once and are pinned here, and every random
draw is keyed, so reruns are exact.
"""

import json
import math
import time

import numpy as np
import pytest

from fedrec.cli import main as cli_main
from fedrec.client import ClientConfig, ClientStates, client_round, sample_bpr_triples
from fedrec.config import PrivacySection, default_config
from fedrec.data import (
    InteractionDataset,
    build_client_graph,
    density,
    leave_one_out_split,
    write_interactions,
)
from fedrec.evaluation import (
    UserEvalModel,
    evaluate_cutoffs,
    ndcg_at_k,
    recall_at_k,
)
from fedrec.gnn import (
    EmbeddingTable,
    PropagationOperator,
    bpr_gradients,
    bpr_loss,
    init_table,
    propagate,
)
from fedrec.pretrain import infonce_gradients
from fedrec.privacy import laplace_noise, privacy_budget
from fedrec.rng import substream
from fedrec.server import (
    _neighbor_setup,
    aggregate,
    item_token,
    matcher_key,
    personalized_models,
    run_training,
    warm_up,
)
from fedrec.synthetic import two_community_dataset
from helpers import (
    dense_readout,
    loop_neighbor_setup,
    max_rel_error,
    neighborhood_match,
    random_bipartite,
    random_table,
    table_loss_gradient,
)


def _report(num: int, name: str, passed: bool, note: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    return passed


@pytest.fixture(scope="module")
def benchmark_split():
    return leave_one_out_split(
        two_community_dataset(n_users=200, n_items=100, seed=0, per_user=18)
    )


def test_01_gradient_oracles_match_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    instances = 0
    for trial in range(12):
        rng = np.random.default_rng(100 + trial)
        n_users = int(rng.integers(2, 11))
        n_items = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        n_layers = trial % 4
        graph = random_bipartite(rng, n_users, n_items, edge_prob=0.4)
        op = PropagationOperator(n_users, n_items, graph.edges, n_layers)
        raw = random_table(rng, n_users, n_items, dim)
        triples = [
            (
                int(rng.integers(n_users)),
                int(rng.integers(n_items)),
                int(rng.integers(n_items)),
            )
            for _ in range(4)
        ]
        gamma = float(rng.uniform(0.0, 0.1))
        analytic = bpr_gradients(op, raw, triples, gamma)[2]
        fd = table_loss_gradient(
            lambda t: bpr_loss(propagate(op, t), triples, gamma, t), raw
        )
        worst = max(
            worst,
            max_rel_error(analytic.users, fd.users),
            max_rel_error(analytic.items, fd.items),
        )
        instances += 1
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        tau = float(rng.uniform(0.15, 1.5))
        a = random_table(rng, n, n, dim)
        b = random_table(rng, n, n, dim)
        _, ga, gb = infonce_gradients(a, b, tau)
        fd_a = table_loss_gradient(lambda t: infonce_gradients(t, b, tau)[0], a)
        fd_b = table_loss_gradient(lambda t: infonce_gradients(a, t, tau)[0], b)
        worst = max(
            worst,
            max_rel_error(ga.users, fd_a.users),
            max_rel_error(ga.items, fd_a.items),
            max_rel_error(gb.users, fd_b.users),
            max_rel_error(gb.items, fd_b.items),
        )
        instances += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and instances >= 20 and elapsed < 10.0
    assert _report(
        1,
        "gradient-oracles",
        ok,
        f"{instances} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_propagation_matches_dense_matrix_powers():
    worst = 0.0
    for trial in range(15):
        rng = np.random.default_rng(500 + trial)
        n_users = int(rng.integers(1, 7))
        n_items = int(rng.integers(1, 13 - n_users))
        n_layers = trial % 4
        graph = random_bipartite(rng, n_users, n_items, edge_prob=0.5)
        op = PropagationOperator(n_users, n_items, graph.edges, n_layers)
        table = random_table(rng, n_users, n_items, 4)
        out = propagate(op, table)
        oracle = dense_readout(n_users, n_items, graph.edges, n_layers, table)
        worst = max(
            worst,
            float(np.abs(out.users - oracle.users).max()),
            float(np.abs(out.items - oracle.items).max()),
        )
    assert _report(2, "propagation-oracle", worst <= 1e-10, f"worst abs err {worst:.2e}")


def test_03_one_federated_round_equals_a_centralized_step():
    started = time.perf_counter()
    split = leave_one_out_split(
        two_community_dataset(n_users=30, n_items=20, seed=5, per_user=6)
    )
    cfg = default_config()
    cfg.model.dim = 8
    cfg.model.layers = 2
    cfg.train.eta = 0.5
    cfg.train.max_rounds = 1
    cfg.train.eval_every = 5
    cfg.train.clients_per_round = 30
    cfg.cluster.k = 1
    cfg.pretrain.epochs = 0
    result = run_training(cfg, split, warm_up(cfg, split).table)

    # centralized oracle: replay every client's draws, take exact gradients on
    # the full local operator, and combine them by data-count weights
    init = init_table(30, 20, 8, substream(0, "init"))
    updates = []
    expected_users = init.users.copy()
    for user in range(30):
        stream = substream(0, "client", 1, user)
        cg = build_client_graph(split, user, PrivacySection(), stream)
        triples = sample_bpr_triples(cg, len(cg.true_items), stream)
        op = PropagationOperator(
            1, 20, tuple((0, i) for i in sorted(cg.true_items)), 2
        )
        raw = EmbeddingTable(init.users[user][None, :], init.items)
        local = triples.copy()
        local[:, 0] = 0
        grads = bpr_gradients(op, raw, local, cfg.train.gamma)[2]
        expected_users[user] -= cfg.train.eta * grads.users[0]
        updates.append((len(cg.true_items), grads.items))
    total = sum(d for d, _ in updates)
    expected_items = init.items.copy()
    for count, item_grads in updates:
        expected_items -= cfg.train.eta * (count / total) * item_grads

    item_err = float(np.abs(result.global_items - expected_items).max())
    user_err = float(np.abs(result.states.user_rows - expected_users).max())
    elapsed = time.perf_counter() - started
    ok = item_err <= 1e-10 and user_err <= 1e-10 and elapsed < 5.0
    assert _report(
        3,
        "federated-equals-centralized",
        ok,
        f"item err {item_err:.2e}, user err {user_err:.2e}, {elapsed:.1f}s",
    )


def test_04_ldp_budget_and_noise_statistics():
    budget = privacy_budget(PrivacySection(clip_delta=0.1, laplace_lambda=0.2))
    draws = laplace_noise(substream(2024, "acceptance-ldp"), 0.2, 100_000)
    mean = float(draws.mean())
    mad = float(np.abs(draws).mean())
    ok = budget == 1.0 and abs(mean) <= 0.01 and abs(mad - 0.2) <= 0.05 * 0.2
    assert _report(
        4,
        "ldp-statistics",
        ok,
        f"budget {budget}, mean {mean:+.4f}, mad {mad:.4f}",
    )


def test_05_dataset_density_arithmetic():
    ds = InteractionDataset(5224, 7741, np.zeros((123024, 3)))
    value = density(ds)
    assert _report(
        5, "density-arithmetic", abs(value - 0.003042) <= 1e-6, f"density {value:.6f}"
    )


def test_06_evaluation_matches_full_sort_oracle():
    gen = np.random.default_rng(8)
    rows = []
    for u in range(20):
        items = gen.choice(15, size=6, replace=False)
        rows.extend((u, int(i), t) for t, i in enumerate(items))
    split = leave_one_out_split(InteractionDataset(20, 15, rows))
    items_table = gen.normal(size=(15, 5))
    models = {
        u: UserEvalModel(gen.normal(size=5), items_table, split.train_items(u))
        for u in range(20)
    }
    exact = True
    for phase in ("validation", "test"):
        held = split.validation if phase == "validation" else split.test
        ranks = {}
        for u, model in models.items():
            excluded = set(model.excluded)
            if phase == "test":
                excluded.add(split.validation[u])
            scores = items_table @ model.user_embedding
            ordered = sorted(
                (i for i in range(15) if i not in excluded),
                key=lambda i: (-scores[i], i),
            )
            ranks[u] = ordered.index(held[u]) + 1 if held[u] in ordered else None
        for k in (5, 10):
            result = evaluate_cutoffs(split, models.items(), (k,))[phase][k]
            exact &= result.recall == np.mean(
                [recall_at_k(r, k) for r in ranks.values()]
            )
            exact &= result.ndcg == np.mean(
                [ndcg_at_k(r, k) for r in ranks.values()]
            )
    ndcg2 = ndcg_at_k(2, 10)
    exact &= abs(ndcg2 - 1.0 / math.log2(3.0)) <= 1e-12
    assert _report(6, "metric-oracle", exact, f"ndcg(rank=2)={ndcg2:.6f}")


def _speedup_config(seed, pretrain_epochs):
    cfg = default_config()
    cfg.model.dim = 16
    cfg.model.layers = 2
    cfg.train.eta = 10.0
    cfg.train.seed = seed
    cfg.train.max_rounds = 30
    cfg.train.eval_every = 2
    cfg.train.patience = 100
    cfg.train.clients_per_round = 200
    cfg.cluster.k = 2
    cfg.pretrain.epochs = pretrain_epochs
    cfg.pretrain.eta = 0.3
    return cfg


def _rounds_to_threshold(reports, threshold):
    for report in reports:
        if report.val_ndcg is not None and report.val_ndcg >= threshold:
            return report.round
    return float("inf")


def test_07_pretraining_reaches_the_validation_threshold_sooner(benchmark_split):
    started = time.perf_counter()
    threshold = 0.10
    warm, cold = [], []
    for seed in range(5):
        cold_cfg, warm_cfg = _speedup_config(seed, 0), _speedup_config(seed, 5)
        cold_run = run_training(cold_cfg, benchmark_split, warm_up(cold_cfg, benchmark_split).table)
        warm_run = run_training(warm_cfg, benchmark_split, warm_up(warm_cfg, benchmark_split).table)
        cold.append(_rounds_to_threshold(cold_run.reports, threshold))
        warm.append(_rounds_to_threshold(warm_run.reports, threshold))
    elapsed = time.perf_counter() - started
    ok = float(np.median(warm)) < float(np.median(cold)) and elapsed < 300.0
    assert _report(
        7,
        "pretraining-speedup",
        ok,
        f"rounds-to-{threshold}: warm median {np.median(warm)} {warm}, "
        f"cold median {np.median(cold)} {cold}, {elapsed:.0f}s",
    )


def _ablation_config(seed):
    cfg = default_config()
    cfg.model.dim = 16
    cfg.model.layers = 2
    cfg.train.eta = 10.0
    cfg.train.seed = seed
    cfg.train.max_rounds = 12
    cfg.train.eval_every = 4
    cfg.train.patience = 100
    cfg.train.clients_per_round = 64
    cfg.cluster.k = 2
    cfg.cluster.recluster_every = 12
    cfg.pretrain.epochs = 5
    cfg.pretrain.eta = 0.3
    return cfg


def _final_test_ndcg(cfg, split):
    models = personalized_models(split, run_training(cfg, split, warm_up(cfg, split).table), cfg)
    return evaluate_cutoffs(split, models, (20,))["test"][20].ndcg


def test_08_full_configuration_beats_every_ablation(benchmark_split):
    started = time.perf_counter()
    variants = {
        "full": lambda c: None,
        "no_pretrain": lambda c: setattr(c.pretrain, "epochs", 0),
        "no_personalization": lambda c: setattr(
            c.personalization, "alpha", (0.0, 0.0, 1.0)
        ),
        "no_clustering": lambda c: setattr(c.cluster, "k", 1),
    }
    medians = {}
    for name, tweak in variants.items():
        scores = []
        for seed in range(5):
            cfg = _ablation_config(seed)
            tweak(cfg)
            scores.append(_final_test_ndcg(cfg, benchmark_split))
        medians[name] = float(np.median(scores))
    elapsed = time.perf_counter() - started
    ok = (
        all(
            medians["full"] >= medians[name]
            for name in ("no_pretrain", "no_personalization", "no_clustering")
        )
        and elapsed < 900.0
    )
    detail = ", ".join(f"{k}={v:.4f}" for k, v in medians.items())
    assert _report(8, "ablation-direction", ok, f"{detail}, {elapsed:.0f}s")


def test_09_simulate_is_byte_deterministic_across_reruns(tmp_path):
    data = tmp_path / "two.tsv"
    write_interactions(
        two_community_dataset(n_users=30, n_items=20, seed=7, per_user=6), data
    )
    outputs = []
    for run in ("a", "b", "c"):
        out = tmp_path / run
        code = cli_main(
            [
                "simulate",
                "--data.path", str(data),
                "--model.dim", "8",
                "--model.layers", "1",
                "--train.max_rounds", "4",
                "--train.eval_every", "2",
                "--train.eta", "0.5",
                "--train.clients_per_round", "30",
                "--cluster.k", "2",
                "--pretrain.epochs", "2",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("rounds.jsonl", "checkpoint.txt", "pretrained.txt")
            }
        )
    identical = outputs[0] == outputs[1] == outputs[2]
    assert _report(9, "determinism", identical, "three reruns")


def test_10_pseudo_items_hide_the_true_support_and_ids_stay_tokenized():
    split = leave_one_out_split(
        two_community_dataset(n_users=12, n_items=30, seed=9, per_user=6)
    )
    items = substream(0, "acc-items").normal(0.0, 0.1, size=(30, 6))
    experiment = default_config()
    experiment.model.layers, experiment.train.eta = 2, 0.1
    # LDP at the default clip_delta 0.1 and laplace_lambda 0.2
    privacy = experiment.privacy = PrivacySection(
        pseudo_items_p=2, mask_ratio=0.2, enabled=True
    )
    cfg = ClientConfig(split, experiment)
    supports_ok = True
    for round_idx in (1, 2):
        for user in range(12):
            # every user from the mean item row, over the warm-start items
            start = EmbeddingTable(np.tile(items.mean(axis=0), (12, 1)), items)
            (update,) = client_round(
                ClientStates.start(start), [user], items, cfg, [substream(3, "client", round_idx, user)]
            )
            # the update's local graph, rebuilt from the same stream
            graph = build_client_graph(
                split, user, privacy, substream(3, "client", round_idx, user)
            )
            support = set(update.items.tolist())
            outside = support - set(split.train_items(user).tolist())
            supports_ok &= bool(outside)
            supports_ok &= graph.pseudo_items <= support

    key = matcher_key(3)
    uploads = {
        u: [item_token(i, key) for i in split.train_items(u).tolist()]
        for u in range(12)
    }
    responses = neighborhood_match(uploads, key)
    raw_ids = {str(x) for x in range(max(30, 12))}
    seen_strings = set()
    for entry in responses.values():
        for token, anon_users in entry.items():
            seen_strings.add(token)
            seen_strings.update(anon_users)
    tokens_ok = all(
        len(s) == 32 and set(s) <= set("0123456789abcdef") for s in seen_strings
    )
    audit_ok = not (seen_strings & raw_ids)
    # the array matcher the rounds use returns what these audited responses say
    experiment.train.seed = 3
    neighbors, by_handle = _neighbor_setup(experiment, split)
    expected, expected_by_handle = loop_neighbor_setup(3, split)
    same_ok = np.array_equal(by_handle, expected_by_handle) and all(
        np.array_equal(neighbors[u], expected[u]) for u in range(12)
    )
    ok = supports_ok and tokens_ok and audit_ok and same_ok
    assert _report(
        10,
        "privacy-plumbing",
        ok,
        f"{len(seen_strings)} tokens audited",
    )
