import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import client as client_module
from fedrec import cli, evaluation, server
from fedrec.client import ClientStates, Overlay, personalize
from fedrec.config import default_config, set_key
from fedrec.evaluation import evaluate_cutoffs, user_ranks
from fedrec.errors import NumericError
from fedrec.gnn import EmbeddingTable, GradientUpdate, init_table
from fedrec.privacy import randomize_vector
from fedrec.rng import substream, substreams
from fedrec.server import (
    _kmeans_pp,
    _nearest_centres,
    _neighbor_setup,
    ClusterAssignment,
    aggregate,
    apply_update,
    cluster_users,
    eval_graphs,
    eval_models,
    item_token,
    matcher_key,
    personalized_models,
    run_training,
    select_clients,
    user_token,
    warm_up,
)
from fedrec.synthetic import two_community_dataset
from fedrec.data import InteractionDataset, leave_one_out_split
from helpers import (
    full_sort_ranks,
    local_item_table,
    loop_cluster_users,
    loop_eval_graph,
    loop_eval_model,
    loop_neighbor_setup,
    loop_noised_uploads,
    neighborhood_match,
    star_user_readout,
)


class TestClusterUsers:
    def test_single_cluster_gets_the_mean(self, rng):
        X = rng.normal(size=(12, 3))
        result = cluster_users(X, 1, rng)
        assert set(result.assignment.tolist()) == {0}
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-12)

    def test_two_separated_clouds(self, rng):
        a = rng.normal(0.0, 0.1, size=(15, 2))
        b = rng.normal(0.0, 0.1, size=(10, 2)) + 100.0
        X = np.vstack([a, b])
        result = cluster_users(X, 2, rng)
        first = set(result.assignment[:15].tolist())
        second = set(result.assignment[15:].tolist())
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_k_equals_n(self, rng):
        X = rng.normal(size=(6, 2))
        result = cluster_users(X, 6, rng)
        assert sorted(result.assignment.tolist()) == list(range(6))
        if result.inertia_path:
            assert result.inertia_path[-1] == pytest.approx(0.0, abs=1e-18)

    def test_objective_never_increases(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            X = gen.normal(size=(40, 3))
            result = cluster_users(X, 4, np.random.default_rng(1000 + seed))
            path = result.inertia_path
            assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))

    def test_every_cluster_nonempty_even_with_duplicate_points(self):
        X = np.vstack([np.zeros((4, 2)), np.ones((4, 2))])
        result = cluster_users(X, 3, np.random.default_rng(0))
        counts = np.bincount(result.assignment, minlength=3)
        assert (counts > 0).all()

    def test_bad_k_rejected(self, rng):
        with pytest.raises(ValueError):
            cluster_users(rng.normal(size=(3, 2)), 4, rng)

    @pytest.mark.parametrize("n, k, d", [(7, 3, 3), (400, 4, 32), (513, 17, 129)])
    def test_equals_a_lloyd_loop_on_broadcast_distances(self, n, k, d):
        X = np.random.default_rng(n + k + d).normal(size=(n, d))
        ours = cluster_users(X, k, np.random.default_rng(5))

        # reference: the same seeding, revival and stopping rule, with the
        # N x k x d broadcast distance
        centers = _kmeans_pp(X, k, np.random.default_rng(5))
        assign = np.full(n, -1, dtype=np.int64)
        path = []
        for _ in range(100):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new = d2.argmin(axis=1)
            counts = np.bincount(new, minlength=k)
            for c in range(k):
                if counts[c] > 0:
                    continue
                own = d2[np.arange(n), new].copy()
                own[counts[new] < 2] = -np.inf
                donor = int(own.argmax())
                counts[new[donor]] -= 1
                new[donor] = c
                counts[c] = 1
            if np.array_equal(new, assign):
                break
            assign = new
            for c in range(k):
                centers[c] = X[assign == c].mean(axis=0)
            path.append(float(((X - centers[assign]) ** 2).sum()))

        np.testing.assert_array_equal(ours.assignment, assign)
        assert ours.centroids.tobytes() == centers.tobytes()
        assert ours.inertia_path == tuple(path)


def kmeans_case(family: str, seed: int) -> tuple[np.ndarray, int]:
    """Inputs on which a distance estimate is hardest to trust: exact ties,
    repeated points, one or many dimensions, extreme scales, overflow."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 50))
    d = int(gen.choice([1, 2, 3, 8, 16]))
    k = min(n, int(gen.integers(1, 8)))
    if family == "lattice":
        X = gen.integers(-2, 3, size=(n, d)).astype(float)
    elif family == "duplicates":  # few distinct points: empty clusters revive
        distinct = gen.normal(size=(int(gen.integers(1, 4)), int(gen.choice([d, 129]))))
        X = distinct[gen.integers(len(distinct), size=n)] * 0.1
        k = int(gen.integers(1, n + 1))
    elif family == "k-equals-n":
        X = gen.integers(-2, 3, size=(n, d)).astype(float)
        k = n
    elif family == "d1":
        X = gen.normal(size=(n, 1)) * 10.0 ** float(gen.integers(-160, 151))
    elif family == "d129":
        X = gen.normal(size=(n, 129))
    elif family == "scales":
        X = gen.normal(size=(n, d)) * 10.0 ** float(gen.integers(-160, 151))
    elif family == "scaled-lattice":
        X = gen.integers(-3, 4, size=(n, d)) * 10.0 ** float(gen.integers(-160, 151))
    elif family == "subnormal":  # squared differences underflow
        X = gen.integers(-3, 4, size=(n, d)) * 10.0 ** float(gen.integers(-165, -150))
    elif family == "overflow":
        X = gen.normal(size=(n, d)) * 10.0 ** float(gen.choice([152, 153, 154, 155]))
    else:  # "non-finite"
        X = gen.normal(size=(n, d)) * 10.0 ** float(gen.choice([0, 154, 200]))
        X[gen.integers(n), gen.integers(d)] = gen.choice([np.inf, -np.inf, np.nan])
    return X, k


def kmeans_outcome(cluster, X, k, seed, **errstate):
    """Bytes of assignment, centroids and inertia path, or the error text."""
    try:
        with np.errstate(**errstate):
            got = cluster(X, k, np.random.default_rng(seed))
    except (FloatingPointError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, ClusterAssignment):
        got = got.assignment, got.centroids, got.inertia_path
    assignment, centroids, path = got
    return assignment.tobytes(), centroids.tobytes(), np.array(path).tobytes()


class TestClusterUsersIsExact:
    """``cluster_users`` assigns from a distance estimate and sums exactly
    only where it cannot separate the nearest centres; the outcome must be
    that of the per-centre loop in ``helpers``, bit for bit."""

    @pytest.mark.parametrize(
        "family",
        ["lattice", "duplicates", "k-equals-n", "d1", "d129", "scales",
         "scaled-lattice", "subnormal", "overflow"],
    )
    def test_equals_the_per_centre_loop(self, family):
        raised = 0
        for seed in range(40):
            X, k = kmeans_case(family, seed)
            want = kmeans_outcome(loop_cluster_users, X, k, seed, over="raise", invalid="raise")
            got = kmeans_outcome(cluster_users, X, k, seed, over="raise", invalid="raise")
            assert got == want, (family, seed)
            raised += want[0] == "FloatingPointError"
        assert (raised > 0) == (family == "overflow")

    def test_equals_the_per_centre_loop_on_non_finite_input(self):
        # nothing raises: non-finite distances must still pick what the
        # per-centre sums pick
        for seed in range(40):
            X, k = kmeans_case("non-finite", seed)
            want = kmeans_outcome(loop_cluster_users, X, k, seed, all="ignore")
            assert kmeans_outcome(cluster_users, X, k, seed, all="ignore") == want, seed

    def test_equidistant_point_takes_the_lower_id(self):
        # exactly 0.25 from both centres; the estimate |x|^2 - 2x.c + |c|^2
        # rounds at this offset and need not see the tie
        off = 91275557.0
        X = np.array([[off, 0.5]])
        xx = (X**2).sum(axis=1)
        for centers in ([[off, 0.0], [off, 1.0]], [[off, 1.0], [off, 0.0]]):
            centers = np.array(centers)
            assert ((X - centers) ** 2).sum(axis=1).tolist() == [0.25, 0.25]
            assert _nearest_centres(X, xx, centers).tolist() == [0]


def assignment_of(cluster_sizes):
    labels = np.concatenate(
        [np.full(size, c, dtype=np.int64) for c, size in enumerate(cluster_sizes)]
    )
    centroids = np.zeros((len(cluster_sizes), 2))
    return ClusterAssignment(len(cluster_sizes), labels, centroids)


class TestSelectClients:
    def quota_counts(self, assign, selected):
        return np.bincount(assign.assignment[selected], minlength=assign.k).tolist()

    def test_exact_proportions(self, rng):
        assign = assignment_of([30, 10])
        selected = select_clients(assign, 4, rng)
        assert self.quota_counts(assign, selected) == [3, 1]

    def test_full_budget_selects_everyone(self, rng):
        assign = assignment_of([5, 7])
        assert select_clients(assign, 12, rng) == list(range(12))

    def test_largest_remainder_example(self, rng):
        assign = assignment_of([5, 3, 2])
        selected = select_clients(assign, 5, rng)
        assert self.quota_counts(assign, selected) == [3, 1, 1]

    def test_each_nonempty_cluster_kept_when_budget_allows(self, rng):
        # shares (4.8, 0.1, 0.1): pure largest remainder would zero a cluster
        assign = assignment_of([48, 1, 1])
        selected = select_clients(assign, 5, rng)
        counts = self.quota_counts(assign, selected)
        assert counts[1] >= 1 and counts[2] >= 1
        assert sum(counts) == 5

    def test_selection_is_unique_and_within_clusters(self, rng):
        assign = assignment_of([4, 6, 2])
        selected = select_clients(assign, 7, rng)
        assert len(set(selected)) == 7

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_quotas_always_sum_to_the_budget(self, sizes, seed, data):
        assign = assignment_of(sizes)
        n = sum(sizes)
        budget = data.draw(st.integers(1, n))
        selected = select_clients(assign, budget, np.random.default_rng(seed))
        assert len(selected) == budget
        assert len(set(selected)) == budget


def scalar_update(value, count):
    return GradientUpdate([0], [[value]], count)


class TestAggregate:
    def test_weighted_mean(self):
        merged = aggregate([scalar_update(0.0, 1), scalar_update(4.0, 3)])
        assert merged.item_grads[0][0] == pytest.approx(3.0, abs=1e-15)
        assert merged.data_count == 4

    def test_single_update_is_returned_as_is(self, rng):
        upd = GradientUpdate([2, 6], rng.normal(size=(2, 3)), 5)
        merged = aggregate([upd])
        np.testing.assert_array_equal(merged.items, upd.items)
        np.testing.assert_allclose(merged.item_grads, upd.item_grads, atol=1e-15)

    def test_uniform_counts_match_plain_mean_oracle(self, rng):
        updates = [
            GradientUpdate(np.arange(3), rng.normal(size=(3, 4)), 7)
            for _ in range(5)
        ]
        merged = aggregate(updates)
        oracle = np.mean([u.item_grads for u in updates], axis=0)
        np.testing.assert_allclose(merged.item_grads, oracle, atol=1e-12)

    def test_missing_rows_count_as_zero(self):
        a = GradientUpdate([0], [[2.0]], 1)
        b = GradientUpdate([1], [[2.0]], 1)
        merged = aggregate([a, b])
        np.testing.assert_array_equal(merged.items, [0, 1])
        assert merged.item_grads[0][0] == pytest.approx(1.0)
        assert merged.item_grads[1][0] == pytest.approx(1.0)

    def test_permutation_invariance(self, rng):
        updates = [
            GradientUpdate(np.arange(4), rng.normal(size=(4, 2)), int(d))
            for d in rng.integers(1, 9, size=6)
        ]
        forward = aggregate(updates)
        backward = aggregate(list(reversed(updates)))
        np.testing.assert_allclose(forward.item_grads, backward.item_grads, atol=1e-12)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            aggregate([scalar_update(1.0, 0), scalar_update(2.0, 0)])


    def test_rows_sum_in_update_order(self, rng):
        updates = [
            GradientUpdate(ids, rng.normal(size=(len(ids), 3)), int(d))
            for ids, d in (([0, 2, 5], 3), ([2, 3], 1), ([0, 5, 7], 4), ([5], 2))
        ]
        total = sum(u.data_count for u in updates)
        oracle: dict[int, np.ndarray] = {}
        for upd in updates:
            for item, row in zip(upd.items.tolist(), upd.item_grads):
                grad = upd.data_count / total * row
                oracle[item] = oracle[item] + grad if item in oracle else grad
        merged = aggregate(updates)
        np.testing.assert_array_equal(merged.items, sorted(oracle))
        np.testing.assert_array_equal(
            merged.item_grads, [oracle[i] for i in sorted(oracle)]
        )

class TestApplyUpdate:
    def test_zero_gradient_changes_nothing(self, rng):
        table = rng.normal(size=(3, 2))
        out = apply_update(table, GradientUpdate([], np.zeros((0, 2)), 1), 0.5)
        np.testing.assert_array_equal(out, table)

    def test_unit_eta_subtracts_the_row(self, rng):
        table = rng.normal(size=(3, 2))
        grad = rng.normal(size=2)
        out = apply_update(table, GradientUpdate([1], [grad], 1), 1.0)
        np.testing.assert_allclose(out[1], table[1] - grad, atol=1e-15)

    def test_sequential_steps_compose_linearly(self, rng):
        table = rng.normal(size=(4, 2))
        g1 = GradientUpdate([0], rng.normal(size=(1, 2)), 1)
        g2 = GradientUpdate([0], rng.normal(size=(1, 2)), 1)
        combined = GradientUpdate([0], g1.item_grads + g2.item_grads, 2)
        stepwise = apply_update(apply_update(table, g1, 0.3), g2, 0.3)
        at_once = apply_update(table, combined, 0.3)
        np.testing.assert_allclose(stepwise, at_once, atol=1e-12)


class TestNeighborhoodMatch:
    def test_two_clients_sharing_one_item(self):
        key = matcher_key(0)
        token = item_token(7, key)
        uploads = {0: [token], 1: [token]}
        responses = neighborhood_match(uploads, key)
        assert responses[0] == {token: (user_token(1, key),)}
        assert responses[1] == {token: (user_token(0, key),)}

    def test_no_shared_items(self):
        key = matcher_key(0)
        uploads = {0: [item_token(1, key)], 1: [item_token(2, key)]}
        responses = neighborhood_match(uploads, key)
        assert responses == {0: {}, 1: {}}

    def test_three_way_share_counts_two_neighbors_each(self):
        key = matcher_key(0)
        token = item_token(4, key)
        uploads = {c: [token] for c in range(3)}
        responses = neighborhood_match(uploads, key)
        for c in range(3):
            assert len(responses[c][token]) == 2

    def test_raw_ids_never_appear_in_messages(self):
        key = matcher_key(3)
        uploads = {
            c: [item_token(i, key) for i in (c, c + 1, 50)] for c in range(4)
        }
        responses = neighborhood_match(uploads, key)
        payload = json.dumps(
            {str(c): {t: list(v) for t, v in responses[c].items()} for c in responses}
        )
        for raw in list(range(6)) + [50]:
            assert f'"{raw}"' not in payload.replace('"0":', "").replace(
                '"1":', ""
            ).replace('"2":', "").replace('"3":', "")
        for entry in responses.values():
            for token, anon in entry.items():
                assert len(token) == 32 and all(ch in "0123456789abcdef" for ch in token)
                for a in anon:
                    assert len(a) == 32

    def test_tokens_differ_across_keys(self):
        assert item_token(7, matcher_key(0)) != item_token(7, matcher_key(1))

    def test_neighbor_setup_pairs_each_item_with_its_other_owners(self):
        split = leave_one_out_split(two_community_dataset(12, 10, seed=2, per_user=4))
        cfg = default_config()
        cfg.train.seed = 6
        key = matcher_key(6)
        neighbors, by_handle = _neighbor_setup(cfg, split)
        train = {u: set(split.train_items(u).tolist()) for u in range(split.n_users)}
        assert len(neighbors) == len(train)
        # a handle is the rank of the user's anonymous token
        tokens = [user_token(u, key) for u in range(split.n_users)]
        assert [tokens[u] for u in by_handle] == sorted(tokens)
        handle_of = {u: h for h, u in enumerate(by_handle.tolist())}
        for user, own in train.items():
            expected = sorted(
                (handle_of[other], item)
                for item in own
                for other, theirs in train.items()
                if other != user and item in theirs
            )
            assert neighbors[user].dtype == np.int64
            assert neighbors[user].tolist() == [list(p) for p in expected]


def split_training_on(train_sets, n_items: int):
    """A split whose user ``u`` trains on exactly ``train_sets[u]``: every
    user's two later interactions are items ``n_items`` and ``n_items + 1``."""
    rows = [(u, i, t) for u, own in enumerate(train_sets) for t, i in enumerate(own)]
    rows += [(u, n_items + k, 99 + k) for u in range(len(train_sets)) for k in (0, 1)]
    return leave_one_out_split(InteractionDataset(len(train_sets), n_items + 2, rows))


class TestNeighborSetupEqualsTheDictMatcher:
    """The array matcher against the per-item owner lists it replaced
    (``helpers.loop_neighbor_setup``): the same CSR rows, dtypes and handles."""

    CASES = {
        "no item shared": [[0], [1, 2], [3]],
        "items held by one user": [[0, 1, 5], [1, 2], [3], [2, 4, 5], [6]],
        "users sharing every item": [[0, 1, 2, 3]] * 5,
        "one user": [[0, 1]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equal_the_oracle(self, case, seed):
        split = split_training_on(self.CASES[case], n_items=7)
        self.assert_equal_the_oracle(split, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_the_oracle_on_random_splits(self, seed):
        gen = np.random.default_rng(seed)
        n_items = int(gen.integers(2, 12))
        train_sets = [
            gen.choice(n_items, size=int(gen.integers(1, n_items + 1)), replace=False)
            for _ in range(int(gen.integers(1, 30)))
        ]
        self.assert_equal_the_oracle(split_training_on(train_sets, n_items), seed)

    @staticmethod
    def assert_equal_the_oracle(split, seed):
        cfg = default_config()
        cfg.train.seed = seed
        neighbors, by_handle = _neighbor_setup(cfg, split)
        expected, expected_by_handle = loop_neighbor_setup(seed, split)
        assert by_handle.dtype == expected_by_handle.dtype
        np.testing.assert_array_equal(by_handle, expected_by_handle)
        assert len(neighbors) == split.n_users and neighbors.indptr.dtype == np.int64
        assert neighbors.rows.dtype == np.int64 and neighbors.rows.shape[1:] == (2,)
        for user in range(split.n_users):
            assert neighbors[user].tolist() == expected[user].tolist()


def upload_states(n_users: int, dim: int, seed: int) -> ClientStates:
    # rows at about clip_delta's scale, so some entries are clipped
    rows = substream(seed, "uploads").normal(0.0, 0.15, (n_users, dim))
    return ClientStates.start(EmbeddingTable(rows, np.zeros((1, dim))))


class TestNoisedUploads:
    # every width up to 70 and 128, 129: each SIMD tail length of the block
    # transform against the per-row transform
    @pytest.mark.parametrize("dim", [*range(1, 71), 128, 129])
    def test_block_noise_equals_the_per_row_oracle(self, dim):
        cfg = tiny_config(**{"privacy.enabled": True, "train.seed": 2**40 + dim})
        states = upload_states(9, dim, dim)
        block = states.inferred.copy()
        ours = server._noised_uploads(states, cfg, "cluster-upload", dim % 5)
        ref = loop_noised_uploads(block, cfg, "cluster-upload", dim % 5)
        assert ours.tobytes() == ref.tobytes()
        assert not np.array_equal(ours, np.clip(block, -0.1, 0.1))

    def test_zero_lambda_clips_and_draws_nothing(self, monkeypatch):
        cfg = tiny_config(**{"privacy.enabled": True, "privacy.laplace_lambda": 0.0})
        states = upload_states(5, 4, 1)
        block = states.inferred.copy()
        keys, real = [], server.substreams

        def recorded(*key, ids):
            keys.extend(ids)
            return real(*key, ids=ids)

        monkeypatch.setattr(server, "substreams", recorded)
        out = server._noised_uploads(states, cfg, "cluster-upload", 1)
        assert out.tobytes() == np.clip(block, -0.1, 0.1).tobytes()
        assert keys == []
        assert out.tobytes() == loop_noised_uploads(block, cfg, "cluster-upload", 1).tobytes()

    def test_privacy_off_returns_the_plain_stack(self):
        cfg = tiny_config()
        states = upload_states(5, 4, 2)
        out = server._noised_uploads(states, cfg, "cluster-upload", 1)
        assert out.tobytes() == states.inferred.tobytes()
        # a new block: the caller may keep it while the round writes the states
        assert not np.shares_memory(out, states.inferred)

    def test_rows_and_streams_must_pair_up(self):
        cfg = tiny_config(**{"privacy.enabled": True})
        with pytest.raises(ValueError):
            randomize_vector(np.zeros((3, 2)), cfg.privacy, substreams(0, "x", ids=[0, 1]))


def tiny_config(**overrides):
    cfg = default_config()
    cfg.model.dim = 6
    cfg.model.layers = 2
    cfg.train.max_rounds = 4
    cfg.train.eval_every = 2
    cfg.train.clients_per_round = 24
    cfg.train.eta = 0.5
    cfg.cluster.k = 2
    cfg.pretrain.epochs = 0
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    return cfg


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(two_community_dataset(24, 16, seed=11, per_user=5))


def bare_models(split, table, cfg):
    """``fedrec evaluate``'s models: every user on ``table``'s own rows."""
    for i in range(0, split.n_users, server.EVAL_BLOCK):
        block = list(range(i, min(i + server.EVAL_BLOCK, split.n_users)))
        yield from eval_models(cfg, split, block, table).items()


class TestRunTraining:
    def test_zero_rounds_leave_the_tables_at_the_warm_start(self, tiny_split):
        cfg = tiny_config(**{"train.max_rounds": 0})
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        init = init_table(
            tiny_split.n_users, tiny_split.n_items, 6, substream(0, "init")
        )
        np.testing.assert_array_equal(result.global_items, init.items)
        np.testing.assert_array_equal(result.states.user_rows, init.users)
        assert result.reports == []
        assert len(result.assignment.assignment) == tiny_split.n_users

    def test_the_callers_table_is_left_as_it_was(self, tiny_split):
        # run_training trains the table it is given without a copy, so every
        # step must leave the caller's arrays alone
        cfg = tiny_config(**{"pretrain.epochs": 1, "train.eval_every": 1})
        cfg.privacy.enabled = True
        cfg.privacy.pseudo_items_p = 2
        cfg.graph.neighbor_expansion = True
        table = warm_up(cfg, tiny_split).table
        before = table.copy()
        result = run_training(cfg, tiny_split, table)
        assert result.global_items.tobytes() != before.items.tobytes()
        assert table.users.tobytes() == before.users.tobytes()
        assert table.items.tobytes() == before.items.tobytes()

    def test_same_seed_reproduces_reports_and_tables(self, tiny_split):
        cfg = tiny_config()
        a = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        b = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        assert [r.record() for r in a.reports] == [r.record() for r in b.reports]
        np.testing.assert_array_equal(a.global_items, b.global_items)
        np.testing.assert_array_equal(a.states.user_rows, b.states.user_rows)

    def test_no_clustering_reports_a_single_cluster(self, tiny_split):
        cfg = tiny_config(**{"cluster.k": 1})
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        assert all(r.n_clusters == 1 for r in result.reports)
        assert set(result.assignment.assignment.tolist()) == {0}

    def test_global_only_weights_match_bare_global_evaluation(self, tiny_split):
        cfg = tiny_config()
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        global_only = copy.deepcopy(cfg)
        global_only.personalization.alpha = (0.0, 0.0, 1.0)
        models = personalized_models(tiny_split, result, global_only)
        # bare side: the checkpoint rows, as `fedrec evaluate` ranks them
        bare = bare_models(tiny_split, result.checkpoint_table(), cfg)
        ours = evaluate_cutoffs(tiny_split, models, (10,))
        theirs = evaluate_cutoffs(tiny_split, bare, (10,))
        for phase in ("validation", "test"):
            assert ours[phase][10].recall == theirs[phase][10].recall
            assert ours[phase][10].ndcg == theirs[phase][10].ndcg

    def test_neighbor_expansion_runs_and_is_deterministic(self, tiny_split):
        cfg = tiny_config()
        cfg.graph.neighbor_expansion = True
        cfg.train.max_rounds = 2
        a = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        b = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        np.testing.assert_array_equal(a.global_items, b.global_items)
        # some client of the run has neighbour rows
        neighbors, _ = _neighbor_setup(cfg, tiny_split)
        assert any(len(neighbors[user]) for report in a.reports for user in report.selected)

    def test_early_stopping_restores_the_best_round(self, tiny_split):
        cfg = tiny_config(**{"train.max_rounds": 30, "train.patience": 2})
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        evaluated = [r for r in result.reports if r.val_ndcg is not None]
        best = max(evaluated, key=lambda r: r.val_ndcg)
        assert result.final_round == best.round

    def test_restored_snapshot_equals_a_run_stopped_at_the_best_round(
        self, tiny_split
    ):
        # the best-round snapshot shares the item tables and the overlays and
        # copies the client blocks; rounds run after it must not reach into it
        cfg = tiny_config(**{"train.max_rounds": 30, "train.patience": 2})
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        assert result.final_round < len(result.reports)
        cfg = tiny_config(**{"train.max_rounds": result.final_round})
        stopped = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        ours, theirs = result.checkpoint_table(), stopped.checkpoint_table()
        np.testing.assert_array_equal(ours.users, theirs.users)
        np.testing.assert_array_equal(ours.items, theirs.items)
        assert result.cluster_items.keys() == stopped.cluster_items.keys()
        for c, table in result.cluster_items.items():
            np.testing.assert_array_equal(table, stopped.cluster_items[c])
        ours, theirs = result.states, stopped.states
        for block in ("user_rows", "inferred", "losses"):
            assert getattr(ours, block).tobytes() == getattr(theirs, block).tobytes(), block
        assert len(ours.overlays) == len(theirs.overlays) == tiny_split.n_users
        for mine, other in zip(ours.overlays, theirs.overlays):
            assert mine.local_items.tobytes() == other.local_items.tobytes()
            assert mine.local_rows.tobytes() == other.local_rows.tobytes()

    @pytest.mark.parametrize("where", ["user_row", "overlay_row"])
    def test_a_non_finite_client_state_is_named(self, tiny_split, monkeypatch, where):
        real = client_module.client_update

        def overflowing(states, cg, *args):
            update, user = real(states, cg, *args), cg.user
            if where == "user_row":
                states.user_rows[user, 0] = np.inf
            else:
                items, rows = states.overlays[user]
                rows = rows.copy()
                rows[-1, 0] = np.inf
                states.overlays[user] = Overlay(items, rows)
            return update

        monkeypatch.setattr(client_module, "client_update", overflowing)
        cfg = tiny_config()
        with pytest.raises(NumericError, match="client state after round 1"):
            run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)

    def test_a_non_finite_cluster_table_is_named(self, tiny_split, monkeypatch):
        real, calls = server.apply_update, []

        def overflowing(table, update, eta):
            calls.append(eta)
            out = real(table, update, eta)
            if len(calls) == 2:  # the first cluster step; the global one is first
                out[0, 0] = np.inf
            return out

        monkeypatch.setattr(server, "apply_update", overflowing)
        cfg = tiny_config()
        with pytest.raises(NumericError, match="cluster table after round 1"):
            run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)


class TestEverySettingReachesItsCode:
    """Moving one key off the base run changes what the key feeds: the
    warm-start table, the global items trained from the base's warm-start
    table, or the validation scores. So no setting is dropped or left
    unresolved on its way to the code that reads it."""

    @staticmethod
    def config(key=None, value=None):
        cfg = tiny_config(**{"pretrain.epochs": 1, "train.max_rounds": 2, "train.eval_every": 1})
        cfg.privacy.enabled = True
        if key is not None:
            set_key(cfg, key, value)
        return cfg

    @staticmethod
    def outputs(cfg, split, warm):
        result = run_training(cfg, split, warm)
        return {
            "warm_up": warm_up(cfg, split).table.items.tobytes(),
            "train": result.global_items.tobytes(),
            "scores": [(r.val_recall, r.val_ndcg) for r in result.reports],
        }

    @pytest.fixture(scope="class")
    def base(self, tiny_split):
        warm = warm_up(self.config(), tiny_split).table
        return warm, self.outputs(self.config(), tiny_split, warm)

    @pytest.mark.parametrize(
        "key,value,reaches",
        [
            ("privacy.enabled", "false", "train"),
            ("privacy.clip_delta", "0.05", "train"),
            ("privacy.laplace_lambda", "0.5", "train"),
            ("privacy.pseudo_items_p", "2", "warm_up+train"),
            ("privacy.mask_ratio", "0.5", "warm_up+train"),
            ("pretrain.tau", "0.5", "warm_up"),
            ("pretrain.node_keep_prob", "1.0", "warm_up"),
            ("pretrain.edge_add_count", "5", "warm_up"),
            ("pretrain.noise_magnitude", "0.3", "warm_up"),
            ("pretrain.eta", "0.1", "warm_up"),
            ("train.gamma", "0.1", "train"),
            ("train.batch_size", "2", "train"),
            ("model.layers", "1", "warm_up+train"),
            ("personalization.alpha", "0.6,0.2,0.2", "scores"),
        ],
    )
    def test_moving_the_key_changes_what_it_feeds(self, tiny_split, base, key, value, reaches):
        warm, before = base
        after = self.outputs(self.config(key, value), tiny_split, warm)
        assert [part for part in reaches.split("+") if after[part] == before[part]] == []


class TestPersonalizedModels:
    @pytest.fixture(scope="class")
    def trained(self, tiny_split):
        cfg = tiny_config(**{"cluster.k": 3, "privacy.pseudo_items_p": 2})
        return cfg, run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)

    @staticmethod
    def reference_models(split, result, cfg):
        """Every user's model on its own copy of the full three-table mix."""
        models = {}
        states = result.states
        for user, overlay in enumerate(states.overlays):
            cluster = result.cluster_items[int(result.assignment.assignment[user])]
            mixed = personalize(
                local_item_table(overlay, states.local_base),
                cluster,
                result.global_items,
                cfg.personalization.alpha,
            )
            graph_items = loop_eval_graph(cfg, split, user)
            models[user] = loop_eval_model(cfg, states.user_rows[user], mixed, graph_items)
        return models

    def test_equal_the_full_three_table_mix(self, tiny_split, trained):
        cfg, result = trained
        assert len(np.unique(result.assignment.assignment)) >= 2
        assert any(len(o.local_items) for o in result.states.overlays)
        cfg = copy.deepcopy(cfg)
        cfg.personalization.alpha = (0.5, 0.3, 0.2)
        refs = self.reference_models(tiny_split, result, cfg)
        models = dict(personalized_models(tiny_split, result, cfg))
        assert sorted(models) == list(range(tiny_split.n_users))
        for user, ref in refs.items():
            ours = models[user]
            # the shared table is the cluster's mix; the overlay is in the scores
            cluster = result.cluster_items[int(result.assignment.assignment[user])]
            base = personalize(
                result.states.local_base, cluster, result.global_items, cfg.personalization.alpha
            )
            assert ours.item_rows.tobytes() == base.tobytes()
            # blocked products and the star kernel round differently from one user's
            np.testing.assert_allclose(ours.scores, ref.scores, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ours.user_embedding, ref.user_embedding, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(ours.excluded, ref.excluded)

    def test_no_overlay_row_leaks_to_the_next_member(self, tiny_split, trained):
        cfg, result = trained
        cfg = copy.deepcopy(cfg)
        cfg.personalization.alpha = (0.5, 0.3, 0.2)
        # cluster 0 holds users 0 and 1: the first with overlay rows, the second without
        with_rows = next(o for o in result.states.overlays if len(o.local_items))
        states = result.states.copy()
        states.overlays[0] = with_rows
        states.overlays[1] = Overlay(np.empty(0, np.int64), np.empty((0, cfg.model.dim)))
        in_second = (np.arange(tiny_split.n_users) >= 2).astype(np.int64)
        model = replace(
            result,
            assignment=ClusterAssignment(2, in_second, np.zeros((2, cfg.model.dim))),
            cluster_items={c: result.cluster_items[c] for c in (0, 1)},
            states=states,
        )
        base = personalize(
            states.local_base, model.cluster_items[0], model.global_items, cfg.personalization.alpha
        )
        seen = {user: m for user, m in personalized_models(tiny_split, model, cfg) if user < 2}
        assert all(m.item_rows.tobytes() == base.tobytes() for m in seen.values())
        # the first member scores its overlay rows, the second the cluster's mix
        ids = with_rows.local_items
        assert np.abs(seen[0].scores[ids] - base[ids] @ seen[0].user_embedding).max() > 1e-6
        np.testing.assert_allclose(seen[1].scores, base @ seen[1].user_embedding, rtol=0, atol=1e-12)
        graph = loop_eval_graph(cfg, tiny_split, 1)
        expected = star_user_readout(states.user_rows[1], base, graph, cfg.model.layers)
        np.testing.assert_allclose(seen[1].user_embedding, expected, rtol=0, atol=1e-12)

    def test_collected_models_keep_their_ranks(self, tiny_split, trained):
        cfg, result = trained
        refs = self.reference_models(tiny_split, result, cfg)
        collected = dict(personalized_models(tiny_split, result, cfg))
        ranks = user_ranks(tiny_split, collected.items())
        assert ranks == full_sort_ranks(tiny_split, collected.items())
        assert ranks == user_ranks(tiny_split, refs.items())
        assert ranks == user_ranks(tiny_split, personalized_models(tiny_split, result, cfg))

    @pytest.mark.parametrize("p", [0, 2])
    def test_exclusions_are_the_training_items_plus_pseudo_items(
        self, tiny_split, trained, p
    ):
        _, result = trained
        cfg = tiny_config(**{"privacy.pseudo_items_p": p})
        models = personalized_models(tiny_split, result, cfg)
        for user, model in models:
            train = tiny_split.train_items(user)
            if p == 0:
                np.testing.assert_array_equal(model.excluded, train)
            else:
                assert np.isin(train, model.excluded).all()
                assert len(model.excluded) == len(train) + p


def test_eval_graphs_equal_the_union_reference_on_random_sizes():
    gen = np.random.default_rng(13)
    for case in range(30):
        n_users, n_items = int(gen.integers(2, 12)), int(gen.integers(6, 40))
        per_user = int(gen.integers(3, n_items // 2 + 1))
        split = leave_one_out_split(two_community_dataset(n_users, n_items, case, per_user))
        # up to the whole free catalogue, where the pseudo items are all of it
        p = int(gen.integers(0, n_items))
        cfg = tiny_config(**{"privacy.pseudo_items_p": p, "train.seed": case})
        users = gen.permutation(n_users).tolist()
        for user, graph in zip(users, eval_graphs(cfg, split, users), strict=True):
            expected = loop_eval_graph(cfg, split, user)
            assert graph.dtype == np.int64 and graph.tolist() == expected.tolist(), (case, user)


def zero_rows(table: np.ndarray, items) -> np.ndarray:
    """A copy of ``table`` with ``items``' rows zeroed: their scores tie at 0."""
    out = table.copy()
    out[items] = 0.0
    return out


class TestBlockedRanks:
    """Ranks taken from blocks of users equal test_06's full sort of each
    model's own scores, across block boundaries (``EVAL_BLOCK`` 5 of 24
    users), with exact score ties and targets inside the excluded set."""

    TIED = [0, 1, 2, 3, 4, 5, 6, 7]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        for module in (evaluation, server, cli):
            monkeypatch.setattr(module, "EVAL_BLOCK", 5)

    @staticmethod
    def assert_cases_covered(split, models, ranks):
        held = [split.validation[u] for u in ranks] + [split.test[u] for u in ranks]
        assert any(r is None for pair in ranks.values() for r in pair)
        assert any(
            models[u].scores[t] == 0.0 and r is not None and t in TestBlockedRanks.TIED
            for u in ranks
            for t, r in zip((split.validation[u], split.test[u]), ranks[u])
        ), held

    def test_personalized_pass(self, tiny_split):
        cfg = tiny_config(**{"cluster.k": 3, "privacy.pseudo_items_p": 6})
        result = run_training(cfg, tiny_split, warm_up(cfg, tiny_split).table)
        assert any(len(o.local_items) for o in result.states.overlays)
        cfg.personalization.alpha = (0.5, 0.3, 0.2)
        tied = self.TIED
        states = result.states.copy()
        states.local_base = zero_rows(states.local_base, tied)
        for user, (ids, rows) in enumerate(states.overlays):
            states.overlays[user] = Overlay(ids, zero_rows(rows, np.isin(ids, tied)))
        model = replace(
            result,
            global_items=zero_rows(result.global_items, tied),
            cluster_items={c: zero_rows(t, tied) for c, t in result.cluster_items.items()},
            states=states,
        )
        models = dict(personalized_models(tiny_split, model, cfg))
        ranks = user_ranks(tiny_split, models.items())
        assert ranks == full_sort_ranks(tiny_split, models.items())
        self.assert_cases_covered(tiny_split, models, ranks)

    def test_bare_pass(self, tiny_split, tmp_path):
        cfg = tiny_config(**{"privacy.pseudo_items_p": 6})
        table = warm_up(cfg, tiny_split).table
        table = EmbeddingTable(table.users, zero_rows(table.items, self.TIED))
        models = dict(bare_models(tiny_split, table, cfg))
        assert sorted(models) == list(range(tiny_split.n_users))
        for user, ours in models.items():
            graph = loop_eval_graph(cfg, tiny_split, user)
            ref = loop_eval_model(cfg, table.users[user], table.items, graph)
            np.testing.assert_array_equal(ours.excluded, graph)
            np.testing.assert_allclose(ours.scores, ref.scores, rtol=0, atol=1e-12)
        ranks = user_ranks(tiny_split, models.items())
        assert ranks == full_sort_ranks(tiny_split, models.items())
        self.assert_cases_covered(tiny_split, models, ranks)
        # `fedrec evaluate` ranks the same models
        cli.cmd_evaluate(cfg, tiny_split, tmp_path, table)
        by_phase = evaluation.rank_metrics(ranks, cfg.eval.cutoffs)
        expected = cli._results_records(cfg, tiny_split, by_phase, 0)
        assert json.loads((tmp_path / "results.json").read_text()) == expected

    def test_eval_models_patch_equals_a_patched_table(self, tiny_split):
        cfg = tiny_config()
        gen = np.random.default_rng(3)
        rows, users = gen.normal(size=(16, 6)), gen.normal(size=(3, 6))
        graphs = [tiny_split.train_items(u) for u in range(3)]
        owner = np.array([0, 0, 2])
        ids = np.array([int(graphs[0][0]), 15, int(graphs[2][-1])])
        patched = gen.normal(size=(3, 6))
        table = EmbeddingTable(users, rows)
        models = eval_models(cfg, tiny_split, [0, 1, 2], table, (owner, ids, patched))
        for k in range(3):
            table = rows.copy()
            table[ids[owner == k]] = patched[owner == k]
            ref = loop_eval_model(cfg, users[k], table, graphs[k])
            np.testing.assert_allclose(models[k].scores, ref.scores, rtol=0, atol=1e-12)
            np.testing.assert_allclose(models[k].user_embedding, ref.user_embedding, rtol=0, atol=1e-12)


class TestRankOnce:
    """``results.json`` comes from the ranks the returned model carries, and
    they are the ranks a fresh pass over its personalized models gives."""

    @pytest.mark.parametrize(
        "rounds,every", [(4, 2), (1, 2), (0, 1)], ids=["evaluated", "no-evaluation", "no-rounds"]
    )
    def test_results_equal_a_fresh_ranking_of_the_returned_model(
        self, tiny_split, tmp_path, monkeypatch, rounds, every
    ):
        cfg = tiny_config(**{"train.max_rounds": rounds, "train.eval_every": every})
        returned = []

        def keep(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        real = cli.run_training
        monkeypatch.setattr(cli, "run_training", keep)
        cli.cmd_train(cfg, tiny_split, tmp_path, warm_up(cfg, tiny_split).table)
        (result,) = returned
        assert any(r.val_ndcg is not None for r in result.reports) == (rounds >= every)
        fresh = user_ranks(tiny_split, personalized_models(tiny_split, result, cfg))
        assert result.ranks == fresh
        by_phase = evaluate_cutoffs(
            tiny_split, personalized_models(tiny_split, result, cfg), cfg.eval.cutoffs
        )
        written = json.loads((tmp_path / "results.json").read_text())
        assert written == cli._results_records(cfg, tiny_split, by_phase, result.final_round)
