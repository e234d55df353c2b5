import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.data import leave_one_out_split
from fedrec.gnn import BipartiteGraph, EmbeddingTable, init_table, propagate
from fedrec.pretrain import (
    AugmentationConfig,
    GraphView,
    assemble_pretraining_graph,
    compose_view,
    infonce_gradients,
    noise_injection,
    pretrain,
    view_operator,
)
from fedrec.privacy import PrivacyConfig
from fedrec.rng import substream
from fedrec.synthetic import two_community_dataset
from helpers import max_rel_error, random_table, table_loss_gradient, training_graph


def tiny_graph():
    return BipartiteGraph(3, 3, ((0, 0), (1, 1)))


def view_pair(graph, table, cfg, n_layers, rng):
    """Final embeddings of two views drawn as ``pretrain`` draws each pair."""
    r1, r2 = rng.spawn(2)
    return (
        compose_view(graph, table, cfg, n_layers, r1).final,
        compose_view(graph, table, cfg, n_layers, r2).final,
    )


def dropout_view(graph, keep_prob, rng):
    """The view of ``compose_view`` with node dropout as its only augmentation;
    the masks are the first draws on ``rng``."""
    cfg = AugmentationConfig(node_keep_prob=keep_prob, noise_magnitude=0.0)
    table = EmbeddingTable(np.zeros((graph.n_users, 1)), np.zeros((graph.n_items, 1)))
    return compose_view(graph, table, cfg, 1, rng).view


class TestNodeDropout:
    def test_keep_prob_one_is_identity(self, rng):
        view = dropout_view(tiny_graph(), 1.0, rng)
        assert view.user_mask.all() and view.item_mask.all()
        np.testing.assert_array_equal(view.edges, tiny_graph().edges)

    def test_dropping_everything_propagates_to_zero(self, rng):
        graph = tiny_graph()
        cfg = AugmentationConfig(node_keep_prob=1e-12, noise_magnitude=0.0)
        table = random_table(rng, 3, 3, 4)
        pipeline = compose_view(graph, table, cfg, 2, rng)
        assert not pipeline.view.user_mask.any()
        np.testing.assert_array_equal(pipeline.final.users, np.zeros((3, 4)))
        np.testing.assert_array_equal(pipeline.final.items, np.zeros((3, 4)))

    def test_kept_fraction_near_keep_prob(self):
        graph = BipartiteGraph(10000, 1, ())
        view = dropout_view(graph, 0.5, substream(42, "dropout"))
        fraction = view.user_mask.mean()
        assert 0.48 <= fraction <= 0.52

    def test_dropped_node_edges_are_inert(self, rng):
        graph = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
        view = GraphView(np.ones(2, dtype=bool), np.ones(1, dtype=bool), graph.edges)
        view.user_mask[0] = False
        op = view_operator(view, 1)
        # degree recomputed: the surviving edge gets weight 1, not 1/sqrt(2)
        assert op.degree_i[0] == 1


def edge_view(graph, add_count, rng):
    """The view of ``compose_view`` with edge addition as its only augmentation."""
    cfg = AugmentationConfig(
        node_keep_prob=1.0, edge_add_count=add_count, noise_magnitude=0.0
    )
    table = random_table(rng, graph.n_users, graph.n_items, 2)
    return compose_view(graph, table, cfg, 1, rng).view


class TestEdgePerturbation:
    def test_zero_additions(self, rng):
        view = edge_view(tiny_graph(), 0, rng)
        np.testing.assert_array_equal(view.edges, tiny_graph().edges)

    def test_complete_graph_warns_and_stays_complete(self, rng):
        complete = BipartiteGraph(
            2, 2, tuple((u, i) for u in range(2) for i in range(2))
        )
        with pytest.warns(RuntimeWarning, match="non-edges"):
            view = edge_view(complete, 5, rng)
        np.testing.assert_array_equal(view.edges, complete.edges)

    def test_additions_come_from_the_non_edges(self, rng):
        graph = BipartiteGraph(3, 3, ((0, 0), (1, 1)))
        non_edges = {
            (u, i) for u in range(3) for i in range(3)
        } - set(map(tuple, graph.edges.tolist()))
        assert len(non_edges) == 7
        view = edge_view(graph, 2, rng)
        added = set(map(tuple, view.edges.tolist())) - set(map(tuple, graph.edges.tolist()))
        assert len(view.edges) == 4
        assert len(added) == 2
        assert added <= non_edges


class TestNoiseInjection:
    def test_zero_magnitude_is_identity(self, rng):
        t = random_table(rng, 2, 2, 3)
        out = noise_injection(t, 0.0, rng)
        np.testing.assert_array_equal(out.users, t.users)
        np.testing.assert_array_equal(out.items, t.items)

    def test_each_row_moves_exactly_magnitude(self, rng):
        t = random_table(rng, 4, 5, 6)
        out = noise_injection(t, 0.25, rng)
        np.testing.assert_allclose(
            np.linalg.norm(out.users - t.users, axis=1), 0.25, atol=1e-9
        )
        np.testing.assert_allclose(
            np.linalg.norm(out.items - t.items, axis=1), 0.25, atol=1e-9
        )

    def test_different_seeds_differ(self, rng):
        t = random_table(rng, 2, 2, 3)
        a = noise_injection(t, 0.1, substream(1, "n"))
        b = noise_injection(t, 0.1, substream(2, "n"))
        assert not np.array_equal(a.users, b.users)


class TestMakeViews:
    """The pair of views that ``pretrain`` draws per epoch."""

    def test_disabled_ops_reproduce_plain_propagation(self, rng):
        graph = tiny_graph()
        cfg = AugmentationConfig(node_keep_prob=1.0, noise_magnitude=0.0)
        t = random_table(rng, 3, 3, 4)
        v1, v2 = view_pair(graph, t, cfg, 2, rng)
        from fedrec.gnn import PropagationOperator

        plain = propagate(PropagationOperator(3, 3, graph.edges, 2), t)
        np.testing.assert_array_equal(v1.users, plain.users)
        np.testing.assert_array_equal(v2.users, plain.users)
        np.testing.assert_array_equal(v1.items, plain.items)
        # augmentations at their neutral strengths draw nothing
        draws = substream(0, "neutral")
        compose_view(graph, t, cfg, 2, draws)
        assert draws.bit_generator.state == substream(0, "neutral").bit_generator.state

    def test_noise_only_zero_layers_is_raw_plus_noise(self, rng):
        graph = tiny_graph()
        cfg = AugmentationConfig(node_keep_prob=1.0, noise_magnitude=0.3)
        t = random_table(rng, 3, 3, 4)
        v1, v2 = view_pair(graph, t, cfg, 0, rng)
        for view in (v1, v2):
            np.testing.assert_allclose(
                np.linalg.norm(view.users - t.users, axis=1), 0.3, atol=1e-9
            )
        assert not np.array_equal(v1.users, v2.users)

    def test_fixed_seed_reproduces_views_bit_for_bit(self, rng):
        ds = two_community_dataset(10, 10, seed=2, per_user=4)
        graph = training_graph(leave_one_out_split(ds))
        cfg = AugmentationConfig(edge_add_count=2)
        t = random_table(rng, 10, 10, 4)
        a1, a2 = view_pair(graph, t, cfg, 2, substream(7, "views"))
        b1, b2 = view_pair(graph, t, cfg, 2, substream(7, "views"))
        np.testing.assert_array_equal(a1.users, b1.users)
        np.testing.assert_array_equal(a2.users, b2.users)
        np.testing.assert_array_equal(a1.items, b1.items)
        np.testing.assert_array_equal(a2.items, b2.items)


def naive_infonce(a, b, tau):
    def cos(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0 or ny == 0:
            return 0.0
        return float(x @ y) / (nx * ny)

    total = 0.0
    for u in range(len(a)):
        denom = sum(math.exp(cos(a[u], b[v]) / tau) for v in range(len(b)))
        total += -math.log(math.exp(cos(a[u], b[u]) / tau) / denom)
    return total


class TestInfoNCELoss:
    def test_single_entity_identical_views(self):
        row = np.array([[1.0, 2.0]])
        view = EmbeddingTable(row, row.copy())
        assert infonce_gradients(view, view, 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_orthogonal_users_closed_form(self):
        users = np.array([[1.0, 0.0], [0.0, 1.0]])
        items = np.array([[1.0, 1.0]])
        v = EmbeddingTable(users, items)
        loss = infonce_gradients(v, EmbeddingTable(users.copy(), items.copy()), 1.0)[0]
        per_user = -math.log(math.e / (math.e + 1.0))
        assert per_user == pytest.approx(0.3133, abs=1e-4)
        # the single identical item contributes exactly zero
        assert loss == pytest.approx(2 * per_user, abs=1e-12)

    def test_matches_naive_double_loop(self, rng):
        a = random_table(rng, 8, 8, 4)
        b = random_table(rng, 8, 8, 4)
        expected = naive_infonce(a.users, b.users, 0.3) + naive_infonce(
            a.items, b.items, 0.3
        )
        assert infonce_gradients(a, b, 0.3)[0] == pytest.approx(expected, abs=1e-10)

    def test_zero_norm_row_warns_and_counts_as_zero_similarity(self, rng):
        users = np.array([[0.0, 0.0], [1.0, 0.0]])
        items = np.array([[1.0, 1.0]])
        v1 = EmbeddingTable(users, items)
        v2 = EmbeddingTable(users.copy(), items.copy())
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            loss = infonce_gradients(v1, v2, 1.0)[0]
        expected = naive_infonce(users, users, 1.0)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_permuting_entities_preserves_the_total(self, rng):
        a = random_table(rng, 6, 5, 3)
        b = random_table(rng, 6, 5, 3)
        perm_u = np.random.default_rng(0).permutation(6)
        perm_i = np.random.default_rng(1).permutation(5)
        pa = EmbeddingTable(a.users[perm_u], a.items[perm_i])
        pb = EmbeddingTable(b.users[perm_u], b.items[perm_i])
        assert infonce_gradients(pa, pb, 0.4)[0] == pytest.approx(
            infonce_gradients(a, b, 0.4)[0], rel=1e-12
        )

    def test_uniform_similarities_give_log_n_for_any_tau(self):
        row = np.array([2.0, 0.0])
        users = np.tile(row, (5, 1))
        items = np.tile(row, (3, 1))
        v = EmbeddingTable(users, items)
        for tau in (0.1, 1.0, 7.0):
            # each of the 5 users contributes ln 5 and each of the 3 items ln 3
            assert infonce_gradients(v, v, tau)[0] == pytest.approx(
                5 * math.log(5) + 3 * math.log(3), abs=1e-12
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(0.05, 5.0))
def test_every_contrastive_term_is_nonnegative(seed, n, tau):
    rng = np.random.default_rng(seed)
    a = random_table(rng, n, n, 3)
    b = random_table(rng, n, n, 3)
    # the summed loss of n users and n items; it is >= 0 because every term is
    assert infonce_gradients(a, b, tau)[0] >= -1e-12


class TestInfoNCEGradients:
    def test_no_radial_component(self, rng):
        a = random_table(rng, 5, 4, 3)
        _, ga, gb = infonce_gradients(a, a, 0.2)
        radial_a = np.einsum("nd,nd->n", ga.users, a.users)
        radial_b = np.einsum("nd,nd->n", gb.users, a.users)
        np.testing.assert_allclose(radial_a, 0.0, atol=1e-12)
        np.testing.assert_allclose(radial_b, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        a = random_table(rng, 6, 6, 4)
        b = random_table(rng, 6, 6, 4)
        tau = 0.35
        _, ga, gb = infonce_gradients(a, b, tau)
        fd_a = table_loss_gradient(lambda t: infonce_gradients(t, b, tau)[0], a)
        fd_b = table_loss_gradient(lambda t: infonce_gradients(a, t, tau)[0], b)
        assert max_rel_error(ga.users, fd_a.users) < 1e-5
        assert max_rel_error(ga.items, fd_a.items) < 1e-5
        assert max_rel_error(gb.users, fd_b.users) < 1e-5
        assert max_rel_error(gb.items, fd_b.items) < 1e-5

    def test_one_step_descends(self, rng):
        a = random_table(rng, 5, 5, 3)
        b = random_table(rng, 5, 5, 3)
        loss, ga, gb = infonce_gradients(a, b, 0.5)
        eta = 1e-3
        a2 = EmbeddingTable(a.users - eta * ga.users, a.items - eta * ga.items)
        b2 = EmbeddingTable(b.users - eta * gb.users, b.items - eta * gb.items)
        assert infonce_gradients(a2, b2, 0.5)[0] < loss


class TestPretrain:
    def test_zero_epochs_leave_the_table_alone(self, rng):
        graph = tiny_graph()
        t = random_table(rng, 3, 3, 4)
        res = pretrain(graph, t, 0, AugmentationConfig(), 0.05, 2, rng)
        np.testing.assert_array_equal(res.table.users, t.users)
        np.testing.assert_array_equal(res.table.items, t.items)
        assert res.losses == ()

    def test_loss_drops_over_five_epochs_on_two_block_graph(self):
        ds = two_community_dataset(20, 12, seed=3, per_user=5)
        graph = training_graph(leave_one_out_split(ds))
        cfg = AugmentationConfig(edge_add_count=3)
        deltas = []
        for seed in range(5):
            table = init_table(20, 12, 8, substream(seed, "init"))
            res = pretrain(graph, table, 5, cfg, 0.05, 2, substream(seed, "pre"))
            assert len(res.losses) == 6
            deltas.append(res.losses[-1] - res.losses[0])
        assert np.median(deltas) < 0

    def test_fixed_seed_is_deterministic(self, rng):
        graph = tiny_graph()
        t = random_table(rng, 3, 3, 4)
        a = pretrain(graph, t, 3, AugmentationConfig(), 0.05, 1, substream(5, "p"))
        b = pretrain(graph, t, 3, AugmentationConfig(), 0.05, 1, substream(5, "p"))
        np.testing.assert_array_equal(a.table.users, b.table.users)
        assert a.losses == b.losses

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_losses_of_k_epochs_are_a_prefix_of_k_plus_one(self, epochs):
        # the trailing loss of a k-epoch run is the loss of epoch k+1's views
        ds = two_community_dataset(12, 10, seed=4, per_user=4)
        graph = training_graph(leave_one_out_split(ds))
        cfg = AugmentationConfig(edge_add_count=2)
        table = init_table(12, 10, 6, substream(1, "init"))
        short = pretrain(graph, table, epochs, cfg, 0.05, 2, substream(1, "pre"))
        longer = pretrain(graph, table, epochs + 1, cfg, 0.05, 2, substream(1, "pre"))
        assert len(short.losses) == epochs + 1
        assert short.losses == longer.losses[: epochs + 1]


class TestAssemblePretrainingGraph:
    def test_distorted_mode_adds_pseudo_and_drops_masked(self, small_split):
        privacy = PrivacyConfig(mask_ratio=0.4, pseudo_items_p=3)
        graph = assemble_pretraining_graph(small_split, privacy, seed=3)
        true_edges = set(map(tuple, training_graph(small_split).edges.tolist()))
        edges = set(map(tuple, graph.edges.tolist()))
        assert edges != true_edges
        added = edges - true_edges
        assert added  # pseudo edges present
        for u, i in added:
            assert i not in small_split.train_items(u)
        np.testing.assert_array_equal(
            graph.edges, assemble_pretraining_graph(small_split, privacy, seed=3).edges
        )  # keyed per-user streams, reproducible
