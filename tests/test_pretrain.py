import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.config import PretrainSection, PrivacySection
from fedrec.data import leave_one_out_split
from fedrec.gnn import BipartiteGraph, EmbeddingTable, init_table, propagate
from fedrec.pretrain import (
    INFONCE_CELLS,
    _entity_infonce,
    _sample_absent_edges,
    assemble_pretraining_graph,
    compose_view,
    infonce_gradients,
    infonce_loss,
    noise_injection,
    pretrain,
)
from fedrec.rng import substream
from fedrec.synthetic import two_community_dataset
from helpers import (
    loop_absent_edges,
    max_rel_error,
    random_bipartite,
    random_table,
    scipy_entity_infonce,
    table_loss_gradient,
    training_graph,
)


def tiny_graph():
    return BipartiteGraph(3, 3, ((0, 0), (1, 1)))


def augmentation(**strengths):
    """A pre-training section with ``edge_add_count`` resolved, to 0 unless
    given."""
    return PretrainSection(**{"edge_add_count": 0, **strengths})


def view_pair(graph, table, cfg, n_layers, rng):
    """Final embeddings of two views drawn as ``pretrain`` draws each pair."""
    r1, r2 = rng.spawn(2)
    return (
        compose_view(graph, table, cfg, n_layers, r1).final,
        compose_view(graph, table, cfg, n_layers, r2).final,
    )


def dropout_view(graph, keep_prob, rng):
    """The pipeline of ``compose_view`` with node dropout as its only
    augmentation; the masks are the first draws on ``rng``."""
    cfg = augmentation(node_keep_prob=keep_prob, noise_magnitude=0.0)
    table = EmbeddingTable(np.zeros((graph.n_users, 1)), np.zeros((graph.n_items, 1)))
    return compose_view(graph, table, cfg, 1, rng)


class TestNodeDropout:
    def test_keep_prob_one_is_identity(self, rng):
        view = dropout_view(tiny_graph(), 1.0, rng)
        assert view.user_mask.all() and view.item_mask.all()
        np.testing.assert_array_equal(view.operator.edges, tiny_graph().edges)

    def test_dropping_everything_propagates_to_zero(self, rng):
        graph = tiny_graph()
        cfg = augmentation(node_keep_prob=1e-12, noise_magnitude=0.0)
        table = random_table(rng, 3, 3, 4)
        pipeline = compose_view(graph, table, cfg, 2, rng)
        assert not pipeline.user_mask.any()
        np.testing.assert_array_equal(pipeline.final.users, np.zeros((3, 4)))
        np.testing.assert_array_equal(pipeline.final.items, np.zeros((3, 4)))

    def test_kept_fraction_near_keep_prob(self):
        graph = BipartiteGraph(10000, 1, ())
        view = dropout_view(graph, 0.5, substream(42, "dropout"))
        fraction = view.user_mask.mean()
        assert 0.48 <= fraction <= 0.52

    def test_dropped_node_edges_are_inert(self):
        graph = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
        # the documented draw order: users' masks, then items'
        draws = substream(0, "dropout")
        user_mask, item_mask = draws.random(2) < 0.5, draws.random(1) < 0.5
        assert user_mask.tolist() == [False, True] and item_mask.tolist() == [True]
        pipeline = dropout_view(graph, 0.5, substream(0, "dropout"))
        np.testing.assert_array_equal(pipeline.user_mask, user_mask)
        np.testing.assert_array_equal(pipeline.item_mask, item_mask)
        np.testing.assert_array_equal(pipeline.operator.edges, [[1, 0]])
        # degree recomputed: the surviving edge gets weight 1, not 1/sqrt(2)
        assert pipeline.operator.degree_i[0] == 1


def edge_view(graph, add_count, rng):
    """The edges of ``compose_view``'s operator with edge addition as its only
    augmentation: the graph's, then the added ones."""
    cfg = augmentation(
        node_keep_prob=1.0, edge_add_count=add_count, noise_magnitude=0.0
    )
    table = random_table(rng, graph.n_users, graph.n_items, 2)
    return compose_view(graph, table, cfg, 1, rng).operator.edges


class TestComposeViewChecks:
    @pytest.mark.parametrize(
        "cfg",
        [
            PretrainSection(),  # edge_add_count -1 is unresolved
            augmentation(edge_add_count=-2),
            augmentation(node_keep_prob=0.0),
            augmentation(node_keep_prob=1.5),
            augmentation(noise_magnitude=-0.1),
        ],
    )
    def test_rejects_bad_settings(self, cfg, rng):
        table = random_table(rng, 3, 3, 2)
        with pytest.raises(ValueError):
            compose_view(tiny_graph(), table, cfg, 1, rng)


class TestEdgePerturbation:
    def test_zero_additions(self, rng):
        np.testing.assert_array_equal(edge_view(tiny_graph(), 0, rng), tiny_graph().edges)

    def test_asking_for_every_non_edge_adds_them_all_without_a_draw(self):
        draws = substream(0, "edges")
        edges = edge_view(tiny_graph(), 7, draws)
        complete = [[u, i] for u in range(3) for i in range(3)]
        assert sorted(edges.tolist()) == complete
        # the table's draws only: the added edges drew nothing
        after_table = substream(0, "edges")
        random_table(after_table, 3, 3, 2)
        assert draws.bit_generator.state == after_table.bit_generator.state

    def test_asking_for_one_more_is_a_value_error(self, rng):
        with pytest.raises(ValueError, match="only 7 non-edges"):
            edge_view(tiny_graph(), 8, rng)

    def test_additions_come_from_the_non_edges(self, rng):
        graph = BipartiteGraph(3, 3, ((0, 0), (1, 1)))
        non_edges = {
            (u, i) for u in range(3) for i in range(3)
        } - set(map(tuple, graph.edges.tolist()))
        assert len(non_edges) == 7
        edges = edge_view(graph, 2, rng)
        added = set(map(tuple, edges.tolist())) - set(map(tuple, graph.edges.tolist()))
        assert len(edges) == 4
        assert len(added) == 2
        assert added <= non_edges


def assert_draws_like_the_loop(graph, count, seed):
    """Rows and generator state after equal those of the one-pair loop."""
    blocks, loop = substream(seed, "absent"), substream(seed, "absent")
    np.testing.assert_array_equal(
        _sample_absent_edges(graph, count, blocks), loop_absent_edges(graph, count, loop)
    )
    assert blocks.bit_generator.state == loop.bit_generator.state


class TestAbsentEdgeBlocks:
    def test_random_graphs(self):
        shapes = np.random.default_rng(11)
        for seed in range(200):
            n_users, n_items = shapes.integers(1, 13, size=2)
            graph = random_bipartite(shapes, n_users, n_items, shapes.random())
            available = n_users * n_items - len(graph.edges)
            assert_draws_like_the_loop(graph, int(shapes.integers(available + 1)), seed)

    @pytest.mark.parametrize(
        "n_users, n_items, count", [(1, 9, 4), (9, 1, 4), (1, 1, 1), (5, 4, 0)]
    )
    def test_one_user_one_item_and_no_edges_asked(self, n_users, n_items, count):
        assert_draws_like_the_loop(BipartiteGraph(n_users, n_items, ()), count, 3)

    def test_every_non_edge_draws_nothing(self, rng):
        graph = random_bipartite(rng, 6, 5, 0.4)
        assert_draws_like_the_loop(graph, 30 - len(graph.edges), 4)
        draws = substream(4, "absent")
        _sample_absent_edges(graph, 30 - len(graph.edges), draws)
        assert draws.bit_generator.state == substream(4, "absent").bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_graphs_with_many_redraws(self, seed):
        graph = random_bipartite(np.random.default_rng(seed), 30, 30, 0.95)
        assert_draws_like_the_loop(graph, 900 - len(graph.edges) - 1, seed)

    @pytest.mark.parametrize("n_items", [2**16 + 1, 2**32 - 1, 2**32 + 1, 2**33])
    def test_wide_item_bounds(self, n_items):
        graph = BipartiteGraph(3, n_items, ((0, 0), (2, n_items - 1)))
        assert_draws_like_the_loop(graph, 200, 5)

    def test_more_than_every_non_edge_is_a_value_error(self, rng):
        graph = random_bipartite(rng, 4, 4, 0.5)
        with pytest.raises(ValueError, match="non-edges exist"):
            _sample_absent_edges(graph, 17 - len(graph.edges), rng)


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
        cfg = augmentation(node_keep_prob=1.0, noise_magnitude=0.0)
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
        cfg = augmentation(node_keep_prob=1.0, noise_magnitude=0.3)
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
        cfg = augmentation(edge_add_count=2)
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


def assert_matches_the_scipy_kernel(a, b, tau):
    """Terms and both gradients of the kernel against the scipy reference,
    at rtol 1e-12 (another scipy release may round differently)."""
    got = _entity_infonce(a, b, tau, True)
    for mine, ref in zip(got, scipy_entity_infonce(a, b, tau)):
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(_entity_infonce(a, b, tau, False)[0], got[0])


class TestInfoNCEKernel:
    @pytest.mark.parametrize("tau", [0.05, 5.0])
    @pytest.mark.parametrize("dim", [1, 64])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_matches_the_scipy_reference(self, n, dim, tau):
        rng = np.random.default_rng(n * 1000 + dim)
        # d = 1 normalises every row to +-1, so most rows tie at their maximum
        assert_matches_the_scipy_kernel(
            rng.normal(size=(n, dim)), rng.normal(size=(n, dim)), tau
        )

    @pytest.mark.parametrize("tau", [0.05, 5.0])
    def test_tied_row_maxima_from_duplicate_rows(self, tau):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(7, 4))
        b[[2, 5]] = b[0]
        a = b[[0, 0, 1, 3, 2, 4, 6]] + 0.0
        assert_matches_the_scipy_kernel(a, b, tau)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("tau", [0.05, 5.0])
    def test_a_zero_norm_row_on_either_side(self, side, tau):
        rng = np.random.default_rng(4)
        pair = [rng.normal(size=(7, 3)), rng.normal(size=(7, 3))]
        pair[side][4] = 0.0
        assert_matches_the_scipy_kernel(*pair, tau)

    def test_non_finite_input_gives_a_non_finite_loss_without_a_warning(self):
        users = np.array([[np.inf, 1.0], [1.0, 0.0]])
        items = np.array([[1.0, np.nan], [0.0, 1.0]])
        v = EmbeddingTable(users, items)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(infonce_gradients(v, v, 0.2)[0])

    def test_loss_alone_equals_the_loss_of_the_gradient_call(self, rng):
        a = random_table(rng, 9, 6, 5)
        b = random_table(rng, 9, 6, 5)
        assert infonce_loss(a, b, 0.3) == infonce_gradients(a, b, 0.3)[0]

    def test_one_call_holds_less_than_one_user_block(self):
        rng = np.random.default_rng(5)
        a = random_table(rng, 1000, 500, 8)
        b = random_table(rng, 1000, 500, 8)
        tracemalloc.start()
        try:
            infonce_gradients(a, b, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two buffers of INFONCE_CELLS float64 (the similarities and the
        # shared exponential), the peak mask and the rows' own arrays: 5 MB
        assert peak < 1000**2 * 8


def multi_block_pair(n, dim, seed):
    """Two ``(n, dim)`` blocks that the kernel splits into several row
    blocks, the last one shorter: row 3 (first block) and row ``n - 3``
    (last block) of ``a`` equal ``b[3]``, and ``b[step + 5]`` equals it too,
    so both rows tie at their maximum; ``a[n - 2]`` and ``b[step + 7]`` are
    zero-norm rows."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
    step = INFONCE_CELLS // n
    assert step + 3 < n and n % step  # row n - 3 is past the first block
    b[step + 5] = b[3]
    a[[3, n - 3]] = b[3]
    a[n - 2] = 0.0
    b[step + 7] = 0.0
    return a, b


class TestInfoNCERowBlocks:
    @pytest.mark.parametrize("tau", [0.05, 5.0])
    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("n", [700, 1100])
    def test_matches_the_scipy_reference(self, n, dim, tau):
        a, b = multi_block_pair(n, dim, n + dim)
        got = _entity_infonce(a, b, tau, True)
        ref = scipy_entity_infonce(a, b, tau)
        # the terms and a's gradient keep their per-row arithmetic; only a
        # block's similarity product may round unlike the N×N product. b's
        # gradient sums its column terms block by block, a different order
        # from one N×N column sum, so it gets ten times the slack. Both are
        # shares of the largest magnitude: entries near 0 carry the
        # absolute rounding of their larger neighbours.
        for mine, want, share in zip(got, ref, (1e-12, 1e-12, 1e-11)):
            np.testing.assert_allclose(mine, want, rtol=0, atol=share * np.abs(want).max())
        assert not got[1][n - 2].any() and not got[2][INFONCE_CELLS // n + 7].any()
        np.testing.assert_array_equal(_entity_infonce(a, b, tau, False)[0], got[0])

    def test_loss_alone_equals_the_loss_of_the_gradient_call(self):
        rng = np.random.default_rng(6)
        a = random_table(rng, 700, 1100, 8)
        b = random_table(rng, 700, 1100, 8)
        assert infonce_loss(a, b, 0.3) == infonce_gradients(a, b, 0.3)[0]


class TestPretrain:
    def test_zero_epochs_leave_the_table_alone(self, rng):
        graph = tiny_graph()
        t = random_table(rng, 3, 3, 4)
        res = pretrain(graph, t, 0, augmentation(eta=0.05), 2, rng)
        np.testing.assert_array_equal(res.table.users, t.users)
        np.testing.assert_array_equal(res.table.items, t.items)
        assert res.losses == ()

    def test_loss_drops_over_five_epochs_on_two_block_graph(self):
        ds = two_community_dataset(20, 12, seed=3, per_user=5)
        graph = training_graph(leave_one_out_split(ds))
        cfg = augmentation(edge_add_count=3, eta=0.05)
        deltas = []
        for seed in range(5):
            table = init_table(20, 12, 8, substream(seed, "init"))
            res = pretrain(graph, table, 5, cfg, 2, substream(seed, "pre"))
            assert len(res.losses) == 6
            deltas.append(res.losses[-1] - res.losses[0])
        assert np.median(deltas) < 0

    def test_fixed_seed_is_deterministic(self, rng):
        graph = tiny_graph()
        t = random_table(rng, 3, 3, 4)
        a = pretrain(graph, t, 3, augmentation(eta=0.05), 1, substream(5, "p"))
        b = pretrain(graph, t, 3, augmentation(eta=0.05), 1, substream(5, "p"))
        np.testing.assert_array_equal(a.table.users, b.table.users)
        assert a.losses == b.losses

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_losses_of_k_epochs_are_a_prefix_of_k_plus_one(self, epochs):
        # the trailing loss of a k-epoch run is the loss of epoch k+1's views
        ds = two_community_dataset(12, 10, seed=4, per_user=4)
        graph = training_graph(leave_one_out_split(ds))
        cfg = augmentation(edge_add_count=2, eta=0.05)
        table = init_table(12, 10, 6, substream(1, "init"))
        short = pretrain(graph, table, epochs, cfg, 2, substream(1, "pre"))
        longer = pretrain(graph, table, epochs + 1, cfg, 2, substream(1, "pre"))
        assert len(short.losses) == epochs + 1
        assert short.losses == longer.losses[: epochs + 1]

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("eta", [0.0, -0.05])  # 0.0 is the unresolved default
    def test_a_step_that_is_not_resolved_to_positive_is_rejected(self, rng, epochs, eta):
        t = random_table(rng, 3, 3, 4)
        with pytest.raises(ValueError, match="eta must be resolved"):
            pretrain(tiny_graph(), t, epochs, augmentation(eta=eta), 2, rng)


class TestAssemblePretrainingGraph:
    def test_distorted_mode_adds_pseudo_and_drops_masked(self, small_split):
        privacy = PrivacySection(mask_ratio=0.4, pseudo_items_p=3)
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
