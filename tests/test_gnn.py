import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.errors import DataError
from fedrec.gnn import (
    BipartiteGraph,
    EmbeddingTable,
    GradientUpdate,
    PropagationOperator,
    bpr_gradients,
    bpr_loss,
    load_checkpoint,
    propagate,
    save_checkpoint,
    scatter_rows,
    star_readout,
)
from helpers import (
    add_at_bpr_gradients,
    add_at_rows,
    dense_readout,
    max_rel_error,
    random_bipartite,
    random_table,
    table_loss_gradient,
)


def table(users, items):
    return EmbeddingTable(np.asarray(users, float), np.asarray(items, float))


class TestPropagate:
    def test_single_edge_swaps_rows(self):
        # layer 1 swaps the two rows; the readout averages it with layer 0
        op = PropagationOperator(1, 1, ((0, 0),), 1)
        out = propagate(op, table([[1.0, 0.0]], [[0.0, 1.0]]))
        np.testing.assert_array_equal(out.users, [[0.5, 0.5]])
        np.testing.assert_array_equal(out.items, [[0.5, 0.5]])

    def test_zero_layers_return_the_input(self, rng):
        op = PropagationOperator(3, 4, ((0, 1), (2, 3)), 0)
        t = random_table(rng, 3, 4, 5)
        out = propagate(op, t)
        np.testing.assert_array_equal(out.users, t.users)
        np.testing.assert_array_equal(out.items, t.items)
        # a copy, not a view of the input
        assert not np.shares_memory(out.users, t.users)
        assert not np.shares_memory(out.items, t.items)

    def test_two_step_path_matches_dense_power(self, rng):
        # u0 - i0 - u1 path, two layers
        edges = ((0, 0), (1, 0))
        op = PropagationOperator(2, 1, edges, 2)
        t = random_table(rng, 2, 1, 3)
        out = propagate(op, t)
        oracle = dense_readout(2, 1, edges, 2, t)
        np.testing.assert_allclose(out.users, oracle.users, atol=1e-12)
        np.testing.assert_allclose(out.items, oracle.items, atol=1e-12)

    def test_isolated_nodes_propagate_to_zero(self, rng):
        # every layer after the input is zero, so the readout is x / (L + 1)
        t = random_table(rng, 2, 2, 3)
        for n_layers in (1, 3):
            out = propagate(PropagationOperator(2, 2, ((0, 0),), n_layers), t)
            np.testing.assert_array_equal(out.users[1], t.users[1] / (n_layers + 1))
            np.testing.assert_array_equal(out.items[1], t.items[1] / (n_layers + 1))

    def test_linearity(self, rng):
        graph = random_bipartite(rng, 4, 5)
        op = PropagationOperator(4, 5, graph.edges, 3)
        e = random_table(rng, 4, 5, 3)
        f = random_table(rng, 4, 5, 3)
        a, b = 0.7, -2.5
        combo = EmbeddingTable(a * e.users + b * f.users, a * e.items + b * f.items)
        lhs = propagate(op, combo)
        ye = propagate(op, e)
        yf = propagate(op, f)
        np.testing.assert_allclose(lhs.users, a * ye.users + b * yf.users, atol=1e-12)
        np.testing.assert_allclose(lhs.items, a * ye.items + b * yf.items, atol=1e-12)

    def test_readout_map_is_self_adjoint(self, rng):
        graph = random_bipartite(rng, 5, 6)
        x = random_table(rng, 5, 6, 4)
        y = random_table(rng, 5, 6, 4)
        for n_layers in (1, 3):
            op = PropagationOperator(5, 6, graph.edges, n_layers)
            rx, ry = propagate(op, x), propagate(op, y)
            lhs = np.vdot(rx.users, y.users) + np.vdot(rx.items, y.items)
            rhs = np.vdot(x.users, ry.users) + np.vdot(x.items, ry.items)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestReadout:
    def test_random_graph_matches_dense_oracle(self, rng):
        graph = random_bipartite(rng, 2, 3)  # 5 nodes
        op = PropagationOperator(2, 3, graph.edges, 3)
        t = random_table(rng, 2, 3, 4)
        out = propagate(op, t)
        oracle = dense_readout(2, 3, graph.edges, 3, t)
        np.testing.assert_allclose(out.users, oracle.users, atol=1e-12)
        np.testing.assert_allclose(out.items, oracle.items, atol=1e-12)


class TestStarReadout:
    """The closed-form star kernel against ``propagate`` on the block's own
    operator: stars of 0, 1 and several linked rows, isolated rows between."""

    # star of each item row: 0 has three, 2 one, 1 none; -1 rows are isolated
    STAR = np.array([0, -1, 0, 2, -1, 0, -1])

    @pytest.mark.parametrize("n_layers", range(5))
    def test_equals_propagate_on_the_block_operator(self, n_layers):
        gen = np.random.default_rng(n_layers)
        users, items = gen.normal(size=(3, 4)), gen.normal(size=(7, 4))
        rows = np.flatnonzero(self.STAR >= 0)
        op = PropagationOperator(3, 7, np.column_stack((self.STAR[rows], rows)), n_layers)
        expected = propagate(op, EmbeddingTable(users, items))
        out = star_readout(users, items, self.STAR, n_layers)
        np.testing.assert_allclose(out.users, expected.users, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.items, expected.items, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_is_self_adjoint(self, n_layers):
        gen = np.random.default_rng(10 + n_layers)
        x = EmbeddingTable(gen.normal(size=(3, 4)), gen.normal(size=(7, 4)))
        y = EmbeddingTable(gen.normal(size=(3, 4)), gen.normal(size=(7, 4)))
        rx, ry = (star_readout(t.users, t.items, self.STAR, n_layers) for t in (x, y))
        left = np.sum(rx.users * y.users) + np.sum(rx.items * y.items)
        right = np.sum(x.users * ry.users) + np.sum(x.items * ry.items)
        assert left == pytest.approx(right, rel=1e-12)


class TestOperatorEdges:
    # 4x5 takes the dense adjacency, 150x120 the sparse one
    @pytest.mark.parametrize("n_users,n_items", [(4, 5), (150, 120)])
    def test_array_and_pairs_build_the_same_operator(self, rng, n_users, n_items):
        graph = random_bipartite(rng, n_users, n_items, edge_prob=0.1)
        pairs = tuple(map(tuple, graph.edges.tolist()))
        from_pairs = PropagationOperator(n_users, n_items, pairs, 2)
        from_array = PropagationOperator(n_users, n_items, graph.edges, 2)
        assert from_array.edges.shape == (len(pairs), 2)
        assert from_array.edges.dtype == np.int64
        np.testing.assert_array_equal(from_array.edges, from_pairs.edges)
        np.testing.assert_array_equal(from_array.degree_u, from_pairs.degree_u)
        np.testing.assert_array_equal(from_array.degree_i, from_pairs.degree_i)
        t = random_table(rng, n_users, n_items, 3)
        a, b = propagate(from_array, t), propagate(from_pairs, t)
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_array_equal(a.items, b.items)

    @pytest.mark.parametrize(
        "edges",
        [((0, 1), (1, 0), (0, 1)), np.array([[0, 1], [1, 0], [0, 1]])],
        ids=["pairs", "array"],
    )
    def test_duplicate_edge_rejected(self, edges):
        with pytest.raises(ValueError, match="duplicate"):
            PropagationOperator(2, 2, edges, 1)

    @pytest.mark.parametrize("edges", [[[0, 2]], [[2, 0]], [[-1, 0]], [[0, -1]]])
    def test_endpoint_out_of_range_rejected(self, edges):
        with pytest.raises(ValueError, match="out of range"):
            PropagationOperator(2, 2, np.array(edges), 1)

    def test_graph_edges_become_one_index_array(self):
        graph = BipartiteGraph(2, 3, ((0, 2), (1, 0)))
        np.testing.assert_array_equal(graph.edges, [[0, 2], [1, 0]])
        assert graph.edges.dtype == np.int64
        assert BipartiteGraph(2, 3, ()).edges.shape == (0, 2)


# An empty batch, and six ids that a blind reshape would read as two triples.
BAD_BATCHES = [
    (np.zeros((0, 3), dtype=np.int64), "empty"),
    (np.zeros((2, 6), dtype=np.int64), r"\(B, 3\)"),
    ([0] * 6, r"\(B, 3\)"),
]


class TestBprLoss:
    def test_equal_scores_give_ln2(self):
        t = table([[1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]])
        loss = bpr_loss(t, [(0, 0, 1)], 0.0, t)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_wide_margin_vanishes(self):
        t = table([[1.0]], [[20.0], [0.0]])
        assert bpr_loss(t, [(0, 0, 1)], 0.0, t) <= 1e-8

    def test_zero_embeddings_ignore_regularizer(self):
        t = EmbeddingTable(np.zeros((1, 3)), np.zeros((2, 3)))
        loss = bpr_loss(t, [(0, 0, 1)], 0.1, t)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularizer_counts_touched_rows_once(self, rng):
        raw = random_table(rng, 2, 3, 2)
        triples = [(0, 0, 1), (0, 0, 2)]
        base = bpr_loss(raw, triples, 0.0, raw)
        full = bpr_loss(raw, triples, 0.5, raw)
        touched = (
            np.sum(raw.users[[0]] ** 2) + np.sum(raw.items[[0, 1, 2]] ** 2)
        )
        assert full - base == pytest.approx(0.5 * touched, rel=1e-12)


    def test_array_and_tuple_triples_give_the_same_loss(self, rng):
        raw = random_table(rng, 2, 4, 3)
        triples = [(0, 0, 1), (1, 2, 3), (0, 2, 1)]
        as_array = np.array(triples, dtype=np.int64)
        assert bpr_loss(raw, as_array, 0.1, raw) == bpr_loss(raw, triples, 0.1, raw)

    @pytest.mark.parametrize("bad, match", BAD_BATCHES)
    def test_empty_or_misshaped_batch_rejected(self, bad, match):
        t = table([[1.0]], [[1.0], [0.0]])
        with pytest.raises(ValueError, match=match):
            bpr_loss(t, bad, 0.0, t)


class TestBprGradients:
    def test_plain_bpr_closed_form_at_zero_layers(self, rng):
        raw = random_table(rng, 2, 3, 4)
        op = PropagationOperator(2, 3, ((0, 0), (0, 1)), 0)
        triple = (0, 0, 2)
        grads = bpr_gradients(op, raw, [triple], 0.0)[2]
        margin = float(raw.users[0] @ (raw.items[0] - raw.items[2]))
        coef = 1.0 / (1.0 + math.exp(-margin)) - 1.0
        np.testing.assert_allclose(
            grads.users[0], coef * (raw.items[0] - raw.items[2]), atol=1e-12
        )
        np.testing.assert_allclose(grads.items[0], coef * raw.users[0], atol=1e-12)
        np.testing.assert_allclose(grads.items[2], -coef * raw.users[0], atol=1e-12)
        np.testing.assert_array_equal(grads.users[1], 0.0)
        np.testing.assert_array_equal(grads.items[1], 0.0)

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_loss_and_readout_are_the_forward_pass(self, rng, n_layers):
        graph = random_bipartite(rng, 6, 7, edge_prob=0.4)
        op = PropagationOperator(6, 7, graph.edges, n_layers)
        raw = random_table(rng, 6, 7, 3)
        triples = [(0, 1, 2), (3, 4, 5), (5, 6, 0)]
        loss, final, _ = bpr_gradients(op, raw, triples, 0.05)
        expected = propagate(op, raw)
        assert final.users.tobytes() == expected.users.tobytes()
        assert final.items.tobytes() == expected.items.tobytes()
        assert loss == bpr_loss(expected, triples, 0.05, raw)

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_matches_finite_differences(self, n_layers):
        rng = np.random.default_rng(50 + n_layers)
        graph = random_bipartite(rng, 8, 8, edge_prob=0.4)
        op = PropagationOperator(8, 8, graph.edges, n_layers)
        raw = random_table(rng, 8, 8, 3)
        triples = [
            (int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(8)))
            for _ in range(5)
        ]
        gamma = 0.05
        analytic = bpr_gradients(op, raw, triples, gamma)[2]
        fd = table_loss_gradient(
            lambda t: bpr_loss(propagate(op, t), triples, gamma, t), raw
        )
        assert max_rel_error(analytic.users, fd.users) < 1e-5
        assert max_rel_error(analytic.items, fd.items) < 1e-5

    def test_one_step_descends(self, rng):
        graph = random_bipartite(rng, 5, 6, edge_prob=0.5)
        op = PropagationOperator(5, 6, graph.edges, 2)
        raw = random_table(rng, 5, 6, 4)
        triples = [(0, 1, 2), (3, 4, 5), (2, 0, 3)]
        dense = bpr_gradients(op, raw, triples, 0.01)[2]
        eta = 1e-2
        stepped = EmbeddingTable(
            raw.users - eta * dense.users, raw.items - eta * dense.items
        )
        before = bpr_loss(propagate(op, raw), triples, 0.01, raw)
        after = bpr_loss(propagate(op, stepped), triples, 0.01, stepped)
        assert after < before

    @pytest.mark.parametrize("bad, match", BAD_BATCHES)
    def test_empty_or_misshaped_batch_rejected(self, rng, bad, match):
        raw = random_table(rng, 1, 2, 2)
        op = PropagationOperator(1, 2, ((0, 0),), 1)
        with pytest.raises(ValueError, match=match):
            bpr_gradients(op, raw, bad, 0.0)


class TestScatterRows:
    """``scatter_rows`` against ``np.add.at`` into zeros, bit for bit."""

    @pytest.mark.parametrize(
        "index, n, d",
        [
            ([3, 0, 3, 1, 0, 3, 3], 4, 5),  # repeated, unsorted ids
            ([], 3, 4),  # no rows: zeros
            ([2, 2, 0, 2], 3, 1),  # d = 1
            ([1, 4, 1], 9, 3),  # n beyond every id
            ([], 0, 2),
        ],
    )
    def test_equals_add_at(self, rng, index, n, d):
        rows = rng.normal(size=(len(index), d)) * 10.0 ** rng.integers(-8, 8, (len(index), 1))
        ours = scatter_rows(np.array(index, dtype=np.int64), rows, n)
        ref = add_at_rows(index, rows, n)
        assert ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()

    def test_negative_zero_rows_sum_to_positive_zero(self):
        rows = np.array([[-0.0, -0.0], [-0.0, 1.0], [-0.0, -0.0]])
        ours = scatter_rows(np.array([0, 1, 1]), rows, 2)
        assert ours.tobytes() == add_at_rows([0, 1, 1], rows, 2).tobytes()
        assert not np.signbit(ours).any()  # 0.0 + -0.0 is +0.0

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.lists(st.integers(0, 5), max_size=40),
        extra=st.integers(0, 3),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_equals_add_at(self, index, extra, d, seed):
        draw = np.random.default_rng(seed)
        rows = draw.normal(size=(len(index), d)) * 10.0 ** draw.integers(-12, 12, (len(index), d))
        rows[draw.random(rows.shape) < 0.1] = -0.0
        n = (max(index) + 1 if index else 0) + extra
        ours = scatter_rows(np.array(index, dtype=np.int64), rows, n)
        assert ours.tobytes() == add_at_rows(index, rows, n).tobytes()

    # gamma > 0 on 200 triples over 6 users and 5 items: the L2 term's rows
    # repeat, and the loss and the gradient take the same distinct rows
    @pytest.mark.parametrize("n_layers, gamma", [(0, 0.0), (2, 0.0), (3, 0.05), (1, 0.5)])
    def test_bpr_gradients_scatter_positives_then_negatives(self, n_layers, gamma):
        rng = np.random.default_rng(70 + n_layers)
        graph = random_bipartite(rng, 6, 5, edge_prob=0.5)
        op = PropagationOperator(6, 5, graph.edges, n_layers)
        raw = random_table(rng, 6, 5, 4)
        # every item is a positive in some triples and a negative in others
        triples = rng.integers(0, 5, size=(200, 3))
        triples[:, 0] = rng.integers(0, 6, size=200)
        loss, final, grads = bpr_gradients(op, raw, triples, gamma)
        ref_loss, ref_final, ref_grads = add_at_bpr_gradients(op, raw, triples, gamma)
        assert loss == ref_loss == bpr_loss(final, triples, gamma, raw)
        assert final.users.tobytes() == ref_final.users.tobytes()
        assert grads.users.tobytes() == ref_grads.users.tobytes()
        assert grads.items.tobytes() == ref_grads.items.tobytes()


class TestGradientUpdate:
    def test_ids_and_rows_become_arrays(self):
        update = GradientUpdate([1, 4], [[1.0, 2.0], [3.0, 4.0]], 2)
        assert update.items.dtype == np.int64
        assert update.item_grads.shape == (2, 2)

    @pytest.mark.parametrize("items", [[3, 3], [4, 1], [[0, 1]]])
    def test_ids_must_be_strictly_increasing_and_flat(self, items):
        with pytest.raises(ValueError, match="strictly increasing"):
            GradientUpdate(items, np.ones((2, 2)), 1)

    @pytest.mark.parametrize("rows", [np.ones((3, 2)), np.ones(2)])
    def test_one_row_per_id(self, rows):
        with pytest.raises(ValueError, match="one row per item"):
            GradientUpdate([0, 5], rows, 1)

    def test_user_grads_is_an_empty_block(self):
        update = GradientUpdate([1, 4], np.ones((2, 3)), 2)
        assert update.user_grads.shape == (0, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 3))
def test_propagation_matches_dense_oracle_property(seed, n_users, n_items, n_layers):
    rng = np.random.default_rng(seed)
    graph = random_bipartite(rng, n_users, n_items, edge_prob=0.5)
    op = PropagationOperator(n_users, n_items, graph.edges, n_layers)
    t = random_table(rng, n_users, n_items, 3)
    out = propagate(op, t)
    oracle = dense_readout(n_users, n_items, graph.edges, n_layers, t)
    np.testing.assert_allclose(out.users, oracle.users, atol=1e-10)
    np.testing.assert_allclose(out.items, oracle.items, atol=1e-10)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path, rng):
        t = random_table(rng, 3, 4, 5)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(t, path)
        loaded, flags = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.users, t.users)
        np.testing.assert_array_equal(loaded.items, t.items)
        assert flags == {}

    def test_pretrained_flag(self, tmp_path, rng):
        t = random_table(rng, 1, 1, 2)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(t, path, pretrained=True)
        assert path.read_text().splitlines()[0] == "2 1 1 pretrained=true"
        _, flags = load_checkpoint(path)
        assert flags == {"pretrained": "true"}

    @pytest.mark.parametrize(
        "text",
        ["2 -1 2\n0.0 0.0\n", "0 1 1\n\n\n", "-1 1 0\n0.0\n", "2 1 -1\n"],
        ids=["negative-users", "zero-dim", "negative-dim", "negative-items"],
    )
    def test_negative_or_zero_header_fields_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DataError, match="bad.txt.*header"):
            load_checkpoint(path)

    def test_row_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n0.0 0.0\n")
        with pytest.raises(DataError, match="bad.txt: expected 2 rows, found 1"):
            load_checkpoint(path)

    def test_text_equals_a_repr_per_value(self, tmp_path, rng):
        t = random_table(rng, 4, 6, 5, scale=1e3)
        t.users[0, :4] = [-0.0, 5e-324, 1e308, 1.0]
        t.items[2, 1:3] = [-1e308, -5e-324]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(t, path, pretrained=True)
        lines = ["5 4 6 pretrained=true"] + [
            " ".join(repr(float(v)) for v in row) for row in np.vstack([t.users, t.items])
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_empty_table_round_trips(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_checkpoint(EmbeddingTable(np.empty((0, 3)), np.empty((0, 3))), path)
        assert path.read_text() == "3 0 0\n"
        loaded, flags = load_checkpoint(path)
        assert loaded.users.shape == loaded.items.shape == (0, 3)
        assert flags == {}
