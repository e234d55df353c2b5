import math

import numpy as np
import pytest

from fedrec import client as client_module
from fedrec import gnn
from fedrec.client import (
    ClientConfig,
    ClientState,
    PersonalizationWeights,
    _local_operator,
    client_update,
    infer_user_embedding,
    init_client_states,
    local_item_table,
    personalize,
    sample_bpr_triples,
)
from fedrec.data import (
    ClientGraph,
    InteractionDataset,
    build_client_graph,
    leave_one_out_split,
)
from fedrec.errors import DataError
from fedrec.gnn import (
    EmbeddingTable,
    PropagationOperator,
    bpr_gradients,
    bpr_loss,
    propagate,
)
from fedrec.privacy import PrivacyConfig
from fedrec.rng import substream


def graph_of(true_items, n_items, pseudo=frozenset(), masked=frozenset()):
    return ClientGraph(
        user=0,
        n_items=n_items,
        true_items=frozenset(true_items),
        pseudo_items=frozenset(pseudo),
        masked_items=frozenset(masked),
    )


class TestSampleBprTriples:
    def test_single_positive(self, rng):
        triples = sample_bpr_triples(graph_of({0}, 3), 20, rng)
        assert triples.shape == (20, 3) and triples.dtype == np.int64
        assert (triples[:, 1] == 0).all()
        assert set(triples[:, 2].tolist()) <= {1, 2}
        assert (triples[:, 0] == 0).all()

    def test_full_catalog_has_no_negatives(self, rng):
        with pytest.raises(DataError, match="negative"):
            sample_bpr_triples(graph_of({0, 1, 2}, 3), 4, rng)

    def test_positive_frequencies_are_uniform(self):
        triples = sample_bpr_triples(
            graph_of({0, 1}, 10), 10_000, substream(3, "triples")
        )
        freq = np.mean(triples[:, 1] == 0)
        assert abs(freq - 0.5) <= 0.02

    def test_negatives_avoid_pseudo_and_masked(self, rng):
        cg = graph_of({0}, 6, pseudo={1, 2}, masked={3})
        triples = sample_bpr_triples(cg, 200, rng)
        assert set(triples[:, 2].tolist()) <= {4, 5}

    def test_negatives_equal_a_choice_over_the_setdiff(self):
        cg = graph_of({2, 5}, 12, pseudo={0, 7}, masked={11})
        triples = sample_bpr_triples(cg, 50, substream(5, "triples"))
        replay = substream(5, "triples")
        positives = replay.choice(np.array([2, 5]), size=50)
        negatives = replay.choice(np.setdiff1d(np.arange(12), [0, 2, 5, 7, 11]), size=50)
        np.testing.assert_array_equal(triples[:, 1], positives)
        np.testing.assert_array_equal(triples[:, 2], negatives)


def make_split(n_items=8):
    rows = [(0, i, i) for i in range(5)]
    return leave_one_out_split(InteractionDataset(1, n_items, rows))


def make_cfg(split, items, **kwargs):
    defaults = dict(
        split=split,
        n_layers=0,
        eta=0.1,
        gamma=0.0,
        batch_size=1,
        privacy=PrivacyConfig(),
        local_base=items,
    )
    defaults.update(kwargs)
    return ClientConfig(**defaults)


class TestClientUpdate:
    def test_closed_form_single_triple_zero_layers(self):
        split = make_split()
        items = np.arange(16, dtype=float).reshape(8, 2) / 10.0
        state = ClientState(0, np.array([0.3, -0.2]), last_inferred=np.zeros(2))
        user_before = state.user_vec.copy()
        cfg = make_cfg(split, items)
        stream = substream(1, "client", 1, 0)
        update = client_update(state, items, cfg, stream)

        # replay the draws: no mask/pseudo draws when privacy is off
        replay = substream(1, "client", 1, 0)
        cg = build_client_graph(split, 0, cfg.privacy, replay)
        ((_, pos, neg),) = sample_bpr_triples(cg, 1, replay)
        margin = float(user_before @ (items[pos] - items[neg]))
        coef = 1.0 / (1.0 + math.exp(-margin)) - 1.0
        assert update.items.tolist() == sorted({pos, neg})
        rows = dict(zip(update.items.tolist(), update.item_grads))
        np.testing.assert_allclose(rows[pos], coef * user_before, atol=1e-12)
        np.testing.assert_allclose(rows[neg], -coef * user_before, atol=1e-12)
        assert update.data_count == 3
        # the user step was applied locally
        expected_user = user_before - cfg.eta * coef * (items[pos] - items[neg])
        np.testing.assert_allclose(state.user_vec, expected_user, atol=1e-12)

    def test_pseudo_items_extend_the_gradient_support(self):
        split = make_split(n_items=12)
        items = substream(0, "items").normal(size=(12, 3))
        state = ClientState(0, np.array([0.5, 0.1, -0.4]))
        cfg = make_cfg(
            split,
            items,
            privacy=PrivacyConfig(pseudo_items_p=2),
            n_layers=1,
            batch_size=4,
        )
        update = client_update(state, items, cfg, substream(9, "c", 1, 0))
        # the graph the update built, rebuilt from the same stream
        replay = substream(9, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.privacy, replay)
        triples = sample_bpr_triples(cg, 4, replay)
        pseudo = cg.pseudo_items
        assert len(pseudo) == 2
        assert pseudo <= set(update.items.tolist())
        # decoys plus sampled negatives are the only rows outside the train set
        outside = set(update.items.tolist()) - set(split.train_items(0).tolist())
        assert outside == pseudo | set(triples[:, 2].tolist())

    def test_decoy_rows_replace_the_real_rows_of_pseudo_items(self):
        # with one layer the pseudo items, being claimed, get real gradients
        # too; the upload carries the decoy draws in their place
        split = make_split(n_items=12)
        items = substream(0, "items").normal(size=(12, 3))
        state = ClientState(0, np.array([0.5, 0.1, -0.4]))
        cfg = make_cfg(
            split,
            items,
            privacy=PrivacyConfig(pseudo_items_p=2),
            n_layers=1,
            batch_size=4,
        )
        update = client_update(state, items, cfg, substream(9, "c", 1, 0))
        replay = substream(9, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.privacy, replay)
        sample_bpr_triples(cg, 4, replay)
        pseudo = sorted(cg.pseudo_items)
        rows = dict(zip(update.items.tolist(), update.item_grads))
        genuine = [rows[i] for i in sorted(rows) if i not in cg.pseudo_items]
        std = float(np.concatenate(genuine).std())
        expected = replay.normal(0.0, std, (len(pseudo), 3))
        np.testing.assert_array_equal([rows[i] for i in pseudo], expected)
        # the private step used the real rows, not the decoys
        local = dict(zip(state.local_items.tolist(), state.local_rows))
        for item in pseudo:
            assert not np.array_equal(
                local[item], items[item] - cfg.eta * rows[item]
            )

    def test_fixed_seed_reproduces_the_update(self):
        split = make_split(n_items=10)
        items = substream(4, "items").normal(size=(10, 3))
        privacy = PrivacyConfig(mask_ratio=0.3, pseudo_items_p=2)
        results = []
        for _ in range(2):
            state = ClientState(0, np.array([0.5, 0.1, -0.4]))
            cfg = make_cfg(split, items, privacy=privacy, n_layers=2, batch_size=3)
            results.append(client_update(state, items, cfg, substream(8, "c", 2, 0)))
        a, b = results
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.item_grads, b.item_grads)
        assert a.data_count == b.data_count

    def test_propagates_once_forward_and_once_back(self, monkeypatch):
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        cfg = make_cfg(split, items, n_layers=2, batch_size=3)
        original, calls = gnn.propagate, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (gnn, client_module):
            if getattr(module, "propagate", None) is original:
                monkeypatch.setattr(module, "propagate", counting)
        state = ClientState(0, np.array([0.2, -0.1, 0.4, 0.05]))
        client_update(state, items, cfg, substream(6, "c", 1, 0))
        assert len(calls) == 2

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_loss_and_inferred_row_come_from_the_forward_pass(self, n_layers):
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        user_vec = np.array([0.2, -0.1, 0.4, 0.05])
        state = ClientState(0, user_vec.copy())
        privacy = PrivacyConfig(pseudo_items_p=2)
        cfg = make_cfg(
            split, items, n_layers=n_layers, gamma=0.02, batch_size=4, privacy=privacy
        )
        client_update(state, items, cfg, substream(6, "c", 1, 0))

        replay = substream(6, "c", 1, 0)
        cg = build_client_graph(split, 0, privacy, replay)
        triples = sample_bpr_triples(cg, 4, replay)
        op, raw, local, _ = _local_operator(cg, triples, n_layers, user_vec, items, None)
        loss, final, _ = bpr_gradients(op, raw, local, 0.02)
        expected = propagate(op, raw)
        assert final.users.tobytes() == expected.users.tobytes()
        assert final.items.tobytes() == expected.items.tobytes()
        assert loss == bpr_loss(expected, local, 0.02, raw)
        assert state.last_loss == loss
        assert state.last_inferred.tobytes() == final.users[0].tobytes()

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_matches_direct_gradients_on_the_local_subgraph(self, n_layers):
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        user_vec = np.array([0.2, -0.1, 0.4, 0.05])
        state = ClientState(0, user_vec.copy())
        cfg = make_cfg(split, items, n_layers=n_layers, gamma=0.02, batch_size=5)
        update = client_update(state, items, cfg, substream(6, "c", 1, 0))

        replay = substream(6, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.privacy, replay)
        triples = sample_bpr_triples(cg, 5, replay)
        full_op = PropagationOperator(
            1, 9, tuple((0, i) for i in sorted(cg.true_items)), n_layers
        )
        raw = EmbeddingTable(user_vec[None, :], items)
        local = triples.copy()
        local[:, 0] = 0
        oracle = bpr_gradients(full_op, raw, local, 0.02)[2]
        # nonzero rows plus the batch's items
        support = np.union1d(np.flatnonzero(oracle.items.any(axis=1)), local[:, 1:])
        np.testing.assert_array_equal(update.items, support)
        np.testing.assert_allclose(
            update.item_grads, oracle.items[support], atol=1e-12
        )


class TestNeighborExpandedOperator:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_compact_gradients_equal_the_full_catalogue_gradients(self, n_layers):
        n_items, n_handles, dim = 14, 5, 4
        items = substream(3, "items").normal(size=(n_items, dim))
        neighbor_vecs = substream(3, "neighbors").normal(size=(n_handles, dim))
        user_vec = np.array([0.3, -0.2, 0.1, 0.5])
        # handles 0 and 2 have no shared item; 9 and 11 are reached only
        # through neighbors
        neighbors = np.array([[1, 2], [1, 9], [3, 0], [3, 2], [3, 11], [4, 9]])
        cg = ClientGraph(
            user=0,
            n_items=n_items,
            true_items=frozenset({0, 2, 5}),
            pseudo_items=frozenset({7}),
            masked_items=frozenset({3}),
            neighbor_users=neighbors,
        )
        triples = sample_bpr_triples(cg, 6, substream(3, "triples"))
        op, raw, local, item_space = _local_operator(
            cg, triples, n_layers, user_vec, items, neighbor_vecs
        )
        compact = bpr_gradients(op, raw, local, 0.01)[2]

        # full catalogue: user 0 is the client, user 1 + h has handle h
        claimed = sorted(cg.true_items | cg.pseudo_items)
        edges = [(0, i) for i in claimed] + [(1 + h, i) for h, i in neighbors.tolist()]
        full_op = PropagationOperator(1 + n_handles, n_items, edges, n_layers)
        full_raw = EmbeddingTable(np.vstack((user_vec, neighbor_vecs)), items)
        full = bpr_gradients(full_op, full_raw, triples, 0.01)[2]

        assert {2, 9, 11} <= set(item_space.tolist())
        scattered = np.zeros((n_items, dim))
        scattered[item_space] = compact.items
        np.testing.assert_allclose(scattered, full.items, rtol=0, atol=1e-10)
        rows = np.concatenate(([0], 1 + np.unique(neighbors[:, 0])))
        np.testing.assert_allclose(compact.users, full.users[rows], rtol=0, atol=1e-10)


class TestPersonalize:
    def test_pure_local_weights(self, rng):
        local = rng.normal(size=(4, 2))
        cluster = rng.normal(size=(4, 2))
        global_ = rng.normal(size=(4, 2))
        w = PersonalizationWeights(1.0, 0.0, 0.0)
        mixed = personalize(local, cluster, global_, w)
        np.testing.assert_array_equal(mixed, local)

    def test_identical_models_mix_to_themselves(self, rng):
        rows = rng.normal(size=(3, 2))
        w = PersonalizationWeights(1 / 3, 1 / 3, 1 / 3)
        mixed = personalize(rows, rows.copy(), rows.copy(), w)
        np.testing.assert_allclose(mixed, rows, atol=1e-15)

    def test_scalar_example(self):
        w = PersonalizationWeights(1 / 3, 1 / 3, 1 / 3)
        mixed = personalize(
            np.full((1, 1), 2.0),
            np.full((1, 1), 4.0),
            np.full((1, 1), 6.0),
            w,
        )
        assert mixed[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_global_only_is_bit_exact(self, rng):
        local = rng.normal(size=(5, 3))
        cluster = rng.normal(size=(5, 3))
        global_ = rng.normal(size=(5, 3))
        w = PersonalizationWeights(0.0, 0.0, 1.0)
        mixed = personalize(local, cluster, global_, w)
        assert np.array_equal(mixed, global_)

    def test_linearity_in_each_argument(self, rng):
        tables = [rng.normal(size=(3, 2)) for _ in range(3)]
        w = PersonalizationWeights(0.5, 0.25, 2.0)
        doubled = personalize(2 * tables[0], tables[1], tables[2], w)
        base = personalize(*tables, w)
        np.testing.assert_allclose(doubled - base, 0.5 * tables[0], atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            personalize(
                rng.normal(size=(2, 2)),
                rng.normal(size=(3, 2)),
                rng.normal(size=(2, 2)),
                PersonalizationWeights(1, 1, 1),
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PersonalizationWeights(-0.1, 0.5, 0.5)


class TestLocalState:
    def test_init_states_copy_user_rows(self, rng):
        table = EmbeddingTable(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        states = init_client_states(table)
        states[0].user_vec[0] = 99.0
        assert table.users[0, 0] != 99.0

    def test_local_item_table_applies_the_overlay(self, rng):
        base = rng.normal(size=(4, 2))
        state = ClientState(
            0, np.zeros(2), local_items=np.array([2]), local_rows=np.array([[5.0, 5.0]])
        )
        rows = local_item_table(state, base)
        np.testing.assert_array_equal(rows[2], [5.0, 5.0])
        np.testing.assert_array_equal(rows[0], base[0])

    def test_infer_user_embedding_zero_layers_is_the_raw_row(self, rng):
        row = rng.normal(size=3)
        out = infer_user_embedding(row, rng.normal(size=(5, 3)), [0, 2], 0)
        np.testing.assert_array_equal(out, row)

    @pytest.mark.parametrize("n", [0, 1, 2, 30, 999])
    @pytest.mark.parametrize("n_layers", range(5))
    def test_infer_user_embedding_equals_the_operator_readout(self, n, n_layers):
        gen = np.random.default_rng(n)
        row, rows = gen.normal(size=16), gen.normal(size=(1000, 16))
        items = np.sort(gen.choice(1000, size=n, replace=False))
        edges = np.column_stack((np.zeros(n, np.int64), np.arange(n)))
        op = PropagationOperator(1, max(n, 1), edges, n_layers)
        raw = EmbeddingTable(row[None, :], rows[items] if n else np.zeros((1, 16)))
        expected = propagate(op, raw).users[0]
        out = infer_user_embedding(row, rows, items, n_layers)
        assert out.tobytes() == expected.tobytes()

    def test_infer_user_embedding_single_item_one_layer(self):
        row = np.array([1.0, 0.0])
        items = np.array([[0.0, 2.0], [9.0, 9.0]])
        out = infer_user_embedding(row, items, [0], 1)
        np.testing.assert_allclose(out, [0.5, 1.0])
