import math

import numpy as np
import pytest

from fedrec import client as client_module
from fedrec import gnn
from fedrec.client import (
    ClientConfig,
    ClientStates,
    NEIGHBOUR_CHUNK,
    Overlay,
    STAR_CHUNK,
    LocalStep,
    _chunk_steps,
    _diagonal_block,
    client_round,
    client_update,
    infer_user_embedding,
    personalize,
    sample_bpr_triples,
)
from fedrec.config import ExperimentConfig, ModelSection, PrivacySection, TrainSection
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
from fedrec.rng import substream
from fedrec.server import _neighbor_setup
from helpers import (
    local_graph_ids,
    local_item_table,
    local_operator,
    fold_of,
    fold_rows,
    loop_client_update,
    matched_rows,
    operator_client_update,
    star_user_readout,
)


def graph_of(true_items, n_items, pseudo=(), masked=()):
    arrays = (np.array(sorted(s), np.int64) for s in (true_items, pseudo, masked))
    return ClientGraph(0, n_items, *arrays)


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

    def test_choice_with_replacement_is_an_integers_draw(self):
        # sample_bpr_triples draws a[integers(0, len(a), size)] for
        # choice(a, size), and integers(0, n, size) for choice(n, size)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for n in range(1, 1001):
            a = np.arange(n, dtype=np.int64) * 7 - 3
            for size in (0, 1, 5, 20, 257):
                assert np.array_equal(a[ours.integers(0, n, size)], theirs.choice(a, size=size))
                drawn, chosen = ours.integers(0, n, size), theirs.choice(n, size=size)
                assert np.array_equal(drawn, chosen) and drawn.dtype == chosen.dtype
            assert ours.bit_generator.state == theirs.bit_generator.state, n


def make_split(n_items=8):
    rows = [(0, i, i) for i in range(5)]
    return leave_one_out_split(InteractionDataset(1, n_items, rows))


def make_cfg(split, items, n_layers=0, gamma=0.0, batch_size=1, privacy=None):
    experiment = ExperimentConfig(
        model=ModelSection(layers=n_layers),
        train=TrainSection(eta=0.1, gamma=gamma, batch_size=batch_size),
        privacy=privacy or PrivacySection(),
    )
    return ClientConfig(split, experiment)


def update_one(states, user, items, cfg, stream):
    """Client ``user``'s upload from a round of it alone."""
    return client_round(states, [user], items, cfg, [stream])[0]


def one_client(user_vec, items):
    """The state of a one-user run: its row ``user_vec`` over the warm-start
    item table ``items``."""
    return ClientStates.start(EmbeddingTable(np.asarray(user_vec)[None, :], items))


class TestClientUpdate:
    def test_closed_form_single_triple_zero_layers(self):
        split = make_split()
        items = np.arange(16, dtype=float).reshape(8, 2) / 10.0
        states = one_client([0.3, -0.2], items)
        user_before = states.user_rows[0].copy()
        cfg = make_cfg(split, items)
        stream = substream(1, "client", 1, 0)
        update = update_one(states, 0, items, cfg, stream)

        # replay the draws: no mask/pseudo draws when privacy is off
        replay = substream(1, "client", 1, 0)
        cg = build_client_graph(split, 0, cfg.experiment.privacy, replay)
        ((_, pos, neg),) = sample_bpr_triples(cg, 1, replay)
        margin = float(user_before @ (items[pos] - items[neg]))
        coef = 1.0 / (1.0 + math.exp(-margin)) - 1.0
        assert update.items.tolist() == sorted({pos, neg})
        rows = dict(zip(update.items.tolist(), update.item_grads))
        np.testing.assert_allclose(rows[pos], coef * user_before, atol=1e-12)
        np.testing.assert_allclose(rows[neg], -coef * user_before, atol=1e-12)
        assert update.data_count == 3
        # the user step was applied locally
        eta = cfg.experiment.train.eta
        expected_user = user_before - eta * coef * (items[pos] - items[neg])
        np.testing.assert_allclose(states.user_rows[0], expected_user, atol=1e-12)

    def test_pseudo_items_extend_the_gradient_support(self):
        split = make_split(n_items=12)
        items = substream(0, "items").normal(size=(12, 3))
        states = one_client([0.5, 0.1, -0.4], items)
        cfg = make_cfg(
            split,
            items,
            privacy=PrivacySection(pseudo_items_p=2),
            n_layers=1,
            batch_size=4,
        )
        update = update_one(states, 0, items, cfg, substream(9, "c", 1, 0))
        # the graph the update built, rebuilt from the same stream
        replay = substream(9, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.experiment.privacy, replay)
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
        states = one_client([0.5, 0.1, -0.4], items)
        cfg = make_cfg(
            split,
            items,
            privacy=PrivacySection(pseudo_items_p=2),
            n_layers=1,
            batch_size=4,
        )
        update = update_one(states, 0, items, cfg, substream(9, "c", 1, 0))
        replay = substream(9, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.experiment.privacy, replay)
        sample_bpr_triples(cg, 4, replay)
        pseudo = sorted(cg.pseudo_items)
        rows = dict(zip(update.items.tolist(), update.item_grads))
        genuine = [rows[i] for i in sorted(rows) if i not in cg.pseudo_items]
        std = float(np.concatenate(genuine).std())
        expected = replay.normal(0.0, std, (len(pseudo), 3))
        np.testing.assert_array_equal([rows[i] for i in pseudo], expected)
        # the private step used the real rows, not the decoys
        local = dict(zip(states.overlays[0].local_items.tolist(), states.overlays[0].local_rows))
        for item in pseudo:
            assert not np.array_equal(
                local[item], items[item] - cfg.experiment.train.eta * rows[item]
            )

    def test_fixed_seed_reproduces_the_update(self):
        split = make_split(n_items=10)
        items = substream(4, "items").normal(size=(10, 3))
        privacy = PrivacySection(mask_ratio=0.3, pseudo_items_p=2)
        results = []
        for _ in range(2):
            states = one_client([0.5, 0.1, -0.4], items)
            cfg = make_cfg(split, items, privacy=privacy, n_layers=2, batch_size=3)
            results.append(update_one(states, 0, items, cfg, substream(8, "c", 2, 0)))
        a, b = results
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.item_grads, b.item_grads)
        assert a.data_count == b.data_count

    def test_propagates_once_forward_and_once_back(self, monkeypatch):
        # a star client: the star kernel once forward and once back, no operator
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        cfg = make_cfg(split, items, n_layers=2, batch_size=3)
        calls = {"propagate": [], "star_readout": []}
        for name, seen in calls.items():
            original = getattr(gnn, name)

            def counting(*args, _original=original, _seen=seen, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            for module in (gnn, client_module):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        states = one_client([0.2, -0.1, 0.4, 0.05], items)
        update_one(states, 0, items, cfg, substream(6, "c", 1, 0))
        assert len(calls["star_readout"]) == 2
        assert calls["propagate"] == []

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_loss_and_inferred_row_come_from_the_forward_pass(self, n_layers):
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        user_vec = np.array([0.2, -0.1, 0.4, 0.05])
        states = one_client(user_vec, items)
        privacy = PrivacySection(pseudo_items_p=2)
        cfg = make_cfg(
            split, items, n_layers=n_layers, gamma=0.02, batch_size=4, privacy=privacy
        )
        update_one(states, 0, items, cfg, substream(6, "c", 1, 0))

        replay = substream(6, "c", 1, 0)
        cg = build_client_graph(split, 0, privacy, replay)
        triples = sample_bpr_triples(cg, 4, replay)
        op, raw, local, _ = local_operator(cg, triples, n_layers, user_vec, items, None)
        loss, final, _ = bpr_gradients(op, raw, local, 0.02)
        expected = propagate(op, raw)
        assert final.users.tobytes() == expected.users.tobytes()
        assert final.items.tobytes() == expected.items.tobytes()
        assert loss == bpr_loss(expected, local, 0.02, raw)
        # the star kernel's rounding may differ from the operator's
        assert states.losses[0] == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(states.inferred[0], final.users[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_matches_direct_gradients_on_the_local_subgraph(self, n_layers):
        split = make_split(n_items=9)
        items = substream(2, "items").normal(size=(9, 4))
        user_vec = np.array([0.2, -0.1, 0.4, 0.05])
        states = one_client(user_vec, items)
        cfg = make_cfg(split, items, n_layers=n_layers, gamma=0.02, batch_size=5)
        update = update_one(states, 0, items, cfg, substream(6, "c", 1, 0))

        replay = substream(6, "c", 1, 0)
        cg = build_client_graph(split, 0, cfg.experiment.privacy, replay)
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
        cg = graph_of({0, 2, 5}, n_items, pseudo={7}, masked={3})
        triples = sample_bpr_triples(cg, 6, substream(3, "triples"))
        op, raw, local, item_space = local_operator(
            cg, triples, n_layers, user_vec, items, neighbor_vecs, neighbors
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
        w = (1.0, 0.0, 0.0)
        mixed = personalize(local, cluster, global_, w)
        np.testing.assert_array_equal(mixed, local)

    def test_identical_models_mix_to_themselves(self, rng):
        rows = rng.normal(size=(3, 2))
        w = (1 / 3, 1 / 3, 1 / 3)
        mixed = personalize(rows, rows.copy(), rows.copy(), w)
        np.testing.assert_allclose(mixed, rows, atol=1e-15)

    def test_scalar_example(self):
        w = (1 / 3, 1 / 3, 1 / 3)
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
        w = (0.0, 0.0, 1.0)
        mixed = personalize(local, cluster, global_, w)
        assert np.array_equal(mixed, global_)

    def test_linearity_in_each_argument(self, rng):
        tables = [rng.normal(size=(3, 2)) for _ in range(3)]
        w = (0.5, 0.25, 2.0)
        doubled = personalize(2 * tables[0], tables[1], tables[2], w)
        base = personalize(*tables, w)
        np.testing.assert_allclose(doubled - base, 0.5 * tables[0], atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            personalize(
                rng.normal(size=(2, 2)),
                rng.normal(size=(3, 2)),
                rng.normal(size=(2, 2)),
                (1, 1, 1),
            )

    def test_negative_weights_rejected(self, rng):
        tables = [rng.normal(size=(3, 2)) for _ in range(3)]
        with pytest.raises(ValueError, match=">= 0"):
            personalize(*tables, (-0.1, 0.5, 0.5))


class TestLocalState:
    def test_init_states_copy_user_rows(self, rng):
        table = EmbeddingTable(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        states = ClientStates.start(table)
        states.user_rows[0, 0] = 99.0
        states.inferred[0, 1] = 98.0
        assert table.users[0, 0] != 99.0
        assert table.users[0, 1] != 98.0
        assert states.local_base is table.items

    def test_copy_copies_the_blocks_and_shares_the_overlays(self, rng):
        table = EmbeddingTable(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        states = ClientStates.start(table)
        states.overlays[1] = Overlay(np.array([2]), np.array([[5.0, 5.0]]))
        snapshot = states.copy()
        states.user_rows[0] += 1.0
        states.inferred[0] += 1.0
        states.losses[0] = 0.5
        states.overlays[1] = Overlay(np.array([3]), np.array([[6.0, 6.0]]))
        assert not np.array_equal(snapshot.user_rows, states.user_rows)
        assert not np.array_equal(snapshot.inferred, states.inferred)
        assert np.isnan(snapshot.losses).all()
        assert snapshot.overlays[1].local_items.tolist() == [2]
        assert snapshot.overlays[0] is states.overlays[0]
        assert snapshot.local_base is states.local_base

    def test_local_item_table_applies_the_overlay(self, rng):
        base = rng.normal(size=(4, 2))
        overlay = Overlay(np.array([2]), np.array([[5.0, 5.0]]))
        rows = local_item_table(overlay, base)
        np.testing.assert_array_equal(rows[2], [5.0, 5.0])
        np.testing.assert_array_equal(rows[0], base[0])

    def test_infer_user_embedding_zero_layers_is_the_raw_row(self, rng):
        row = rng.normal(size=3)
        out = infer_user_embedding(row[None, :], rng.normal(size=(5, 3)), [np.array([0, 2])], 0)
        np.testing.assert_array_equal(out[0], row)

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
        out = infer_user_embedding(row[None, :], rows, [items], n_layers)[0]
        # closed form against the operator: equal up to rounding
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_infer_user_embedding_single_item_one_layer(self):
        row = np.array([1.0, 0.0])
        items = np.array([[0.0, 2.0], [9.0, 9.0]])
        out = infer_user_embedding(row[None, :], items, [np.array([0])], 1)
        np.testing.assert_allclose(out[0], [0.5, 1.0])

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_infer_user_embedding_block_with_patched_rows(self, n_layers):
        gen = np.random.default_rng(n_layers)
        base, users = gen.normal(size=(12, 4)), gen.normal(size=(4, 4))
        graphs = [np.array([1, 3, 4]), np.array([0]), np.array([], np.int64), np.arange(12)]
        # user 0's item 3 and item 7 (outside its graph), user 3's item 0
        owner, ids = np.array([0, 0, 3]), np.array([3, 7, 0])
        patched = gen.normal(size=(3, 4))
        out = infer_user_embedding(users, base, graphs, n_layers, (owner, ids, patched))
        for k, graph in enumerate(graphs):
            table = base.copy()
            table[ids[owner == k]] = patched[owner == k]
            expected = star_user_readout(users[k], table, graph, n_layers)
            np.testing.assert_allclose(out[k], expected, rtol=0, atol=1e-12)


def split_of(train_counts, n_items):
    """A split whose user ``u`` has ``train_counts[u]`` training items."""
    gen, rows = np.random.default_rng(len(train_counts)), []
    for user, count in enumerate(train_counts):
        picked = gen.choice(n_items, size=count + 2, replace=False)
        rows.extend((user, int(i), t) for t, i in enumerate(picked))
    return leave_one_out_split(InteractionDataset(len(train_counts), n_items, rows))


def operator_step(cg, triples, user_vec, items, cfg):
    """A client's step on its own compact operator: the per-client reference."""
    exp = cfg.experiment
    op, raw, local, space = local_operator(
        cg, triples, exp.model.layers, user_vec, items, cfg.neighbor_vecs,
        fold_rows(cfg.neighbors, cg.user),
    )
    loss, final, grads = bpr_gradients(op, raw, local, exp.train.gamma)
    support = np.union1d(np.flatnonzero(grads.items.any(axis=1)), local[:, 1:])
    graph = np.isin(space[support], local_graph_ids(cg, cfg.neighbors))
    return LocalStep(
        loss, final.users[0], grads.users[0], space[support], grads.items[support], graph
    )


def assert_steps_close(ours, theirs):
    """Two LocalSteps equal up to the kernel's rounding, their ids and
    local-graph masks exactly."""
    np.testing.assert_array_equal(ours.items, theirs.items)
    np.testing.assert_array_equal(ours.local, theirs.local)
    assert ours.loss == pytest.approx(theirs.loss, rel=1e-12, abs=1e-12)
    for a, b in zip(ours[1:3] + (ours.rows,), theirs[1:3] + (theirs.rows,)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


class TestStarSteps:
    """The batched star-client arithmetic against each client's own compact
    operator (``_local_operator`` + ``bpr_gradients``), within 1e-12."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("batch_size", [0, 1, 9])
    def test_chunk_equals_the_per_client_operator(self, n_layers, gamma, batch_size):
        # user 0 has one training item (n = 1); batch 9 repeats triples
        split = split_of([1, 2, 6, 9, 4, 7], n_items=20)
        exp = ExperimentConfig(
            model=ModelSection(layers=n_layers, dim=5),
            train=TrainSection(gamma=gamma, batch_size=batch_size),
            privacy=PrivacySection(pseudo_items_p=2, mask_ratio=0.3),
        )
        cfg = ClientConfig(split, exp)
        gen = np.random.default_rng(n_layers)
        items, users = gen.normal(size=(20, 5)), gen.normal(size=(6, 5))
        graphs, batches = [], []
        for user in range(6):
            stream = substream(4, "c", 1, user)
            graphs.append(build_client_graph(split, user, exp.privacy, stream))
            batches.append(sample_bpr_triples(graphs[-1], batch_size or len(graphs[-1].true_items), stream))
        assert any(cg.masked_items for cg in graphs) and all(cg.pseudo_items for cg in graphs)
        assert len(graphs[0].true_items | graphs[0].pseudo_items) == 3
        states = ClientStates.start(EmbeddingTable(users, items))
        steps = _chunk_steps(graphs, batches, states, items, cfg)
        for user, step in enumerate(steps):
            assert_steps_close(step, operator_step(graphs[user], batches[user], users[user], items, cfg))

    def test_round_with_a_partial_chunk_and_neighbour_clients(self):
        n_users = STAR_CHUNK + 7
        split = split_of([3 + u % 5 for u in range(n_users)], n_items=40)
        exp = ExperimentConfig(
            model=ModelSection(layers=2, dim=4),
            train=TrainSection(gamma=0.01, eta=0.1),
            privacy=PrivacySection(enabled=True, pseudo_items_p=2, mask_ratio=0.2),
        )
        gen = np.random.default_rng(5)
        # every third user has neighbour rows (handle, shared item); the rest are stars
        neighbors = fold_of(
            ([[h, int(split.train_items(u)[0])] for h in (1, 4)] if u % 3 == 0 else []
             for u in range(n_users)),
            40,
        )
        cfg = ClientConfig(split, exp, neighbors, gen.normal(size=(n_users, 4)))
        assert_round_equals_the_operator(cfg, gen.normal(size=(40, 4)), list(range(n_users)), 2)


def assert_round_equals_the_operator(cfg, items, users, seed):
    """``client_round`` of ``users`` against ``operator_client_update`` per
    client on the same streams: the same upload ids, data counts and draws,
    and every row within 1e-12 of the largest magnitude."""
    gen = np.random.default_rng(seed)
    start = EmbeddingTable(gen.normal(size=(cfg.split.n_users, items.shape[1])), items)
    ours, theirs = ClientStates.start(start), ClientStates.start(start)
    streams = [substream(seed, "c", 1, u) for u in users]
    updates = client_round(ours, users, items, cfg, streams)
    for user, update in zip(users, updates):
        expected = operator_client_update(theirs, user, items, cfg, substream(seed, "c", 1, user))
        np.testing.assert_array_equal(update.items, expected.items)
        assert update.data_count == expected.data_count
        # the LDP noise and the decoys are the same draws: only rounding differs
        for a, b in (
            (update.item_grads, expected.item_grads),
            (ours.user_rows[user], theirs.user_rows[user]),
            (ours.inferred[user], theirs.inferred[user]),
            (ours.overlays[user].local_rows, theirs.overlays[user].local_rows),
        ):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))
        np.testing.assert_array_equal(ours.overlays[user].local_items, theirs.overlays[user].local_items)
        assert ours.losses[user] == pytest.approx(theirs.losses[user], rel=1e-12, abs=1e-12)


class TestFoldNeighbours:
    """Every user's fold against a per-user loop over its rows."""

    ROWS = [
        [],
        [[0, 3], [0, 5], [2, 5], [4, 1], [4, 3], [4, 5]],
        [[1, 7]],
        [],
        [[0, 0], [0, 7], [1, 0], [1, 7], [3, 0], [3, 7]],  # every neighbour shares both
    ]

    def test_equals_the_per_user_loop(self):
        n_users, n_items = len(self.ROWS), 8
        fold = fold_of(self.ROWS, n_items)
        assert len(fold.ptr) == n_users + 1
        for user, rows in enumerate(self.ROWS):
            rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
            shared, counts = np.unique(rows[:, 1], return_counts=True)
            lo, hi = fold.ptr[user], fold.ptr[user + 1]
            np.testing.assert_array_equal(fold.items[lo:hi], shared)
            np.testing.assert_array_equal(fold.counts[lo:hi], counts)
            weights, gram = np.zeros((len(shared), n_users)), np.zeros((len(shared),) * 2)
            for h in np.unique(rows[:, 0]):
                mine = np.searchsorted(shared, rows[rows[:, 0] == h, 1])
                weights[mine, h] = 1.0 / np.sqrt(len(mine))
                gram[np.ix_(mine, mine)] += 1.0 / len(mine)
            np.testing.assert_allclose(fold.weights[lo:hi].toarray(), weights, rtol=1e-15)
            block = fold.gram[lo:hi].toarray()
            np.testing.assert_allclose(block[:, lo:hi], gram, rtol=1e-15)
            assert not np.delete(block, np.arange(lo, hi), axis=1).any()  # block diagonal
            assert sorted(fold_rows(fold, user).tolist()) == rows.tolist()
            assert fold_rows(fold, user).dtype == np.int64

    def test_diagonal_block_equals_scipy_indexing(self):
        gen = np.random.default_rng(12)
        for case in range(40):
            n_users, n_items = int(gen.integers(2, 12)), int(gen.integers(2, 15))
            rows = []
            for _ in range(n_users):
                drawn = gen.integers(0, (n_users, n_items), (int(gen.integers(0, 9)), 2))
                rows.append(sorted({(int(h), int(i)) for h, i in drawn}))
            fold = fold_of(rows, n_items)
            users = gen.permutation(n_users)[: int(gen.integers(1, n_users + 1))]
            slots = np.concatenate([np.arange(fold.ptr[u], fold.ptr[u + 1]) for u in users])
            expected = fold.gram[slots][:, slots].tocoo()
            row, col, data = _diagonal_block(fold.gram, slots)
            assert row.tolist() == expected.row.tolist(), case
            assert col.tolist() == expected.col.tolist(), case
            assert data.tobytes() == expected.data.tobytes(), case

    def test_no_rows_fold_to_nothing(self):
        fold = fold_of([[], []], 5)
        assert fold.ptr.tolist() == [0, 0, 0] and fold.gram.shape == (0, 0)
        assert fold_rows(fold, 1).shape == (0, 2)


def mixed_round(n_users):
    """A round's settings and warm-start items for ``n_users`` clients, every
    third a star and the rest with the matcher's neighbour rows."""
    split = split_of([3 + u % 6 for u in range(n_users)], n_items=30)
    exp = ExperimentConfig(
        model=ModelSection(layers=3, dim=4),
        train=TrainSection(gamma=0.01, eta=0.1),
        privacy=PrivacySection(enabled=True, pseudo_items_p=2, mask_ratio=0.25),
    )
    fold, _ = _neighbor_setup(exp, split)
    rows = [matched_rows(fold, u) if u % 3 else [] for u in range(n_users)]
    cfg = ClientConfig(split, exp, fold_of(rows, 30))
    cfg.neighbor_vecs = np.random.default_rng(1).normal(size=(n_users, 4))
    return cfg, np.random.default_rng(2).normal(size=(30, 4))


class TestNeighbourSteps:
    """The item-Gram kernel for clients with neighbour rows against each
    client's own compact operator (``local_operator`` + ``bpr_gradients``),
    within 1e-12 of the largest magnitude and with the same upload ids."""

    @staticmethod
    def chunk_case(n_layers, gamma, rows_of, train_counts=(1, 2, 6, 9, 4, 7), mask=0.3, pseudo=2):
        split = split_of(list(train_counts), n_items=24)
        n = len(train_counts)
        exp = ExperimentConfig(
            model=ModelSection(layers=n_layers, dim=5),
            train=TrainSection(gamma=gamma, batch_size=7),
            privacy=PrivacySection(pseudo_items_p=pseudo, mask_ratio=mask),
        )
        gen = np.random.default_rng(n_layers + 10 * n)
        neighbors = fold_of((rows_of(split, u) for u in range(n)), 24)
        cfg = ClientConfig(split, exp, neighbors, gen.normal(size=(n, 5)))
        items, users = gen.normal(size=(24, 5)), gen.normal(size=(n, 5))
        graphs, batches = [], []
        for user in range(n):
            stream = substream(4, "c", 1, user)
            graphs.append(build_client_graph(split, user, exp.privacy, stream))
            batches.append(sample_bpr_triples(graphs[-1], 7, stream))
        states = ClientStates.start(EmbeddingTable(users, items))
        steps = _chunk_steps(graphs, batches, states, items, cfg)
        for user, step in enumerate(steps):
            assert_steps_close(step, operator_step(graphs[user], batches[user], users[user], items, cfg))
        return graphs, neighbors

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matched_neighbours(self, n_layers, gamma):
        # the matcher's rows: every other owner of each training item
        def rows_of(split, user):
            others = [
                (v, int(i)) for v in range(split.n_users) if v != user
                for i in np.intersect1d(split.train_items(user), split.train_items(v))
            ]
            return sorted(((3 * v + 1) % split.n_users, i) for v, i in others)

        graphs, fold = self.chunk_case(n_layers, gamma, rows_of, train_counts=(8, 9, 6, 9, 8, 7, 9))
        # a shared item masked this round reaches its client only through neighbours
        assert any(
            set(fold_rows(fold, cg.user)[:, 1].tolist()) & cg.masked_items for cg in graphs
        )

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_one_claimed_item_and_one_neighbour(self, n_layers):
        graphs, fold = self.chunk_case(
            n_layers, 0.5, lambda split, u: [[u, int(split.train_items(u)[0])]],
            train_counts=(1, 1, 1), mask=0.0, pseudo=0,
        )
        assert all(len(cg.true_items | cg.pseudo_items) == 1 for cg in graphs)
        assert all(len(fold_rows(fold, cg.user)) == 1 for cg in graphs)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_neighbours_sharing_every_item(self, n_layers):
        # handles 0, 2 and 3 share all of each user's training items
        def rows_of(split, user):
            return [[h, int(i)] for h in (0, 2, 3) for i in split.train_items(user)]

        self.chunk_case(n_layers, 0.0, rows_of)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_a_handle_in_two_clients_does_not_leak(self, n_layers):
        # handle 1 names a neighbour of every client, each with its own items
        def rows_of(split, user):
            own = split.train_items(user)
            return [[1, int(i)] for i in own[: 1 + user % 3]] + [[4, int(own[-1])]]

        self.chunk_case(n_layers, 0.5, rows_of)

    def test_round_of_mixed_clients_over_partial_chunks(self):
        cfg, items = mixed_round(NEIGHBOUR_CHUNK + STAR_CHUNK + 5)
        assert (np.diff(cfg.neighbors.ptr) > 0).sum() > NEIGHBOUR_CHUNK
        users = list(range(cfg.split.n_users - 1, -1, -1))
        assert_round_equals_the_operator(cfg, items, users, 3)

    def test_mixed_chunk_equals_the_per_client_operator(self):
        # star and neighbour clients in one chunk take the item-Gram kernel
        cfg, items = mixed_round(7)
        users = [5, 0, 3, 1, 6]
        expanded = np.diff(cfg.neighbors.ptr)[users] > 0
        assert expanded.any() and not expanded.all()
        gen = np.random.default_rng(3)
        start = EmbeddingTable(gen.normal(size=(cfg.split.n_users, items.shape[1])), items)
        ours, theirs = ClientStates.start(start), ClientStates.start(start)
        streams = [substream(3, "c", 1, u) for u in users]
        graphs, batches = [], []
        for user, stream in zip(users, streams):
            graphs.append(build_client_graph(cfg.split, user, cfg.experiment.privacy, stream))
            # batch_size 0: one triple per positive
            batches.append(sample_bpr_triples(graphs[-1], len(graphs[-1].true_ids), stream))
        steps = _chunk_steps(graphs, batches, ours, items, cfg)
        for cg, step, stream in zip(graphs, steps, streams):
            update = client_update(ours, cg, step, cfg, stream)
            replay = substream(3, "c", 1, cg.user)
            expected = operator_client_update(theirs, cg.user, items, cfg, replay)
            np.testing.assert_array_equal(update.items, expected.items)
            np.testing.assert_allclose(
                update.item_grads, expected.item_grads,
                rtol=0, atol=1e-12 * max(1.0, np.abs(expected.item_grads).max()),
            )

    @pytest.mark.parametrize(
        "sizes", [(1, 1), (5, 5), (STAR_CHUNK, NEIGHBOUR_CHUNK)], ids=["one", "five", "defaults"]
    )
    def test_chunk_sizes_do_not_move_a_bit(self, sizes, monkeypatch):
        cfg, items = mixed_round(NEIGHBOUR_CHUNK + STAR_CHUNK + 5)
        users = list(range(cfg.split.n_users - 1, -1, -1))

        def run():
            gen = np.random.default_rng(4)
            start = EmbeddingTable(gen.normal(size=(cfg.split.n_users, items.shape[1])), items)
            states, streams = ClientStates.start(start), [substream(4, "c", 1, u) for u in users]
            updates = client_round(states, users, items, cfg, streams)
            return states, updates, [s.bit_generator.state for s in streams]

        their_states, their_updates, their_rngs = run()
        monkeypatch.setattr(client_module, "STAR_CHUNK", sizes[0])
        monkeypatch.setattr(client_module, "NEIGHBOUR_CHUNK", sizes[1])
        states, updates, rngs = run()
        assert rngs == their_rngs
        for ours, theirs in zip(updates, their_updates):
            assert ours.items.tobytes() == theirs.items.tobytes()
            assert ours.item_grads.tobytes() == theirs.item_grads.tobytes()
        for block in ("user_rows", "inferred", "losses"):
            assert getattr(states, block).tobytes() == getattr(their_states, block).tobytes()
        for ours, theirs in zip(states.overlays, their_states.overlays):
            assert ours.local_items.tobytes() == theirs.local_items.tobytes()
            assert ours.local_rows.tobytes() == theirs.local_rows.tobytes()

    def test_propagates_through_the_gram_kernel_only(self, monkeypatch):
        split = split_of([5, 6], n_items=12)
        exp = ExperimentConfig(model=ModelSection(layers=2, dim=3))
        neighbors = fold_of([[[1, int(split.train_items(0)[1])]], []], 12)
        cfg = ClientConfig(split, exp, neighbors, np.ones((2, 3)))
        calls = {"propagate": 0, "gram_readout": 0, "bpr_gradients": 0}
        for name in calls:
            original = getattr(gnn, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (gnn, client_module):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        items = np.random.default_rng(0).normal(size=(12, 3))
        states = ClientStates.start(EmbeddingTable(np.ones((2, 3)), items))
        client_round(states, [0], items, cfg, [substream(1, "c", 1, 0)])
        assert calls == {"propagate": 0, "gram_readout": 2, "bpr_gradients": 0}


class TestOverlayPolicy:
    """A client's overlay steps only the rows of this round's local graph, its
    claimed and its shared items: a negative's step goes only into the upload,
    and a held row outside the graph keeps its bits."""

    def test_only_the_local_graph_is_stepped(self):
        split = split_of([6, 5, 7], n_items=30)
        own = split.train_items(0)
        # user 0 shares its first two items with handles 1 and 2
        fold = fold_of([[[1, int(own[0])], [2, int(own[0])], [2, int(own[1])]], [], []], 30)
        exp = ExperimentConfig(
            model=ModelSection(layers=2, dim=4),
            train=TrainSection(eta=0.1, batch_size=8),
            privacy=PrivacySection(pseudo_items_p=2, mask_ratio=0.4),
        )
        gen = np.random.default_rng(7)
        cfg = ClientConfig(split, exp, fold, gen.normal(size=(3, 4)))
        items = gen.normal(size=(30, 4))
        states = ClientStates.start(EmbeddingTable(gen.normal(size=(3, 4)), items))
        replay = substream(0, "c", 1, 0)
        cg = build_client_graph(split, 0, exp.privacy, replay)
        negatives = np.unique(sample_bpr_triples(cg, 8, replay)[:, 2])
        graph, shared = local_graph_ids(cg, fold), own[:2]
        assert set(shared.tolist()) & cg.masked_items  # in the graph only as shared
        # held rows: a negative of this round and an item in none of its sets
        outside = np.setdiff1d(np.arange(30), np.union1d(graph, negatives))
        held = np.array([negatives[0], outside[0]])
        held_rows = gen.normal(size=(2, 4))
        states.overlays[0] = Overlay(held, held_rows.copy())

        update = update_one(states, 0, items, cfg, substream(0, "c", 1, 0))
        assert set(negatives.tolist()) <= set(update.items.tolist())
        overlay = states.overlays[0]
        assert set(overlay.local_items.tolist()) - set(held.tolist()) <= set(graph.tolist())
        assert not set(negatives[1:].tolist()) & set(overlay.local_items.tolist())
        rows = dict(zip(overlay.local_items.tolist(), overlay.local_rows))
        for item in np.union1d(cg.pseudo_ids, shared).tolist():
            assert not np.array_equal(rows[item], items[item])
        for item, row in zip(held.tolist(), held_rows):
            assert rows[item].tobytes() == row.tobytes()


class TestFinishingStep:
    """``client_update`` against ``helpers.loop_client_update``, the step with
    the set operations and numpy calls it replaced, to the bit: states,
    overlays, uploads and the generator left behind."""

    @pytest.mark.parametrize(
        "privacy",
        [
            PrivacySection(enabled=True, pseudo_items_p=3, mask_ratio=0.3),
            PrivacySection(enabled=False, pseudo_items_p=3, mask_ratio=0.3),
            PrivacySection(enabled=True, pseudo_items_p=0, mask_ratio=0.0),
            PrivacySection(enabled=True, pseudo_items_p=4, mask_ratio=0.0, laplace_lambda=0.0),
        ],
        ids=["private", "ldp-off", "no-pseudo-no-mask", "clip-only"],
    )
    @pytest.mark.parametrize("pseudo_in_support", [True, False])
    def test_equals_the_set_operation_step(self, privacy, pseudo_in_support):
        n_items, dim = 30, 4
        split = split_of([3, 9, 1, 6, 12, 4], n_items)
        cfg = ClientConfig(split, ExperimentConfig(train=TrainSection(eta=0.3), privacy=privacy))
        gen = np.random.default_rng(21)
        table = EmbeddingTable(*(gen.normal(size=(n, dim)) for n in (split.n_users, n_items)))
        ours, theirs = ClientStates.start(table), ClientStates.start(table)
        for user in range(1, split.n_users, 3):  # the others keep the empty overlay
            own = np.sort(gen.choice(n_items, size=int(gen.integers(1, n_items)), replace=False))
            overlay = Overlay(own, gen.normal(size=(len(own), dim)))
            ours.overlays[user] = theirs.overlays[user] = overlay
        for user in range(split.n_users):
            cg = build_client_graph(split, user, privacy, substream(21, "g", user))
            support = set(cg.true_ids.tolist()) | set(gen.choice(n_items, size=4).tolist())
            pseudo = set(cg.pseudo_ids.tolist())
            support = support | pseudo if pseudo_in_support else support - pseudo
            items = np.array(sorted(support), dtype=np.int64)
            step = LocalStep(
                float(gen.random()), gen.normal(size=dim), gen.normal(size=dim),
                items, gen.normal(size=(len(items), dim)),
                np.isin(items, local_graph_ids(cg, None)),
            )
            a, b = substream(21, "c", user), substream(21, "c", user)
            got = client_update(ours, cg, step, cfg, a)
            want = loop_client_update(theirs, cg, step, cfg, b)
            assert got.items.tolist() == want.items.tolist() and got.data_count == want.data_count
            assert got.item_grads.tobytes() == want.item_grads.tobytes()
            assert a.bit_generator.state == b.bit_generator.state
            mine, ref = ours.overlays[user], theirs.overlays[user]
            assert mine.local_items.tolist() == ref.local_items.tolist()
            assert mine.local_rows.tobytes() == ref.local_rows.tobytes()
        for block in ("user_rows", "inferred", "losses"):
            assert getattr(ours, block).tobytes() == getattr(theirs, block).tobytes()
