import numpy as np
import pytest

from fedrec.config import PrivacySection
from fedrec.data import (
    InteractionDataset,
    build_client_graph,
    density,
    leave_one_out_split,
    load_interactions,
    write_interactions,
)
from fedrec.errors import DataError
from fedrec.rng import substream


def write_lines(path, rows):
    path.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows))
    return path


class TestLoadInteractions:
    def test_dedup_and_densify(self, tmp_path):
        path = write_lines(tmp_path / "r.tsv", [(7, 42, 1), (7, 42, 5), (9, 42, 2)])
        ds = load_interactions(path)
        assert (ds.n_users, ds.n_items) == (2, 1)
        assert ds.interactions.tolist() == [[0, 0, 1], [1, 0, 2]]

    def test_duplicate_keeps_earliest_timestamp_in_any_order(self, tmp_path):
        path = write_lines(tmp_path / "r.tsv", [(3, 4, 9), (3, 4, 2)])
        ds = load_interactions(path)
        assert ds.interactions.tolist() == [[0, 0, 2]]

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataError, match="empty dataset"):
            load_interactions(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# header\n\n1\t2\t3\n")
        ds = load_interactions(path)
        assert len(ds.interactions) == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t3\nnot-a-row\n")
        with pytest.raises(DataError, match=":2"):
            load_interactions(path)

    def test_negative_field_rejected(self, tmp_path):
        path = write_lines(tmp_path / "r.tsv", [(1, -2, 3)])
        with pytest.raises(DataError, match=":1"):
            load_interactions(path)

    def test_synthetic_counts_match_pair_set(self, tmp_path):
        # oracle: regenerate the unique pairs with an independent set
        gen = np.random.default_rng(99)
        rows = [
            (int(gen.integers(50)), int(gen.integers(30)), int(t))
            for t in range(400)
        ]
        seen = set()
        unique = []
        for u, i, t in rows:
            if (u, i) not in seen:
                seen.add((u, i))
                unique.append((u, i))
        # make sure every id appears so the dense ranges are 50 and 30
        rows += [(u, 0, 1000 + u) for u in range(50)]
        rows += [(0, i, 2000 + i) for i in range(30)]
        expected_pairs = len(
            {(u, i) for u, i, _ in rows}
        )
        ds = load_interactions(write_lines(tmp_path / "r.tsv", rows))
        assert (ds.n_users, ds.n_items) == (50, 30)
        assert len(ds.interactions) == expected_pairs

    def test_reload_of_serialized_dataset_is_idempotent(self, tmp_path, small_dataset):
        first = tmp_path / "a.tsv"
        write_interactions(small_dataset, first)
        once = load_interactions(first)
        second = tmp_path / "b.tsv"
        write_interactions(once, second)
        twice = load_interactions(second)
        assert (twice.n_users, twice.n_items) == (once.n_users, once.n_items)
        np.testing.assert_array_equal(twice.interactions, once.interactions)

    def test_field_of_two_to_the_63_or_more_names_the_line(self, tmp_path):
        path = write_lines(tmp_path / "r.tsv", [(1, 2, 3), (1, 2**63, 4)])
        with pytest.raises(DataError, match=":2: value out of range"):
            load_interactions(path)
        path = write_lines(tmp_path / "r.tsv", [(2**70, 2, 3)])
        with pytest.raises(DataError, match=":1: value out of range"):
            load_interactions(path)
        path = write_lines(tmp_path / "r.tsv", [(2**63 - 1, 2, 2**63 - 1)])
        assert load_interactions(path).interactions.tolist() == [[0, 0, 2**63 - 1]]

    def test_matches_a_per_line_dict_oracle(self, tmp_path):
        # the loop the loader replaced: densify in first-appearance order,
        # keep each pair's earliest timestamp at its first position
        gen = np.random.default_rng(5)
        rows = [
            (int(gen.choice([9, 2**40, 3, 0])), int(gen.integers(6)) * 101,
             int(gen.integers(4)))
            for _ in range(300)
        ]
        user_ids, item_ids, position, expected = {}, {}, {}, []
        for raw_user, raw_item, ts in rows:
            key = (user_ids.setdefault(raw_user, len(user_ids)),
                   item_ids.setdefault(raw_item, len(item_ids)))
            if key not in position:
                position[key] = len(expected)
                expected.append([*key, ts])
            expected[position[key]][2] = min(expected[position[key]][2], ts)
        ds = load_interactions(write_lines(tmp_path / "r.tsv", rows))
        assert (ds.n_users, ds.n_items) == (len(user_ids), len(item_ids))
        assert ds.interactions.tolist() == expected


class TestDensity:
    def test_yelp_statistics(self):
        ds = InteractionDataset(
            5224, 7741, np.zeros((123024, 3))
        )
        assert density(ds) == pytest.approx(0.003042, abs=1e-6)

    def test_single_cell(self):
        ds = InteractionDataset(1, 1, [(0, 0, 0)])
        assert density(ds) == 1.0

    def test_gowalla_statistics(self):
        ds = InteractionDataset(
            12022, 40593, np.zeros((374669, 3))
        )
        assert density(ds) == pytest.approx(0.000768, abs=1e-6)

    def test_kindle_statistics(self):
        ds = InteractionDataset(
            7650, 9173, np.zeros((137124, 3))
        )
        assert density(ds) == pytest.approx(0.001954, abs=1e-6)


class TestLeaveOneOutSplit:
    def test_three_interactions(self):
        ds = InteractionDataset(1, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
        split = leave_one_out_split(ds)
        assert split.train_items(0).tolist() == [0]
        assert split.validation[0] == 1
        assert split.test[0] == 2

    def test_too_few_interactions_names_the_user(self):
        ds = InteractionDataset(1, 2, [(0, 0, 1), (0, 1, 2)])
        with pytest.raises(DataError, match="user 0"):
            leave_one_out_split(ds)

    def test_tied_timestamps_break_by_file_order(self):
        ds = InteractionDataset(1, 3, [(0, 0, 5), (0, 1, 5), (0, 2, 5)])
        split = leave_one_out_split(ds)
        assert split.train_items(0).tolist() == [0]
        assert split.validation[0] == 1
        assert split.test[0] == 2

    def test_repeated_pair_appears_once_in_the_training_set(self):
        rows = [(0, 1, 0), (0, 2, 1), (0, 1, 2), (0, 3, 3), (0, 0, 4)]
        split = leave_one_out_split(InteractionDataset(1, 4, rows))
        assert split.train_items(0).tolist() == [1, 2]
        assert (split.validation[0], split.test[0]) == (3, 0)

    def test_partition_and_ordering(self, small_dataset):
        split = leave_one_out_split(small_dataset)
        by_user = {}
        for user, item, ts in small_dataset.interactions.tolist():
            by_user.setdefault(user, []).append((item, ts))
        for user, rows in by_user.items():
            items = {item for item, _ in rows}
            train = split.train_items(user).tolist()
            assert train == sorted(set(train))
            held = {split.validation[user], split.test[user]}
            assert set(train) | held == items
            assert split.validation[user] != split.test[user]
            assert len(train) + 2 == len(rows)
            ts = dict(rows)
            test_ts = ts[split.test[user]]
            val_ts = ts[split.validation[user]]
            assert test_ts >= val_ts
            assert all(val_ts >= ts[i] for i in train)


class TestBuildClientGraph:
    def test_identity_config(self, small_split):
        privacy = PrivacySection(mask_ratio=0.0, pseudo_items_p=0)
        cg = build_client_graph(small_split, 3, privacy, substream(0, "x"))
        assert cg.true_items == set(small_split.train_items(3).tolist())
        assert cg.pseudo_items == frozenset()
        assert cg.masked_items == frozenset()
        np.testing.assert_array_equal(cg.true_ids, small_split.train_items(3))

    def test_mask_half_of_four(self, small_split):
        user = 0
        assert len(small_split.train_items(user)) == 4
        privacy = PrivacySection(mask_ratio=0.5, pseudo_items_p=0)
        cg = build_client_graph(small_split, user, privacy, substream(0, "m"))
        assert len(cg.masked_items) == 2
        assert len(cg.true_items) == 2
        assert cg.true_items | cg.masked_items == set(
            small_split.train_items(user).tolist()
        )
        assert not cg.true_items & cg.masked_items

    def test_pseudo_items_land_outside_the_train_set(self):
        ds = InteractionDataset(1, 10, [(0, i, i) for i in range(4)])
        split = leave_one_out_split(ds)
        privacy = PrivacySection(mask_ratio=0.0, pseudo_items_p=3)
        cg = build_client_graph(split, 0, privacy, substream(0, "p"))
        non_interacted = set(range(10)) - set(range(4))
        assert len(cg.pseudo_items) == 3
        assert cg.pseudo_items <= non_interacted
        # pseudo items avoid the full interaction set, held-out included
        assert not cg.pseudo_items & set(split.train_items(0).tolist())

    def test_fixed_seed_reproduces_the_graph(self, small_split):
        privacy = PrivacySection(mask_ratio=0.25, pseudo_items_p=2)
        a = build_client_graph(small_split, 5, privacy, substream(9, "c", 5))
        b = build_client_graph(small_split, 5, privacy, substream(9, "c", 5))
        assert (a.true_items, a.pseudo_items, a.masked_items) == (
            b.true_items,
            b.pseudo_items,
            b.masked_items,
        )
        for field in ("true_ids", "pseudo_ids", "masked_ids"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_unknown_user_rejected(self, small_split):
        privacy = PrivacySection()
        with pytest.raises(DataError, match="999"):
            build_client_graph(small_split, 999, privacy, substream(0, "u"))
