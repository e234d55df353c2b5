import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.gnn import GradientUpdate
from fedrec.privacy import (
    LdpConfig,
    PrivacyConfig,
    complement_ids,
    laplace_noise,
    ldp_randomize,
    mask_interacted_items,
    privacy_budget,
    pseudo_item_gradients,
    randomize_vector,
    sample_pseudo_items,
)
from fedrec.rng import substream


def ids(*items):
    return np.array(items, dtype=np.int64)


class TestSamplePseudoItems:
    def test_zero_p(self, rng):
        assert sample_pseudo_items(10, ids(1, 2), 0, rng).tolist() == []

    def test_full_catalog_leaves_nothing_to_sample(self, rng):
        assert sample_pseudo_items(4, ids(0, 1, 2, 3), 5, rng).tolist() == []

    def test_three_distinct_non_interacted(self, rng):
        picked = sample_pseudo_items(10, ids(0, 1, 2, 3), 3, rng).tolist()
        assert len(set(picked)) == 3 and picked == sorted(picked)
        assert set(picked) <= set(range(4, 10))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 6))
    def test_never_intersects_true_items(self, seed, catalog, p):
        rng = np.random.default_rng(seed)
        true_items = np.unique(rng.integers(0, catalog, size=catalog // 2))
        picked = sample_pseudo_items(catalog, true_items, p, np.random.default_rng(seed))
        assert not set(picked.tolist()) & set(true_items.tolist())

    def test_draws_equal_a_choice_over_the_sorted_complement(self):
        # the set-based sampler drew from the sorted complement
        picked = sample_pseudo_items(20, ids(1, 4, 9), 5, substream(4, "p"))
        pool = sorted(set(range(20)) - {1, 4, 9})
        expected = substream(4, "p").choice(pool, 5, replace=False)
        assert picked.tolist() == sorted(expected.tolist())


# (catalogue size, blocked ids): none blocked, both ends blocked, one id free
COMPLEMENTS = [(9, []), (10, [0, 3, 4, 9]), (6, [0, 1, 2, 4, 5])]


class TestComplementIds:
    @pytest.mark.parametrize("n_items,blocked", COMPLEMENTS)
    @pytest.mark.parametrize("replace", [True, False])
    def test_draws_equal_a_choice_over_the_setdiff(self, n_items, blocked, replace):
        blocked = ids(*blocked)
        free = np.setdiff1d(np.arange(n_items), blocked)
        size = 7 if replace else len(free)
        for seed in range(20):
            pos = np.random.default_rng(seed).choice(len(free), size, replace=replace)
            expected = np.random.default_rng(seed).choice(free, size, replace=replace)
            assert complement_ids(blocked, pos).tolist() == expected.tolist()


class TestMaskInteractedItems:
    def test_zero_ratio(self, rng):
        kept, masked = mask_interacted_items(ids(3, 5, 9), 0.0, rng)
        assert kept.tolist() == [3, 5, 9]
        assert masked.tolist() == []

    def test_half_of_four(self, rng):
        items = ids(1, 2, 3, 4)
        kept, masked = mask_interacted_items(items, 0.5, rng)
        assert len(masked) == 2
        assert sorted(kept.tolist() + masked.tolist()) == items.tolist()
        assert kept.tolist() == sorted(kept.tolist())
        assert masked.tolist() == sorted(masked.tolist())

    def test_floor_keeps_a_single_item(self, rng):
        kept, masked = mask_interacted_items(ids(7), 0.9, rng)
        assert kept.tolist() == [7]
        assert masked.tolist() == []

    def test_draws_equal_a_choice_over_the_sorted_list(self):
        # the set-based sampler drew from sorted(true_items)
        items = ids(2, 5, 8, 13, 21, 34)
        _, masked = mask_interacted_items(items, 0.5, substream(4, "m"))
        expected = substream(4, "m").choice(sorted(items.tolist()), 3, replace=False)
        assert masked.tolist() == sorted(expected.tolist())


def update_of(entries):
    return GradientUpdate([0], [np.asarray(entries, float)], data_count=3)


class TestLdpRandomize:
    def test_pure_clip(self, rng):
        cfg = LdpConfig(1.0, 0.0)
        out = ldp_randomize(update_of([0.5, -2.0]), cfg, rng)
        np.testing.assert_array_equal(out.item_grads[0], [0.5, -1.0])
        assert out.data_count == 3

    def test_identity_inside_the_clip_range(self, rng):
        cfg = LdpConfig(1.0, 0.0)
        out = ldp_randomize(update_of([0.4, -0.9]), cfg, rng)
        np.testing.assert_array_equal(out.item_grads[0], [0.4, -0.9])

    def test_disabled_config_passes_through(self, rng):
        cfg = LdpConfig(1.0, 5.0, enabled=False)
        upd = update_of([3.0, -3.0])
        assert ldp_randomize(upd, cfg, rng) is upd

    def test_clipping_is_idempotent(self, rng):
        cfg = LdpConfig(0.7, 0.0)
        once = ldp_randomize(update_of([2.0, -0.1, 0.9]), cfg, rng)
        twice = ldp_randomize(once, cfg, rng)
        np.testing.assert_array_equal(once.item_grads[0], twice.item_grads[0])

    def test_post_clip_bound(self, rng):
        cfg = LdpConfig(0.25, 0.0)
        out = ldp_randomize(update_of(np.linspace(-3, 3, 101)), cfg, rng)
        assert np.all(np.abs(out.item_grads[0]) <= 0.25)

    def test_noise_moments(self):
        # 1e5 zero entries, delta=1, lambda=0.5: mean near 0, E|x| near lambda
        cfg = LdpConfig(1.0, 0.5)
        upd = GradientUpdate([0], np.zeros((1, 100_000)), 1)
        out = ldp_randomize(upd, cfg, substream(2024, "ldp"))
        noise = out.item_grads[0]
        assert abs(noise.mean()) <= 0.01
        assert abs(np.abs(noise).mean() - 0.5) <= 0.05 * 0.5

    def test_noise_is_unbiased_around_the_clipped_value(self):
        cfg = LdpConfig(1.0, 0.3)
        n = 200_000
        upd = GradientUpdate([0], np.full((1, n), 0.8), 1)
        out = ldp_randomize(upd, cfg, substream(5, "unbiased"))
        tolerance = 3 * 0.3 / np.sqrt(n)
        assert abs(out.item_grads[0].mean() - 0.8) <= tolerance

    def test_block_equals_row_by_row_in_id_order(self):
        cfg = LdpConfig(0.5, 0.3)
        rows = substream(1, "ldp-rows").normal(0.0, 1.0, (5, 4))
        update = GradientUpdate([2, 3, 7, 8, 11], rows, 4)
        out = ldp_randomize(update, cfg, substream(7, "ldp"))
        stream = substream(7, "ldp")
        expected = [randomize_vector(row, cfg, stream) for row in rows]
        np.testing.assert_array_equal(out.item_grads, expected)
        np.testing.assert_array_equal(out.items, [2, 3, 7, 8, 11])
        assert out.data_count == 4


class TestPrivacyBudget:
    def test_example_values(self):
        assert privacy_budget(LdpConfig(0.1, 0.2)) == 1.0
        assert privacy_budget(LdpConfig(0.1, 0.4)) == 0.5

    def test_stronger_noise_means_smaller_budget(self):
        assert privacy_budget(LdpConfig(0.1, 0.4)) < privacy_budget(LdpConfig(0.1, 0.2))

    def test_zero_noise_is_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            privacy_budget(LdpConfig(0.1, 0.0))


class TestPseudoItemGradients:
    def test_no_pseudo_items(self, rng):
        assert pseudo_item_gradients(frozenset(), np.ones((1, 3)), rng).shape == (0, 3)

    def test_zero_real_gradients_make_zero_decoys(self, rng):
        decoys = pseudo_item_gradients({5, 6}, np.zeros((2, 4)), rng)
        np.testing.assert_array_equal(decoys, np.zeros((2, 4)))

    def test_block_equals_one_draw_per_id_in_ascending_order(self):
        real = substream(2, "real").normal(0.0, 0.4, (6, 3))
        std = float(real.std())
        decoys = pseudo_item_gradients({9, 2, 5}, real, substream(4, "decoy"))
        stream = substream(4, "decoy")
        expected = [stream.normal(0.0, std, 3) for _ in sorted({9, 2, 5})]
        np.testing.assert_array_equal(decoys, expected)

    def test_decoy_spread_matches_real_spread(self):
        gen = np.random.default_rng(3)
        real = gen.normal(0.0, 0.7, (40, 8))
        pool = real.ravel()
        decoys = pseudo_item_gradients(
            set(range(100, 100 + 1250)), real, substream(11, "decoy")
        )
        sample = decoys.ravel()
        assert len(sample) == 10_000
        assert abs(sample.std() - pool.std()) <= 0.05 * pool.std()

    def test_requires_real_gradients(self, rng):
        with pytest.raises(ValueError, match="real item gradients"):
            pseudo_item_gradients({1}, np.zeros((0, 3)), rng)


class TestConfigValidation:
    def test_ldp_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LdpConfig(0.0, 0.1)
        with pytest.raises(ValueError):
            LdpConfig(0.1, -0.1)

    def test_privacy_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrivacyConfig(mask_ratio=1.0)
        with pytest.raises(ValueError):
            PrivacyConfig(pseudo_items_p=-1)


def test_laplace_inverse_cdf_is_seed_stable():
    a = laplace_noise(substream(1, "lap"), 0.4, 16)
    b = laplace_noise(substream(1, "lap"), 0.4, 16)
    np.testing.assert_array_equal(a, b)
    assert np.isfinite(a).all()
