"""Top-k pooling, rank dropout, random sampling: oracles and gradients."""

import numpy as np
import pytest

from localfocus import (ConfigError, PooledVectors, ShapeError, StateError,
                        Tensor, TkpConfig, gap_forward, gap_pool, gmp_forward,
                        gmp_pool, rbld_probabilities, tkp_backward,
                        tkp_forward, tkp_pool, topk_ascending)


def oracle_topk(flat, k):
    """Independent top-k: sort (value, index) pairs in plain Python and
    keep the k largest, preserving ascending order."""
    pairs = sorted(enumerate(flat), key=lambda p: (p[1], p[0]))
    return [idx for idx, _ in pairs[-k:]]


class TestConfig:
    def test_defaults(self):
        cfg = TkpConfig()
        assert (cfg.k, cfg.p_min, cfg.p_max) == (16, 0.1, 0.3)
        assert not cfg.training and cfg.rbld_enabled and cfg.rks_enabled

    def test_k_positive(self):
        with pytest.raises(ConfigError):
            TkpConfig(k=0)

    def test_dropout_band(self):
        with pytest.raises(ConfigError):
            TkpConfig(p_min=-0.1)
        with pytest.raises(ConfigError):
            TkpConfig(p_min=0.5, p_max=0.3)
        with pytest.raises(ConfigError):
            TkpConfig(p_min=0.1, p_max=1.0)
        TkpConfig(p_min=0.0, p_max=0.0)

    def test_k_larger_than_map(self):
        with pytest.raises(ConfigError):
            tkp_forward(np.zeros((2, 2, 2)), TkpConfig(k=5))


class TestRbldProbabilities:
    def test_linear_ramp_k16(self):
        p = rbld_probabilities(16, 0.1, 0.3)
        assert p[0] == pytest.approx(0.1)
        assert p[-1] == pytest.approx(0.3)
        assert p[8] == pytest.approx(0.1 + 0.2 * 8 / 15)  # ~0.20667
        np.testing.assert_allclose(np.diff(p), 0.2 / 15)

    def test_k1_degenerates_to_p_min(self):
        np.testing.assert_array_equal(rbld_probabilities(1, 0.1, 0.3), [0.1])


class TestTopK:
    def test_vector_layout_and_order(self):
        rng = np.random.default_rng(0)
        maps = rng.normal(size=(4, 3, 3))
        pooled = tkp_forward(maps, TkpConfig(k=3))
        assert pooled.vector.shape == (12,)
        assert pooled.vector_star is None and pooled.star_indices is None
        assert pooled.dropped is None
        slices = pooled.vector.reshape(4, 3)
        for c in range(4):
            assert np.all(np.diff(slices[c]) >= 0)
            np.testing.assert_array_equal(np.sort(maps[c].ravel())[-3:], slices[c])

    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_matches_oracle_with_ties(self, k):
        rng = np.random.default_rng(1)
        for _ in range(50):
            # Heavy ties: values drawn from 4 distinct levels.
            maps = rng.choice([0.0, 0.25, 0.5, 1.0], size=(3, 5, 5))
            pooled = tkp_forward(maps, TkpConfig(k=k))
            for c in range(3):
                flat = maps[c].ravel()
                expect = oracle_topk(flat.tolist(), k)
                np.testing.assert_array_equal(pooled.selected_indices[c], expect)
                np.testing.assert_array_equal(pooled.vector.reshape(3, k)[c], flat[expect])

    def test_k_equals_map_size_keeps_everything_sorted(self):
        rng = np.random.default_rng(2)
        maps = rng.normal(size=(2, 4, 4))
        pooled = tkp_forward(maps, TkpConfig(k=16))
        for c in range(2):
            np.testing.assert_array_equal(pooled.vector.reshape(2, 16)[c],
                                          np.sort(maps[c].ravel()))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        maps = rng.normal(size=(6, 4, 4))
        perm = rng.permutation(6)
        a = tkp_forward(maps, TkpConfig(k=5)).vector.reshape(6, 5)
        b = tkp_forward(maps[perm], TkpConfig(k=5)).vector.reshape(6, 5)
        np.testing.assert_array_equal(b, a[perm])

    def test_inference_ignores_rng_and_flags(self):
        rng = np.random.default_rng(4)
        maps = rng.normal(size=(3, 4, 4))
        base = tkp_forward(maps, TkpConfig(k=4))
        for cfg in (TkpConfig(k=4, rbld_enabled=False, rks_enabled=False),
                    TkpConfig(k=4, p_min=0.0, p_max=0.9)):
            np.testing.assert_array_equal(tkp_forward(maps, cfg, rng).vector, base.vector)

    def test_training_requires_rng(self):
        with pytest.raises(ConfigError):
            tkp_forward(np.zeros((1, 3, 3)), TkpConfig(k=2, training=True))

    def test_rank_ordering_beats_magnitude(self):
        # Negative maps still pool their largest (least negative) values.
        maps = -np.arange(9.0).reshape(1, 3, 3)
        pooled = tkp_forward(maps, TkpConfig(k=2))
        np.testing.assert_array_equal(pooled.vector, [-1.0, 0.0])


class TestRbld:
    def test_zeroed_iff_dropped_and_no_rescale(self):
        rng = np.random.default_rng(5)
        maps = rng.uniform(0.5, 1.5, size=(8, 5, 5))  # no natural zeros
        cfg = TkpConfig(k=6, training=True, rks_enabled=False)
        pooled = tkp_forward(maps, cfg, rng)
        kept = tkp_forward(maps, TkpConfig(k=6))
        vec = pooled.vector.reshape(8, 6)
        ref = kept.vector.reshape(8, 6)
        assert pooled.dropped is not None
        for c in range(8):
            for i in range(6):
                if pooled.dropped[c, i]:
                    assert vec[c, i] == 0.0
                else:
                    assert vec[c, i] == ref[c, i]  # survivors untouched

    def test_drop_rate_tracks_rank(self):
        # Coarse check (the acceptance suite does the precise one):
        # rank k should drop roughly 3x more often than rank 1.
        rng = np.random.default_rng(6)
        maps = rng.uniform(0.5, 1.5, size=(16, 4, 4))
        cfg = TkpConfig(k=8, training=True, rks_enabled=False)
        drops = np.zeros(8)
        trials = 150
        for _ in range(trials):
            pooled = tkp_forward(maps, cfg, rng)
            drops += pooled.dropped.sum(axis=0)
        rates = drops / (trials * 16)
        assert abs(rates[0] - 0.1) < 0.04
        assert abs(rates[-1] - 0.3) < 0.05
        assert rates[-1] > rates[0]

    def test_channel_streams_do_not_interact(self):
        # With RKS off, the dropout pattern must be what it would be with
        # RKS on: the dropout uniforms are drawn before the RKS keys.
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        maps = np.random.default_rng(8).uniform(0.5, 1.5, size=(4, 4, 4))
        with_rks = tkp_forward(maps, TkpConfig(k=4, training=True), rng_a)
        without = tkp_forward(maps, TkpConfig(k=4, training=True, rks_enabled=False), rng_b)
        np.testing.assert_array_equal(with_rks.dropped, without.dropped)


class TestRks:
    def test_star_sorted_and_within_map(self):
        rng = np.random.default_rng(9)
        maps = rng.normal(size=(4, 5, 5))
        cfg = TkpConfig(k=6, training=True, rbld_enabled=False)
        pooled = tkp_forward(maps, cfg, rng)
        assert pooled.vector_star is not None
        star = pooled.vector_star.reshape(4, 6)
        for c in range(4):
            idx = pooled.star_indices[c]
            assert len(set(idx.tolist())) == 6  # without replacement
            np.testing.assert_array_equal(star[c], maps[c].ravel()[idx])
            assert np.all(np.diff(star[c]) >= 0)

    def test_marginal_selection_roughly_uniform(self):
        rng = np.random.default_rng(10)
        maps = np.random.default_rng(11).normal(size=(2, 3, 3))
        cfg = TkpConfig(k=3, training=True, rbld_enabled=False)
        counts = np.zeros(9)
        trials = 400
        for _ in range(trials):
            pooled = tkp_forward(maps, cfg, rng)
            for c in range(2):
                counts[pooled.star_indices[c]] += 1
        rates = counts / (trials * 2)
        np.testing.assert_allclose(rates, 3 / 9, atol=0.06)


class TestBackward:
    def test_routes_to_selected_positions(self):
        maps = np.arange(9.0).reshape(1, 3, 3)
        pooled = tkp_forward(maps, TkpConfig(k=2))
        grad = tkp_backward(pooled, np.array([10.0, 20.0]))
        expect = np.zeros((1, 3, 3))
        expect[0, 2, 1] = 10.0  # value 7, rank 1 of top-2
        expect[0, 2, 2] = 20.0  # value 8, rank 2
        np.testing.assert_array_equal(grad, expect)

    def test_dropped_entries_block_gradient(self):
        rng = np.random.default_rng(12)
        maps = rng.uniform(0.5, 1.5, size=(4, 4, 4))
        cfg = TkpConfig(k=5, training=True, rks_enabled=False, p_min=0.5, p_max=0.9)
        pooled = tkp_forward(maps, cfg, rng)
        assert pooled.dropped.any()
        grad = tkp_backward(pooled, np.ones(20))
        flat = grad.reshape(4, 16)
        for c in range(4):
            for i, idx in enumerate(pooled.selected_indices[c]):
                assert flat[c, idx] == (0.0 if pooled.dropped[c, i] else 1.0)

    def test_star_and_vec_overlap_accumulates(self):
        rng = np.random.default_rng(13)
        maps = rng.normal(size=(2, 3, 3))
        cfg = TkpConfig(k=9, training=True, rbld_enabled=False)  # full overlap
        pooled = tkp_forward(maps, cfg, rng)
        grad = tkp_backward(pooled, np.ones(18), np.ones(18))
        np.testing.assert_allclose(grad, np.full((2, 3, 3), 2.0))

    def test_star_without_record_raises(self):
        pooled = tkp_forward(np.zeros((1, 2, 2)), TkpConfig(k=2))
        with pytest.raises(StateError):
            tkp_backward(pooled, np.ones(2), np.ones(2))

    def test_pooling_has_no_parameters(self):
        # Everything flowing out of pooling is selection + reordering of the
        # input; backward conserves the upstream mass it was given.
        rng = np.random.default_rng(14)
        maps = rng.normal(size=(3, 4, 4))
        pooled = tkp_forward(maps, TkpConfig(k=4))
        up = rng.normal(size=12)
        grad = tkp_backward(pooled, up)
        assert grad.sum() == pytest.approx(up.sum(), rel=1e-12)

    def test_finite_difference_through_selection(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            # Well-separated values so FD never flips the selection.
            maps0 = rng.permuted(np.linspace(0.0, 1.0, 32)).reshape(2, 4, 4)
            up = rng.normal(size=6)
            cfg = TkpConfig(k=3)

            def f(arr):
                return float((tkp_forward(arr, cfg).vector * up).sum())

            pooled = tkp_forward(maps0, cfg)
            analytic = tkp_backward(pooled, up)
            from localfocus.gradcheck import check_gradient
            assert check_gradient(f, maps0, analytic) < 1e-4


class TestGraphWrappers:
    def test_tkp_pool_matches_tkp_forward(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(3, 4, 4, 4))
        vec, star, records = tkp_pool(Tensor(xs), TkpConfig(k=3))
        assert star is None
        for i in range(3):
            np.testing.assert_array_equal(vec.data[i], tkp_forward(xs[i], TkpConfig(k=3)).vector)

    def test_tkp_pool_backward_matches_manual(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(2, 3, 4, 4))
        x = Tensor(xs, requires_grad=True)
        vec, star, records = tkp_pool(x, TkpConfig(k=4))
        up = rng.normal(size=vec.data.shape)
        vec.backward(up)
        manual = np.stack([tkp_backward(r, up[i]) for i, r in enumerate(records)])
        np.testing.assert_array_equal(x.grad, manual)

    def test_tkp_forward_is_record_zero_of_tkp_pool(self):
        maps = np.random.default_rng(21).normal(size=(5, 4, 4))
        cfg = TkpConfig(k=4, training=True)
        single = tkp_forward(maps, cfg, np.random.default_rng(3))
        vec, star, records = tkp_pool(Tensor(maps[None]), cfg, np.random.default_rng(3))
        for name in ("vector", "vector_star", "selected_indices", "star_indices", "dropped"):
            np.testing.assert_array_equal(getattr(records[0], name), getattr(single, name))
        assert records[0].map_shape == single.map_shape
        np.testing.assert_array_equal(vec.data[0], single.vector)
        np.testing.assert_array_equal(star.data[0], single.vector_star)

    def test_training_batch_dropout_and_random_sample(self):
        rng = np.random.default_rng(22)
        xs = rng.choice([0.5, 0.75, 1.0, 1.25], size=(6, 5, 4, 4))  # ties, no zeros
        cfg = TkpConfig(k=5, training=True, p_min=0.3, p_max=0.6)
        x = Tensor(xs, requires_grad=True)
        vec, star, records = tkp_pool(x, cfg, rng)
        assert vec.data.shape == star.data.shape == (6, 25) and len(records) == 6
        topk = tkp_pool(Tensor(xs), TkpConfig(k=5))[0].data.reshape(6, 5, 5)
        dropped = np.stack([r.dropped for r in records])
        assert dropped.any() and not dropped.all()
        np.testing.assert_array_equal(vec.data.reshape(6, 5, 5), np.where(dropped, 0.0, topk))
        for i, r in enumerate(records):
            flat = xs[i].reshape(5, 16)
            for c in range(5):
                idx = r.star_indices[c].tolist()
                assert len(set(idx)) == 5
                assert idx == sorted(idx, key=lambda j: (flat[c, j], j))
                np.testing.assert_array_equal(star.data[i].reshape(5, 5)[c], flat[c, idx])
        up_vec, up_star = rng.normal(size=(6, 25)), rng.normal(size=(6, 25))
        (vec * Tensor(up_vec) + star * Tensor(up_star)).sum().backward()
        manual = np.stack([tkp_backward(r, up_vec[i], up_star[i]) for i, r in enumerate(records)])
        np.testing.assert_array_equal(x.grad, manual)

    def test_gap_values_and_grad(self):
        rng = np.random.default_rng(18)
        xs = rng.normal(size=(2, 3, 4, 4))
        for i in range(2):
            np.testing.assert_allclose(gap_forward(xs[i]), xs[i].mean(axis=(1, 2)))
        x = Tensor(xs, requires_grad=True)
        gap_pool(x).backward(np.ones((2, 3)))
        np.testing.assert_allclose(x.grad, np.full_like(xs, 1.0 / 16.0))

    def test_gmp_values_and_grad_first_max(self):
        xs = np.zeros((1, 1, 2, 2))
        xs[0, 0] = [[3.0, 3.0], [1.0, 0.0]]
        np.testing.assert_array_equal(gmp_forward(xs[0]), [3.0])
        x = Tensor(xs, requires_grad=True)
        gmp_pool(x).backward(np.ones((1, 1)))
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_rank_checks(self):
        with pytest.raises(ShapeError):
            tkp_forward(np.zeros((4, 4)), TkpConfig())
        with pytest.raises(ShapeError):
            gap_forward(np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            tkp_pool(Tensor(np.zeros((4, 4, 4))), TkpConfig(k=2))


class TestDeterminism:
    def test_same_seed_same_stochastic_output(self):
        maps = np.random.default_rng(19).normal(size=(4, 4, 4))
        cfg = TkpConfig(k=4, training=True)
        a = tkp_forward(maps, cfg, np.random.default_rng(42))
        b = tkp_forward(maps, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a.vector, b.vector)
        np.testing.assert_array_equal(a.vector_star, b.vector_star)
        np.testing.assert_array_equal(a.dropped, b.dropped)

    def test_different_seeds_differ(self):
        maps = np.random.default_rng(20).uniform(0.5, 1.5, size=(8, 5, 5))
        cfg = TkpConfig(k=8, training=True)
        a = tkp_forward(maps, cfg, np.random.default_rng(1))
        b = tkp_forward(maps, cfg, np.random.default_rng(2))
        assert not np.array_equal(a.dropped, b.dropped) or not np.array_equal(
            a.star_indices, b.star_indices)
