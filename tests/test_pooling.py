"""Top-k pooling, rank dropout, random sampling: oracles and gradients."""

import numpy as np
import pytest

from localfocus import ConfigError, ShapeError, Tensor, TkpConfig, gap_pool, gmp_pool, tkp_pool
from localfocus.pooling import rbld_probabilities


def oracle_topk(flat, k):
    """Independent top-k: sort (value, index) pairs in plain Python and
    keep the k largest, preserving ascending order."""
    pairs = sorted(enumerate(flat), key=lambda p: (p[1], p[0]))
    return [idx for idx, _ in pairs[-k:]]


def pool(maps, cfg, rng=None):
    """Pool one CxHxW stack as a batch of one: (top-k vector, random-sample
    vector or None, selection record)."""
    vec, star, record = tkp_pool(Tensor(maps[None]), cfg, rng)
    return vec.data[0], None if star is None else star.data[0], record


def manual_grad(shape, record, up_vec, up_star=None):
    """Scatter oracle in plain loops: each upstream entry goes to the
    position its vector entry was read from; dropped entries pass nothing."""
    rows, k = record.selected_indices.shape
    grad = np.zeros((rows, shape[-2] * shape[-1]))
    up_vec = np.reshape(up_vec, (rows, k))
    for r in range(rows):
        for i in range(k):
            if record.dropped is None or not record.dropped[r, i]:
                grad[r, record.selected_indices[r, i]] += up_vec[r, i]
            if up_star is not None:
                grad[r, record.star_indices[r, i]] += np.reshape(up_star, (rows, k))[r, i]
    return grad.reshape(shape)


def pool_grad(maps, cfg, up_vec, up_star=None, rng=None):
    """Gradient on one CxHxW stack from upstream gradients of its vectors,
    plus the selection record."""
    x = Tensor(maps[None], requires_grad=True)
    vec, star, record = tkp_pool(x, cfg, rng)
    (vec * Tensor(np.reshape(up_vec, vec.shape))).sum().backward()
    if up_star is not None:
        (star * Tensor(np.reshape(up_star, star.shape))).sum().backward()
    return x.grad[0], record


class TestConfig:
    def test_defaults(self):
        cfg = TkpConfig()
        assert (cfg.k, cfg.p_min, cfg.p_max) == (16, 0.1, 0.3)
        assert cfg.rbld_enabled and cfg.rks_enabled

    def test_k_positive(self):
        with pytest.raises(ConfigError):
            TkpConfig(k=0)

    def test_k_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="^tkp k must be an integer, got 2.5$"):
            TkpConfig(k=2.5)
        assert TkpConfig(k=np.int64(3)).k == 3

    @pytest.mark.parametrize("name", ["rbld_enabled", "rks_enabled"])
    def test_switches_must_be_bools(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be a bool, got 'false'$"):
            TkpConfig(**{name: "false"})
        with pytest.raises(ConfigError, match=f"^{name} must be a bool, got 0$"):
            TkpConfig(**{name: 0})
        assert not getattr(TkpConfig(**{name: np.bool_(False)}), name)

    @pytest.mark.parametrize("name", ["p_min", "p_max"])
    @pytest.mark.parametrize("value", ["0.1", True, float("nan")], ids=["str", "bool", "nan"])
    def test_band_ends_must_be_real_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite and >= 0, got {value!r}$"):
            TkpConfig(**{name: value})
        cfg = TkpConfig(p_min=np.float64(0.1), p_max=np.float32(0.25))
        assert (cfg.p_min, cfg.p_max) == (0.1, 0.25)

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
            pool(np.zeros((2, 2, 2)), TkpConfig(k=5))


class TestRbldProbabilities:
    def test_linear_ramp_k16(self):
        p = rbld_probabilities(16, 0.1, 0.3)
        assert p[0] == pytest.approx(0.1)
        assert p[-1] == pytest.approx(0.3)
        assert p[8] == pytest.approx(0.1 + 0.2 * 8 / 15)  # ~0.20667
        np.testing.assert_allclose(np.diff(p), 0.2 / 15)

    def test_k1_degenerates_to_p_min(self):
        np.testing.assert_array_equal(rbld_probabilities(1, 0.1, 0.3), [0.1])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("band", [(0.1, 0.3), (0.0, 0.5), (0.25, 0.25), (1e-3, 0.9)])
    def test_ramp_matches_the_branching_formula(self, k, band):
        # Reference: [p_min] at k == 1, else the ramp divided by k - 1; equal bytes.
        p_min, p_max = band
        expect = [p_min] if k == 1 else p_min + (p_max - p_min) * np.arange(k) / (k - 1)
        assert rbld_probabilities(k, p_min, p_max).tobytes() == np.asarray(expect).tobytes()


class TestTopK:
    def test_vector_layout_and_order(self):
        rng = np.random.default_rng(0)
        maps = rng.normal(size=(4, 3, 3))
        vector, star, pooled = pool(maps, TkpConfig(k=3))
        assert vector.shape == (12,)
        assert star is None and pooled.star_indices is None
        assert pooled.dropped is None
        slices = vector.reshape(4, 3)
        for c in range(4):
            assert np.all(np.diff(slices[c]) >= 0)
            np.testing.assert_array_equal(np.sort(maps[c].ravel())[-3:], slices[c])

    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_matches_oracle_with_ties(self, k):
        rng = np.random.default_rng(1)
        for _ in range(50):
            # Heavy ties: values drawn from 4 distinct levels.
            maps = rng.choice([0.0, 0.25, 0.5, 1.0], size=(3, 5, 5))
            vector, _, pooled = pool(maps, TkpConfig(k=k))
            for c in range(3):
                flat = maps[c].ravel()
                expect = oracle_topk(flat.tolist(), k)
                np.testing.assert_array_equal(pooled.selected_indices[c], expect)
                np.testing.assert_array_equal(vector.reshape(3, k)[c], flat[expect])

    def test_k_equals_map_size_keeps_everything_sorted(self):
        rng = np.random.default_rng(2)
        maps = rng.normal(size=(2, 4, 4))
        vector = pool(maps, TkpConfig(k=16))[0]
        for c in range(2):
            np.testing.assert_array_equal(vector.reshape(2, 16)[c],
                                          np.sort(maps[c].ravel()))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        maps = rng.normal(size=(6, 4, 4))
        perm = rng.permutation(6)
        a = pool(maps, TkpConfig(k=5))[0].reshape(6, 5)
        b = pool(maps[perm], TkpConfig(k=5))[0].reshape(6, 5)
        np.testing.assert_array_equal(b, a[perm])

    def test_inference_ignores_rng_and_flags(self):
        rng = np.random.default_rng(4)
        maps = rng.normal(size=(3, 4, 4))
        base = pool(maps, TkpConfig(k=4))[0]
        for cfg in (TkpConfig(k=4, rbld_enabled=False, rks_enabled=False),
                    TkpConfig(k=4, p_min=0.0, p_max=0.9)):
            # Without an rng no regularizer runs; with one, only enabled ones do.
            np.testing.assert_array_equal(pool(maps, cfg)[0], base)
        off = TkpConfig(k=4, rbld_enabled=False, rks_enabled=False)
        np.testing.assert_array_equal(pool(maps, off, rng)[0], base)

    def test_rank_ordering_beats_magnitude(self):
        # Negative maps still pool their largest (least negative) values.
        maps = -np.arange(9.0).reshape(1, 3, 3)
        np.testing.assert_array_equal(pool(maps, TkpConfig(k=2))[0], [-1.0, 0.0])


class TestRbld:
    def test_zeroed_iff_dropped_and_no_rescale(self):
        rng = np.random.default_rng(5)
        maps = rng.uniform(0.5, 1.5, size=(8, 5, 5))  # no natural zeros
        cfg = TkpConfig(k=6, rks_enabled=False)
        vector, _, pooled = pool(maps, cfg, rng)
        vec = vector.reshape(8, 6)
        ref = pool(maps, TkpConfig(k=6))[0].reshape(8, 6)
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
        cfg = TkpConfig(k=8, rks_enabled=False)
        drops = np.zeros(8)
        trials = 150
        for _ in range(trials):
            pooled = pool(maps, cfg, rng)[2]
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
        with_rks = pool(maps, TkpConfig(k=4), rng_a)[2]
        without = pool(maps, TkpConfig(k=4, rks_enabled=False), rng_b)[2]
        np.testing.assert_array_equal(with_rks.dropped, without.dropped)


class TestRks:
    def test_star_sorted_and_within_map(self):
        rng = np.random.default_rng(9)
        maps = rng.normal(size=(4, 5, 5))
        cfg = TkpConfig(k=6, rbld_enabled=False)
        _, vector_star, pooled = pool(maps, cfg, rng)
        assert vector_star is not None
        star = vector_star.reshape(4, 6)
        for c in range(4):
            idx = pooled.star_indices[c]
            assert len(set(idx.tolist())) == 6  # without replacement
            np.testing.assert_array_equal(star[c], maps[c].ravel()[idx])
            assert np.all(np.diff(star[c]) >= 0)

    def test_marginal_selection_roughly_uniform(self):
        rng = np.random.default_rng(10)
        maps = np.random.default_rng(11).normal(size=(2, 3, 3))
        cfg = TkpConfig(k=3, rbld_enabled=False)
        counts = np.zeros(9)
        trials = 400
        for _ in range(trials):
            pooled = pool(maps, cfg, rng)[2]
            for c in range(2):
                counts[pooled.star_indices[c]] += 1
        rates = counts / (trials * 2)
        np.testing.assert_allclose(rates, 3 / 9, atol=0.06)


def twin_star_indices(xs, k, seed, rbld):
    """Random-k oracle: a twin generator replays the draws, the (rows, k)
    dropout uniforms when RBLD is on, then the (rows, H*W) keys. Each row
    samples the cells of its k smallest keys and ranks them by (value,
    index), NaN last."""
    flat = xs.reshape(-1, xs.shape[-2] * xs.shape[-1])
    twin = np.random.default_rng(seed)
    if rbld:
        twin.random((len(flat), k))
    keys = twin.random(flat.shape)
    rows = []
    for row, key in zip(flat.tolist(), keys):
        sample = sorted(range(len(row)), key=lambda j: key[j])[:k]
        rows.append(sorted(sample, key=lambda j: (row[j] != row[j], 0.0 if row[j] != row[j] else row[j], j)))
    return np.array(rows)


class TestRksSample:
    """random-k keeps the exact sample and order of the twin-generator oracle."""

    @staticmethod
    def maps(kind):
        rng = np.random.default_rng(23)
        if kind == "constant":
            return np.full((2, 3, 4, 4), 0.5)
        xs = rng.choice([0.0, 0.25, 0.5, 1.0], size=(2, 3, 4, 4))
        if kind == "non-finite":
            xs[rng.random(xs.shape) < 0.3] = -np.inf
            xs[rng.random(xs.shape) < 0.2] = np.nan
        return xs

    @pytest.mark.parametrize("rbld", [True, False], ids=["rbld", "no-rbld"])
    @pytest.mark.parametrize("kind", ["constant", "four-level", "non-finite"])
    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_star_indices_match_the_twin_draw(self, kind, k, rbld):
        xs = self.maps(kind)
        for seed in range(5):
            cfg = TkpConfig(k=k, rbld_enabled=rbld)
            _, star, record = tkp_pool(Tensor(xs), cfg, np.random.default_rng(seed))
            expect = twin_star_indices(xs, k, seed, rbld)
            np.testing.assert_array_equal(record.star_indices, expect)
            np.testing.assert_array_equal(star.data.reshape(expect.shape),
                                          np.take_along_axis(xs.reshape(6, 16), expect, axis=1))


class TestBackward:
    def test_routes_to_selected_positions(self):
        maps = np.arange(9.0).reshape(1, 3, 3)
        grad, _ = pool_grad(maps, TkpConfig(k=2), np.array([10.0, 20.0]))
        expect = np.zeros((1, 3, 3))
        expect[0, 2, 1] = 10.0  # value 7, rank 1 of top-2
        expect[0, 2, 2] = 20.0  # value 8, rank 2
        np.testing.assert_array_equal(grad, expect)

    def test_dropped_entries_block_gradient(self):
        rng = np.random.default_rng(12)
        maps = rng.uniform(0.5, 1.5, size=(4, 4, 4))
        cfg = TkpConfig(k=5, rks_enabled=False, p_min=0.5, p_max=0.9)
        grad, pooled = pool_grad(maps, cfg, np.ones(20), rng=rng)
        assert pooled.dropped.any()
        flat = grad.reshape(4, 16)
        for c in range(4):
            for i, idx in enumerate(pooled.selected_indices[c]):
                assert flat[c, idx] == (0.0 if pooled.dropped[c, i] else 1.0)

    def test_star_and_vec_overlap_accumulates(self):
        rng = np.random.default_rng(13)
        maps = rng.normal(size=(2, 3, 3))
        cfg = TkpConfig(k=9, rbld_enabled=False)  # full overlap
        grad, _ = pool_grad(maps, cfg, np.ones(18), np.ones(18), rng=rng)
        np.testing.assert_allclose(grad, np.full((2, 3, 3), 2.0))

    def test_no_star_path_without_rks(self):
        # No rng, or RKS off: no random-sample tensor and no star record,
        # so no star gradient can reach the maps.
        maps = np.arange(4.0).reshape(1, 2, 2)
        for cfg, rng in ((TkpConfig(k=2), None),
                         (TkpConfig(k=2, rks_enabled=False), np.random.default_rng(0))):
            _, star, pooled = pool(maps, cfg, rng)
            assert star is None and pooled.star_indices is None

    def test_pooling_has_no_parameters(self):
        # Everything flowing out of pooling is selection + reordering of the
        # input; backward conserves the upstream mass it was given.
        rng = np.random.default_rng(14)
        maps = rng.normal(size=(3, 4, 4))
        up = rng.normal(size=12)
        grad, _ = pool_grad(maps, TkpConfig(k=4), up)
        assert grad.sum() == pytest.approx(up.sum(), rel=1e-12)

    def test_finite_difference_through_selection(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            # Well-separated values so FD never flips the selection.
            maps0 = rng.permuted(np.linspace(0.0, 1.0, 32)).reshape(2, 4, 4)
            up = rng.normal(size=6)
            cfg = TkpConfig(k=3)

            def f(arr):
                return float((pool(arr, cfg)[0] * up).sum())

            analytic, _ = pool_grad(maps0, cfg, up)
            from localfocus.gradcheck import check_gradient
            assert check_gradient(f, maps0, analytic) < 1e-4


class TestGraphWrappers:
    def test_tkp_pool_backward_matches_manual(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=(2, 3, 4, 4))
        x = Tensor(xs, requires_grad=True)
        vec, star, record = tkp_pool(x, TkpConfig(k=4))
        up = rng.normal(size=vec.data.shape)
        (vec * Tensor(up)).sum().backward()
        manual = manual_grad(xs.shape, record, up)
        np.testing.assert_array_equal(x.grad, manual)

    def test_training_batch_dropout_and_random_sample(self):
        rng = np.random.default_rng(22)
        xs = rng.choice([0.5, 0.75, 1.0, 1.25], size=(6, 5, 4, 4))  # ties, no zeros
        cfg = TkpConfig(k=5, p_min=0.3, p_max=0.6)
        x = Tensor(xs, requires_grad=True)
        vec, star, record = tkp_pool(x, cfg, rng)
        assert vec.data.shape == star.data.shape == (6, 25)
        assert record.dropped.shape == record.star_indices.shape == (30, 5)
        topk = tkp_pool(Tensor(xs), TkpConfig(k=5))[0].data.reshape(6, 5, 5)
        dropped = record.dropped.reshape(6, 5, 5)
        assert dropped.any() and not dropped.all()
        np.testing.assert_array_equal(vec.data.reshape(6, 5, 5), np.where(dropped, 0.0, topk))
        for i in range(6):
            flat = xs[i].reshape(5, 16)
            for c in range(5):
                idx = record.star_indices[i * 5 + c].tolist()
                assert len(set(idx)) == 5
                assert idx == sorted(idx, key=lambda j: (flat[c, j], j))
                np.testing.assert_array_equal(star.data[i].reshape(5, 5)[c], flat[c, idx])
        up_vec, up_star = rng.normal(size=(6, 25)), rng.normal(size=(6, 25))
        (vec * Tensor(up_vec) + star * Tensor(up_star)).sum().backward()
        manual = manual_grad(xs.shape, record, up_vec, up_star)
        np.testing.assert_array_equal(x.grad, manual)

    def test_gap_values_and_grad(self):
        rng = np.random.default_rng(18)
        xs = rng.normal(size=(2, 3, 4, 4))
        for i in range(2):
            np.testing.assert_allclose(gap_pool(Tensor(xs)).data[i], xs[i].mean(axis=(1, 2)))
        x = Tensor(xs, requires_grad=True)
        (gap_pool(x) * Tensor(np.ones((2, 3)))).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(xs, 1.0 / 16.0))

    def test_gmp_values_and_grad_last_max(self):
        # gmp is tkp's top-1: ties rank by (value, position), so the
        # gradient goes to the last maximum in row-major order.
        xs = np.zeros((1, 1, 2, 2))
        xs[0, 0] = [[3.0, 3.0], [1.0, 0.0]]
        np.testing.assert_array_equal(gmp_pool(Tensor(xs)).data[0], [3.0])
        x = Tensor(xs, requires_grad=True)
        (gmp_pool(x) * Tensor(np.ones((1, 1)))).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    def test_rank_checks(self):
        with pytest.raises(ShapeError):
            tkp_pool(Tensor(np.zeros((4, 4))), TkpConfig())
        with pytest.raises(ShapeError):
            gap_pool(Tensor(np.zeros((4, 4))))
        with pytest.raises(ShapeError):
            tkp_pool(Tensor(np.zeros((4, 4, 4))), TkpConfig(k=2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError, match="^tkp_pool needs a non-empty batch$"):
            tkp_pool(Tensor(np.zeros((0, 2, 4, 4))), TkpConfig(k=2))


class TestDeterminism:
    def test_same_seed_same_stochastic_output(self):
        maps = np.random.default_rng(19).normal(size=(4, 4, 4))
        cfg = TkpConfig(k=4)
        a = pool(maps, cfg, np.random.default_rng(42))
        b = pool(maps, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2].dropped, b[2].dropped)

    def test_different_seeds_differ(self):
        maps = np.random.default_rng(20).uniform(0.5, 1.5, size=(8, 5, 5))
        cfg = TkpConfig(k=8)
        a = pool(maps, cfg, np.random.default_rng(1))[2]
        b = pool(maps, cfg, np.random.default_rng(2))[2]
        assert not np.array_equal(a.dropped, b.dropped) or not np.array_equal(
            a.star_indices, b.star_indices)
