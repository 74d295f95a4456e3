"""Full detector: loss composition, parameter math, inference contract."""

import gc
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from dataclasses import replace

from localfocus import (Adam, ConfigError, DomainError, LfmModel, ShapeError,
                        SNetConfig, StateError, Tensor, TkpConfig, bce_loss_mean)
from localfocus import tensor
from localfocus.gradcheck import check_gradient, relative_error
from localfocus.model import _check_input_size, total_param_count
from localfocus.npr import npr_extract

TINY_SNET = SNetConfig(num_conv_layers=4, channel_plan=(8, 16, 32, 64))


def tiny_model(pooling="tkp", k=2, seed=0, **kw):
    return LfmModel(snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=k, **kw),
                    pooling=pooling, seed=seed)


def tiny_batch(n=4, size=32, seed=100):
    rng = np.random.default_rng(seed)
    images = [rng.random((3, size, size)) for _ in range(n)]
    labels = [i % 2 for i in range(n)]
    return images, labels


class TestConstruction:
    def test_pooling_variant_checked(self):
        with pytest.raises(ConfigError):
            LfmModel(pooling="avg")

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            LfmModel(decision_threshold=1.5)

    @pytest.mark.parametrize("threshold", ["0.5", True, float("nan"), -0.1])
    def test_threshold_must_be_a_real_number_in_the_unit_range(self, threshold):
        with pytest.raises(ConfigError, match=f"^decision_threshold must be finite and >= 0 and <= 1, "
                                              f"got {threshold!r}$"):
            LfmModel(decision_threshold=threshold)
        assert LfmModel(decision_threshold=np.float64(1.0), alpha=np.int64(0)).alpha == 0.0

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0, "0.5"])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ConfigError, match=f"alpha must be finite and >= 0, got {alpha!r}"):
            LfmModel(alpha=alpha)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            LfmModel(seed=-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be an integer, got 1.5$"):
            LfmModel(seed=1.5)

    def test_head_width_follows_pooling(self):
        assert tiny_model("tkp", k=3).fc_weight.data.shape == (1, 192)
        assert tiny_model("gap").fc_weight.data.shape == (1, 64)
        assert tiny_model("gmp").fc_weight.data.shape == (1, 64)

    def test_same_seed_same_parameters(self):
        a, b = tiny_model(seed=5), tiny_model(seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_parameter_order_is_stable(self):
        model = tiny_model()
        shapes = [p.data.shape for p in model.parameters()]
        # conv w/b pairs in depth order, then the head.
        assert shapes[0] == (8, 3, 2, 2) and shapes[1] == (8,)
        assert shapes[-2] == (1, 128) and shapes[-1] == (1,)
        assert model.parameter_names() == [f"{layer}.{kind}" for layer in
                                           ("conv1", "conv2", "conv3", "conv4", "head")
                                           for kind in ("weight", "bias")]


class TestParamCount:
    def test_default_totals(self):
        # Default conv stack (45728) + head of 64k+1.
        m16 = LfmModel(tkp_cfg=TkpConfig(k=16))
        assert total_param_count(m16) == 45728 + 64 * 16 + 1 == 46753
        m1 = LfmModel(tkp_cfg=TkpConfig(k=1))
        assert total_param_count(m1) == 45728 + 65

    def test_matches_enumeration(self):
        for model in (tiny_model(), tiny_model("gap"), LfmModel()):
            assert total_param_count(model) == sum(p.data.size for p in model.parameters())

    def test_pooling_adds_nothing(self):
        # Same configs, same k-width head: tkp vs gap differ only via head width.
        tkp = tiny_model("tkp", k=1)
        gap = tiny_model("gap", k=1)
        assert total_param_count(tkp) == total_param_count(gap)


class TestForwardTrain:
    def test_loss_decomposition_exact(self):
        model = tiny_model()
        images, labels = tiny_batch()
        _, _, report = model.forward_train(images, labels, np.random.default_rng(0))
        assert report.total == report.loss_a + report.alpha * report.loss_b
        assert report.alpha == 0.1

    def test_rks_off_drops_aux_term(self):
        model = tiny_model(rks_enabled=False)
        images, labels = tiny_batch()
        scores, star, report = model.forward_train(images, labels, np.random.default_rng(0))
        assert star is None
        assert report.loss_b == 0.0
        assert report.total == report.loss_a

    def test_scores_per_sample(self):
        model = tiny_model()
        images, labels = tiny_batch(n=5)
        scores, star, _ = model.forward_train(images, labels, np.random.default_rng(1))
        assert len(scores) == 5 and len(star) == 5
        assert all(0.0 < s < 1.0 for s in scores + star)

    def test_gradients_populate_every_parameter(self):
        model = tiny_model()
        images, labels = tiny_batch()
        model.forward_train(images, labels, np.random.default_rng(2))
        for p in model.parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape

    def test_adopted_gradients_never_alias(self):
        model = tiny_model()
        images, labels = tiny_batch()
        model.forward_train(images, labels, np.random.default_rng(2))
        params = model.parameters()
        for i, p in enumerate(params):
            for q in params:
                assert not np.shares_memory(p.grad, q.data)
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)

    def test_shared_head_weight_sums_both_contributions(self):
        # Both linear calls read fc_weight: its gradient is the first
        # contribution, adopted, plus the second, added in place.
        model = tiny_model()
        images, labels = tiny_batch()
        parts = []
        for term in (lambda probs, star: bce_loss_mean(probs, labels),
                     lambda probs, star: model.alpha * bce_loss_mean(star, labels)):
            model.zero_grad()
            term(*model._forward(images, np.random.default_rng(3))).backward()
            parts.append(model.fc_weight.grad.copy())
        model.forward_train(images, labels, np.random.default_rng(3))
        assert not np.array_equal(parts[0], parts[1])
        assert model.fc_weight.grad.tobytes() == (parts[0] + parts[1]).tobytes()

    def test_input_batch_stays_gradient_free(self, monkeypatch):
        seen = []

        def recording_npr(image, cfg):
            seen.append(image)
            return npr_extract(image, cfg)

        model = tiny_model()
        monkeypatch.setattr("localfocus.model.npr_extract", recording_npr)
        model.forward_train(*tiny_batch(), np.random.default_rng(2))
        assert len(seen) == 1 and not seen[0].requires_grad and seen[0].grad is None
        assert all(p.grad is not None for p in model.parameters())

    def test_two_steps_of_one_shape_draw_the_same_arrays(self, monkeypatch):
        seen = []

        def recording_npr(image, cfg):
            out = npr_extract(image, cfg)
            seen.append((image.data, out.data))
            return out

        model = tiny_model()
        monkeypatch.setattr("localfocus.model.npr_extract", recording_npr)
        images, labels = tiny_batch()
        for seed in (2, 3):
            model.forward_train(images, labels, np.random.default_rng(seed))
        (batch, residual), (batch_again, residual_again) = seen
        assert batch_again is batch and residual_again is residual

    def test_scoring_between_steps_leaves_training_unchanged(self):
        # A score between steps leaves training's bytes unchanged, and
        # scoring before Adam.step also shows that no gradient is a kept array.
        images, labels = tiny_batch(n=4)
        params = []
        for interleave in (False, True):
            model = tiny_model()
            opt = Adam(model.parameters(), 1e-2)
            rng = np.random.default_rng(6)
            for i, (image, label) in enumerate(zip(images, labels)):
                model.forward_train([image], [label], rng)
                if interleave:
                    model.score(images[(i + 1) % len(images)])
                opt.step()
            params.append(b"".join(p.data.tobytes() for p in model.parameters()))
        assert params[0] == params[1]

    @pytest.mark.parametrize("refusal", ["nan-pixel", "mixed-sizes", "too-small"])
    def test_a_refused_batch_leaves_every_gradient(self, refusal):
        model = tiny_model()
        images, labels = tiny_batch()
        model.forward_train(images, labels, np.random.default_rng(2))
        before = [p.grad.tobytes() for p in model.parameters()]
        if refusal == "nan-pixel":
            images[1][0, 2, 3] = np.nan
        elif refusal == "mixed-sizes":
            images[1] = np.zeros((3, 34, 34))
        else:
            images = [np.zeros((3, 16, 16))] * len(labels)
        with pytest.raises((DomainError, ShapeError)):
            model.forward_train(images, labels, np.random.default_rng(2))
        assert [p.grad.tobytes() for p in model.parameters()] == before

    def test_each_call_starts_from_zero_gradients(self):
        # Zeroing is forward_train's job (the optimizer has none): a second
        # identical call must give the same gradients, not twice them.
        model = tiny_model()
        images, labels = tiny_batch()
        model.forward_train(images, labels, np.random.default_rng(2))
        first = [p.grad.copy() for p in model.parameters()]
        model.forward_train(images, labels, np.random.default_rng(2))
        for p, g in zip(model.parameters(), first):
            np.testing.assert_array_equal(p.grad, g)

    def test_shared_head_scores_both_vectors(self):
        # Force top-k and random-sample paths to see the same vector by
        # using k = map size; identical vectors must get identical scores.
        model = tiny_model(k=1, rbld_enabled=False)
        size = 16  # tiny snet collapses 16x16 to 1x1 maps, so k=1 is everything
        images, labels = tiny_batch(n=3, size=size)
        scores, star, report = model.forward_train(images, labels, np.random.default_rng(3))
        np.testing.assert_allclose(scores, star, rtol=1e-12)
        assert report.loss_b == pytest.approx(report.loss_a, rel=1e-12)

    def test_label_validation(self):
        model = tiny_model()
        images, _ = tiny_batch(n=2)
        with pytest.raises(DomainError):
            model.forward_train(images, [0, 2], np.random.default_rng(0))

    def test_empty_batch(self):
        with pytest.raises(ConfigError):
            tiny_model().forward_train([], [], np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        model = tiny_model()
        images, labels = tiny_batch(n=3)
        images[2][1, 4, 7] = bad
        with pytest.raises(DomainError, match=r"image 2 has a non-finite pixel .*\(1, 4, 7\)"):
            model.forward_train(images, labels, np.random.default_rng(0))
        assert all(p.grad is None for p in model.parameters())

    def test_mixed_image_sizes_rejected(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        images = [rng.random((3, 64, 64)), rng.random((3, 66, 66))]
        with pytest.raises(ShapeError, match=r"image 1 has shape \(3, 66, 66\).*\(3, 64, 64\)"):
            model.forward_train(images, [0, 1], rng)
        assert all(p.grad is None for p in model.parameters())

    def test_count_mismatch(self):
        model = tiny_model()
        images, _ = tiny_batch(n=3)
        with pytest.raises(ShapeError):
            model.forward_train(images, [0, 1], np.random.default_rng(0))


class TestFullChainGradient:
    def test_head_and_last_conv_match_finite_differences(self):
        # Deterministic pooling path (no dropout, no sampling) so the loss
        # is a smooth function of the parameters almost everywhere.
        model = tiny_model(rbld_enabled=False, rks_enabled=False)
        images, labels = tiny_batch(n=2)
        rng = np.random.default_rng(4)

        def loss_now():
            _, _, report = model.forward_train(images, labels, rng)
            return report.total

        model.forward_train(images, labels, rng)
        fc_grad = model.fc_weight.grad.copy()
        last_w = model.snet.layers[-1][0]
        conv_grad = last_w.grad.copy()

        def f_fc(arr):
            old = model.fc_weight.data.copy()
            model.fc_weight.data = arr.reshape(model.fc_weight.data.shape).copy()
            val = loss_now()
            model.fc_weight.data = old
            return val

        def f_conv(arr):
            old = last_w.data.copy()
            last_w.data = arr.reshape(last_w.data.shape).copy()
            val = loss_now()
            last_w.data = old
            return val

        assert check_gradient(f_fc, model.fc_weight.data.copy().ravel(),
                              fc_grad.ravel()) < 1e-4
        # Check a slice of the 1x1 conv weights (full FD would be slow).
        # A weight nudge can flip which map positions make the top-k; FD
        # straddles that selection boundary and measures the wrong slope,
        # so detect kink-straddling coordinates by step halving (smooth
        # coordinates agree at h and h/2, kinked ones jump) and skip them.
        from localfocus.gradcheck import numeric_gradient
        x0 = last_w.data.copy().ravel()

        def f_head(a):  # the first 200 weights, the rest held at x0
            return f_conv(np.concatenate([a, x0[200:]]))

        num_h = numeric_gradient(f_head, x0[:200], h=1e-3)
        num_h2 = numeric_gradient(f_head, x0[:200], h=5e-4)
        keep = np.abs(num_h - num_h2) <= 1e-5 * np.maximum(1.0, np.abs(num_h))
        assert keep.sum() >= 0.9 * keep.size  # kinks must be rare
        assert relative_error(conv_grad.ravel()[:200][keep], num_h[keep]) < 1e-4


class TestInference:
    def test_deterministic_and_flag_invariant(self):
        images, _ = tiny_batch(n=1)
        scores = []
        for flags in ((True, True), (False, False), (True, False)):
            model = tiny_model(rbld_enabled=flags[0], rks_enabled=flags[1], seed=9)
            scores.append(model.score(images[0]))
        assert scores[0] == scores[1] == scores[2]

    def test_threshold_zero_labels_everything_fake(self):
        model = tiny_model()
        model.decision_threshold = 0.0
        images, _ = tiny_batch(n=3)
        assert all(model.infer(img)[1] == 1 for img in images)

    def test_threshold_semantics(self):
        model = tiny_model()
        img = tiny_batch(n=1)[0][0]
        p, label = model.infer(img)
        assert label == int(p >= 0.5)

    def test_score_requires_single_image(self):
        with pytest.raises(ShapeError):
            tiny_model().score(np.zeros((2, 3, 16, 16)))

    @pytest.mark.parametrize("model,smallest", [
        (LfmModel(), 48), (LfmModel(pooling="gap"), 24), (LfmModel(pooling="gmp"), 24),
        (LfmModel(tkp_cfg=TkpConfig(k=1)), 24), (tiny_model(k=2), 24), (tiny_model(k=5), 32),
    ], ids=["tkp", "gap", "gmp", "tkp-k1", "tiny-k2", "tiny-k5"])
    def test_too_small_input_names_the_smallest_side(self, model, smallest):
        settings = (model.snet_cfg, model.pooling, model.tkp_cfg.k)
        _check_input_size(*settings, smallest, smallest)
        model.score(np.zeros((3, smallest, smallest)))
        side = smallest - 2
        with pytest.raises(ShapeError):
            _check_input_size(*settings, side, side)
        with pytest.raises(ShapeError, match=rf"a {side}x{side} input is too small for this model; "
                                             rf"the smallest side it scores is {smallest}$"):
            model.score(np.zeros((3, side, side)))
        with pytest.raises(ShapeError, match=rf"smallest side it scores is {smallest}$"):
            model.forward_train([np.zeros((3, side, side))] * 2, [0, 1], np.random.default_rng(0))

    @pytest.mark.parametrize("h, w", [(63, 64), (64, 63), (63, 63)])
    def test_odd_side_is_refused_by_the_input_gate(self, h, w):
        model = LfmModel()
        settings = (model.snet_cfg, model.pooling, model.tkp_cfg.k)
        _check_input_size(*settings, 64, 64)
        with pytest.raises(ShapeError, match=rf"^npr height and width must both be even, got {h}x{w}$"):
            _check_input_size(*settings, h, w)

    @pytest.mark.parametrize("snet_cfg", [SNetConfig(), TINY_SNET], ids=["default", "tiny"])
    def test_smallest_side_matches_a_linear_scan(self, snet_cfg):
        def fits(k, s):
            try:
                _check_input_size(snet_cfg, "tkp", k, s, s)
            except ShapeError:
                return False
            return True

        for k in (*range(1, 80), 1000, 12345):
            smallest = next(s for s in range(2, 10**6, 2) if fits(k, s))
            with pytest.raises(ShapeError, match=rf"the smallest side it scores is {smallest}$"):
                _check_input_size(snet_cfg, "tkp", k, 2, 2)

    def test_a_huge_k_is_refused_at_once(self):
        with pytest.raises(ShapeError, match=r"a 64x64 input .* the smallest side it scores is 8000000016$"):
            _check_input_size(SNetConfig(), "tkp", 10**18, 64, 64)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_image_rejected(self, bad):
        img = tiny_batch(n=1)[0][0]
        img[0, 0, 3] = bad
        for call in (tiny_model().score, tiny_model().infer):
            with pytest.raises(DomainError, match=r"image 0 has a non-finite pixel .*\(0, 0, 3\)"):
                call(img)

    def test_score_leaves_no_garbage(self):
        # The graph score records has no cycle, so it is freed on return
        # without the cycle collector.
        model = tiny_model()
        img = tiny_batch(n=1)[0][0]
        gc.collect()
        gc.disable()
        try:
            model.score(img)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_two_threads_score_like_one(self):
        # Mixed sizes make each thread's reused buffers switch shapes.
        model = tiny_model()
        rng = np.random.default_rng(5)
        images = [rng.random((3, side, side)) for side in (64, 96) * 30]
        serial = [model.score(img) for img in images]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                threaded = list(pool.map(model.score, images, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_training_does_not_change_inference_path(self):
        # Same parameters => same score, regardless of how cfg flags are set.
        model_a = tiny_model(seed=3)
        model_b = tiny_model(seed=3, rbld_enabled=False, rks_enabled=False)
        img = tiny_batch(n=1)[0][0]
        assert model_a.score(img) == model_b.score(img)


class TestFloat32Scoring:
    """``score`` runs the residual, salience net and pooling in float32 and
    the head in float64; ``forward_train`` stays float64 throughout."""

    @pytest.mark.parametrize("pooling,side", [("tkp", 64), ("tkp", 256), ("gap", 64), ("gmp", 64)])
    def test_score_is_within_1e_6_of_a_float64_forward(self, pooling, side):
        model = LfmModel(pooling=pooling)
        rng = np.random.default_rng(7)
        for _ in range(3):
            img = rng.random((3, side, side))
            want, _ = model._forward([img], None, np.float64)
            got = model.score(img)
            assert type(got) is np.float64
            assert abs(got - want.data.item()) < 1e-6

    def test_a_saturated_logit_scores_exactly_the_clamp(self):
        # The head and sigmoid run in float64: in float32, 1 - 1e-12 rounds to 1.0.
        model = tiny_model()
        img = tiny_batch(n=1)[0][0]
        for bias, want in ((1e3, 1.0 - tensor._CLAMP), (-1e3, tensor._CLAMP)):
            model.fc_bias.data[:] = bias
            assert model.score(img) == want
            assert model.infer(img) == (want, int(want >= 0.5))

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_a_pixel_beyond_float32_range_is_refused(self, value):
        img = np.zeros((3, 64, 64))
        img[0, 0, 3] = value
        for call in (LfmModel().score, LfmModel().infer):
            with pytest.raises(DomainError, match=rf"^image 0 pixel \(0, 0, 3\) holds {re.escape(repr(value))}, "
                                                  r"which is not finite in float32$"):
                call(img)

    def test_training_keeps_a_pixel_float32_cannot_hold(self):
        images, labels = tiny_batch(n=2)
        images[1][2, 5, 6] = 1e39
        model = tiny_model()
        _, _, report = model.forward_train(images, labels, np.random.default_rng(0))
        assert np.isfinite(report.total)

    def test_score_runs_float32_below_the_head(self, monkeypatch):
        seen = []

        def recording_npr(image, cfg):
            out = npr_extract(image, cfg)
            seen.append((image.data.dtype, out.data.dtype))
            return out

        monkeypatch.setattr("localfocus.model.npr_extract", recording_npr)
        model = tiny_model()
        images, labels = tiny_batch(n=2)
        model.score(images[0])
        model.forward_train(images, labels, np.random.default_rng(0))
        assert seen == [(np.float32, np.float32), (np.float64, np.float64)]

    def test_an_interleaved_score_keeps_training_arrays(self, monkeypatch):
        # Each dtype keeps its own arrays: a score between two training steps
        # neither frees nor takes the float64 arrays the steps share.
        seen = []

        def recording_npr(image, cfg):
            out = npr_extract(image, cfg)
            seen.append((image.data, out.data))
            return out

        model = tiny_model()
        monkeypatch.setattr("localfocus.model.npr_extract", recording_npr)
        images, labels = tiny_batch(n=1)
        model.forward_train(images, labels, np.random.default_rng(2))
        model.score(images[0])
        model.forward_train(images, labels, np.random.default_rng(3))
        (batch, residual), (scored, _), (batch_again, residual_again) = seen
        assert batch_again is batch and residual_again is residual
        assert scored.dtype == np.float32 and not np.shares_memory(scored, batch)

    def test_the_scoring_graph_is_refused_by_backward(self):
        model = tiny_model()
        probs, _ = model._forward([tiny_batch(n=1)[0][0]], None, np.float32)
        assert probs.data.dtype == np.float64
        with pytest.raises(StateError, match=r"reached a float32 node"):
            probs.sum().backward()
        assert all(p.grad is None for p in model.parameters())
