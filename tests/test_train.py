"""Training loop, evaluation, and bench plumbing."""

import inspect
import json

import numpy as np
import pytest

from localfocus import (ConfigError, DomainError, ShapeError, SNetConfig, StateError, TkpConfig,
                        TrainConfig, bench, build_model, evaluate, gen_fake,
                        gen_real, save_checkpoint, train)
from localfocus.metrics import EvalReport
from localfocus.model import total_param_count
from localfocus.train import save_loss_curve

TINY_SNET = SNetConfig(num_conv_layers=3, channel_plan=(8, 16, 64),
                       pool_after=frozenset({1, 2}))


def tiny_model(cfg):
    return build_model(cfg, snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=4))


def tiny_dataset(n_pairs, seed=1234, size=32):
    reals = gen_real(n_pairs, size, np.random.default_rng(seed))
    fakes = gen_fake(reals, np.random.default_rng(seed + 1))
    return reals + fakes


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.pooling == "tkp"
        tkp = tiny_model(cfg).tkp_cfg
        assert tkp.rbld_enabled and tkp.rks_enabled

    def test_stochastic_flags_default_off_outside_tkp(self):
        tkp = tiny_model(TrainConfig(pooling="gap")).tkp_cfg
        assert not tkp.rbld_enabled and not tkp.rks_enabled

    def test_explicit_flags_win(self):
        cfg = TrainConfig(pooling="tkp", rbld=False, rks=False)
        tkp = tiny_model(cfg).tkp_cfg
        assert not tkp.rbld_enabled and not tkp.rks_enabled

    def test_unset_flags_keep_the_tkp_config_flags(self):
        off = TkpConfig(k=4, rbld_enabled=False, rks_enabled=False)
        tkp = build_model(TrainConfig(), snet_cfg=TINY_SNET, tkp_cfg=off).tkp_cfg
        assert not tkp.rbld_enabled and not tkp.rks_enabled
        tkp = build_model(TrainConfig(rbld=True), snet_cfg=TINY_SNET, tkp_cfg=off).tkp_cfg
        assert tkp.rbld_enabled and not tkp.rks_enabled
        mixed = TkpConfig(k=4, rbld_enabled=True, rks_enabled=False)
        tkp = build_model(TrainConfig(), snet_cfg=TINY_SNET, tkp_cfg=mixed).tkp_cfg
        assert tkp.rbld_enabled and not tkp.rks_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError):
            TrainConfig(pooling="avg")
        with pytest.raises(ConfigError):
            TrainConfig(pooling="gap", rbld=True)


    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), "1e-3", True])
    def test_lr_must_be_finite(self, lr):
        with pytest.raises(ConfigError, match=f"lr must be finite and >= 0, got {lr!r}"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("name", ["batch_size", "epochs", "seed"])
    def test_non_integer_counts_rejected(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got 2.5$"):
            TrainConfig(**{name: 2.5})
        assert getattr(TrainConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("name", ["rbld", "rks"])
    def test_switches_must_be_bools_or_none(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be a bool, got 'false'$"):
            TrainConfig(**{name: "false"})
        assert getattr(TrainConfig(), name) is None
        tkp = tiny_model(TrainConfig(**{name: np.bool_(False)})).tkp_cfg
        assert not getattr(tkp, name + "_enabled")


class TestTrain:
    def test_needs_nonempty_dataset(self):
        cfg = TrainConfig()
        with pytest.raises(ConfigError):
            train(tiny_model(cfg), [], cfg)

    def test_needs_both_classes(self):
        cfg = TrainConfig()
        reals = gen_real(2, 32, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="both classes"):
            train(tiny_model(cfg), reals, cfg)

    def test_same_seed_same_checkpoint_bytes(self, tmp_path):
        data = tiny_dataset(4)
        paths = []
        for run in ("a", "b"):
            cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=11)
            result = train(tiny_model(cfg), data, cfg)
            path = str(tmp_path / f"{run}.lfm")
            save_checkpoint(result.model, path)
            paths.append(path)
        blob_a = open(paths[0], "rb").read()
        blob_b = open(paths[1], "rb").read()
        assert blob_a == blob_b

    def test_too_small_images_rejected_before_the_first_step(self, monkeypatch):
        cfg = TrainConfig(batch_size=4)
        model = build_model(cfg)
        monkeypatch.setattr(model, "forward_train", lambda *a: pytest.fail("a step ran"))
        data = tiny_dataset(2, size=48) + tiny_dataset(1, size=46)
        with pytest.raises(ShapeError, match="46x46 input .* smallest side it scores is 48$"):
            train(model, data, cfg)

    def test_divergence_names_epoch_step_and_parameter(self):
        cfg = TrainConfig(lr=1e300, batch_size=2, epochs=3, seed=5)
        model = tiny_model(cfg)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                StateError, match=r"^epoch \d+ step \d+, parameter (conv\d|head)\.(weight|bias): "
                                  r"adam gradient \d+ holds a non-finite value") as err:
            train(model, tiny_dataset(2), cfg)
        assert f"parameter {model.parameter_names()[err.value.index]}:" in str(err.value)

    def test_zero_lr_freezes_parameters(self):
        cfg = TrainConfig(lr=0.0, batch_size=4, epochs=1, seed=5)
        model = tiny_model(cfg)
        before = [p.data.copy() for p in model.parameters()]
        train(model, tiny_dataset(2), cfg)
        for b, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.data)

    def test_loss_decreases_on_deterministic_overfit(self):
        # With the stochastic pooling paths off, repeated Adam steps on a
        # single real/fake pair must drive the loss down.
        cfg = TrainConfig(lr=3e-3, batch_size=2, epochs=10, seed=7,
                          rbld=False, rks=False)
        result = train(tiny_model(cfg), tiny_dataset(1), cfg)
        assert len(result.epoch_losses) == 10
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_best_epoch_is_argmin_of_curve(self):
        cfg = TrainConfig(lr=3e-3, batch_size=2, epochs=6, seed=7)
        result = train(tiny_model(cfg), tiny_dataset(1), cfg)
        assert result.best_epoch == int(np.argmin(result.epoch_losses))

    def test_single_epoch_best_is_final(self):
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=1, seed=9)
        result = train(tiny_model(cfg), tiny_dataset(2), cfg)
        assert result.best_epoch == 0
        for best, last in zip(result.best_model.parameters(), result.model.parameters()):
            np.testing.assert_array_equal(best.data, last.data)
            assert best is not last  # snapshot, not an alias
            assert not np.shares_memory(best.data, last.data)

    def test_epoch_losses_are_run_deterministic(self):
        data = tiny_dataset(3)
        losses = []
        for _ in range(2):
            cfg = TrainConfig(lr=1e-3, batch_size=3, epochs=2, seed=21)
            losses.append(train(tiny_model(cfg), data, cfg).epoch_losses)
        assert losses[0] == losses[1]


class TestEvaluate:
    def test_report_fields(self):
        cfg = TrainConfig(seed=2)
        model = tiny_model(cfg)
        reals = gen_real(3, 32, np.random.default_rng(3))
        fakes = gen_fake(gen_real(5, 32, np.random.default_rng(4)),
                         np.random.default_rng(5))
        report = evaluate(model, reals + fakes)
        assert report.n_real == 3 and report.n_fake == 5
        assert report.params == total_param_count(model)
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.ap <= 1.0

    def test_deterministic_and_json_round_trip(self):
        cfg = TrainConfig(seed=2)
        model = tiny_model(cfg)
        data = tiny_dataset(2, seed=77)
        a = evaluate(model, data)
        b = evaluate(model, data)
        assert a == b
        assert EvalReport(**json.loads(a.to_json())) == a

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(tiny_model(TrainConfig()), [])


class TestBench:
    def _model_and_images(self, n=100, size=16):
        model = tiny_model(TrainConfig(seed=1))
        rng = np.random.default_rng(0)
        return model, [rng.random((3, size, size)) for _ in range(n)]

    def test_needs_100_images(self):
        model, images = self._model_and_images(n=99)
        with pytest.raises(DomainError, match="100"):
            bench(model, images)

    def test_validation(self):
        model, images = self._model_and_images()
        with pytest.raises(ConfigError):
            bench(model, images, batch_size=0)
        with pytest.raises(ConfigError):
            bench(model, images, workers=0)

    @pytest.mark.parametrize("name", ["batch_size", "workers"])
    def test_non_integer_settings_rejected(self, name):
        model, images = self._model_and_images()
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got 2.5$"):
            bench(model, images, **{name: 2.5})

    def test_reports_throughput(self):
        model, images = self._model_and_images()
        report = bench(model, images, batch_size=25, workers=1)
        assert report.images_per_second > 0.0

    def test_threaded_run(self):
        model, images = self._model_and_images()
        report = bench(model, images, batch_size=10, workers=2)
        assert report.images_per_second > 0.0


class TestWorkerCount:
    def test_default_one(self):
        # bench() needs no worker count.
        assert inspect.signature(bench).parameters["workers"].default == 1


class TestLossCurve:
    def test_round_trip_exact(self, tmp_path):
        losses = [0.6931471805599453, 0.5, 0.1234567890123456789]
        path = str(tmp_path / "curve.tsv")
        save_loss_curve(losses, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            epoch, value = line.split("\t")
            assert int(epoch) == i
            assert float(value) == losses[i]
