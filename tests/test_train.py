"""Training loop, evaluation, and bench plumbing."""

import numpy as np
import pytest

from localfocus import (ConfigError, DomainError, SNetConfig, TkpConfig,
                        TrainConfig, bench, build_model, evaluate, gen_fake,
                        gen_real, save_checkpoint, train)
from localfocus.metrics import EvalReport
from localfocus.model import total_param_count
from localfocus.train import save_loss_curve, worker_count_from_env

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
        assert cfg.effective_rbld() and cfg.effective_rks()

    def test_stochastic_flags_default_off_outside_tkp(self):
        cfg = TrainConfig(pooling="gap")
        assert not cfg.effective_rbld() and not cfg.effective_rks()

    def test_explicit_flags_win(self):
        cfg = TrainConfig(pooling="tkp", rbld=False, rks=False)
        assert not cfg.effective_rbld() and not cfg.effective_rks()

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
        assert EvalReport.from_json(a.to_json()) == a

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

    def test_reports_throughput(self):
        model, images = self._model_and_images()
        report = bench(model, images, batch_size=25, workers=1)
        assert report.n_images == 100
        assert report.batch_size == 25 and report.workers == 1
        assert report.images_per_second > 0.0
        assert report.params == total_param_count(model)

    def test_threaded_run(self):
        model, images = self._model_and_images()
        report = bench(model, images, batch_size=10, workers=2)
        assert report.workers == 2 and report.images_per_second > 0.0


class TestWorkerCount:
    def test_flag_wins(self):
        assert worker_count_from_env(4, {"LOCALFOCUS_WORKERS": "9"}) == 4

    def test_env_fallback(self):
        assert worker_count_from_env(None, {"LOCALFOCUS_WORKERS": "9"}) == 9

    def test_default_one(self):
        assert worker_count_from_env(None, {}) == 1

    def test_bad_env(self):
        with pytest.raises(ConfigError):
            worker_count_from_env(None, {"LOCALFOCUS_WORKERS": "many"})
        with pytest.raises(ConfigError):
            worker_count_from_env(None, {"LOCALFOCUS_WORKERS": "0"})


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
