"""Train a small detector end to end on generated data.

Everything stays in memory and takes well under a minute: generate a
real/fake corpus, train a reduced conv stack for a few epochs, evaluate
on held-out images, and round-trip the result through a checkpoint.
"""

import os
import tempfile

import numpy as np

from localfocus import (SNetConfig, TkpConfig, TrainConfig, build_model,
                        evaluate, gen_fake, gen_real, load_checkpoint,
                        save_checkpoint, train)


def main():
    print("generating 120 training and 40 test images (32x32)...")
    train_reals = gen_real(60, 32, np.random.default_rng((0, 1)))
    train_fakes = gen_fake(train_reals, np.random.default_rng((0, 2)))
    test_reals = gen_real(20, 32, np.random.default_rng((0, 3)))
    test_fakes = gen_fake(test_reals, np.random.default_rng((0, 4)))

    cfg = TrainConfig(lr=3e-3, batch_size=16, epochs=6, seed=11)
    model = build_model(cfg,
                        snet_cfg=SNetConfig(channel_plan=(8, 16, 64), pool_after=frozenset({1, 2})),
                        tkp_cfg=TkpConfig(k=4))
    result = train(model, train_reals + train_fakes, cfg)
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"  epoch {epoch}: mean loss {loss:.4f}")
    print(f"best epoch: {result.best_epoch}")

    report = evaluate(result.best_model, test_reals + test_fakes)
    print(f"\nheld-out accuracy {report.acc:.3f}, average precision {report.ap:.3f}")
    print(f"model parameters: {report.params}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "detector.lfm")
        save_checkpoint(result.best_model, path)
        restored = load_checkpoint(path)
        image = test_fakes[0].image
        before = result.best_model.infer(image)
        after = restored.infer(image)
        print(f"\ncheckpoint round trip on one fake: {before} -> {after}")
        print(f"file size {os.path.getsize(path)} bytes")


if __name__ == "__main__":
    main()
