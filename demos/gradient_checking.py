"""Numeric spot checks of the hand-written backward passes.

Every gradient in this package is derived by hand, so every one of them
is compared against central finite differences. This script runs a few
of those comparisons standalone: first isolated ops, then the full
image-to-loss chain through residual extraction, the conv stack, top-k
pooling, and the classifier head.
"""

import numpy as np

from localfocus import (NprConfig, SNetConfig, Tensor, TkpConfig,
                        TrainConfig, build_model, conv2d, npr_extract)
from localfocus.gradcheck import check_gradient


def separated(rng, shape, gap=0.02):
    """No two values (or any value and zero) closer than ``gap``, so the
    finite-difference step never crosses an abs/relu/top-k kink."""
    n = int(np.prod(shape))
    vals = rng.permutation(gap * np.arange(1, n + 1))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return (vals * signs).reshape(shape)


def main():
    rng = np.random.default_rng(3)

    x0 = rng.normal(size=(2, 5, 5))
    w = Tensor(rng.normal(size=(4, 2, 2, 2)))
    b = Tensor(rng.normal(size=(4,)))
    t = Tensor(x0.copy(), requires_grad=True)
    conv2d(t, w, b).sum().backward()
    err = check_gradient(lambda a: float(conv2d(Tensor(a), w, b).sum().data), x0, t.grad)
    print(f"conv2d input gradient vs finite differences: worst rel err {err:.2e}")

    x0 = separated(rng, (3, 6, 6))
    t = Tensor(x0.copy(), requires_grad=True)
    npr_extract(t, NprConfig()).sum().backward()
    err = check_gradient(lambda a: float(npr_extract(Tensor(a), NprConfig()).sum().data), x0, t.grad)
    print(f"residual extractor gradient (abs path):      worst rel err {err:.2e}")

    print("\nFull chain: train loss as a function of the classifier head.")
    cfg = TrainConfig(seed=1, rbld=False, rks=False)
    model = build_model(cfg, snet_cfg=SNetConfig(channel_plan=(8, 16, 64), pool_after=frozenset({1, 2})),
                        tkp_cfg=TkpConfig(k=4))
    images = [rng.random((3, 16, 16)) for _ in range(2)]
    labels = [0, 1]

    def loss_at(weights):
        model.fc_weight.data = weights
        _, _, report = model.forward_train(images, labels, np.random.default_rng(0))
        return report.total

    w0 = model.fc_weight.data.copy()
    loss_at(w0.copy())
    analytic = model.fc_weight.grad.copy()
    err = check_gradient(lambda a: loss_at(a.copy()), w0, analytic)
    model.fc_weight.data = w0
    print(f"head weight gradient through the whole model: worst rel err {err:.2e}")


if __name__ == "__main__":
    main()
