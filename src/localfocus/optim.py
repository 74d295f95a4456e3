"""Adam optimizer with bias correction.

Update rule per parameter, with g the current gradient and t the
one-based step count:

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    m_hat = m / (1 - beta1^t)
    v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

Note eps sits outside the square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError, require_real
from .tensor import Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class Adam:
    """Adam over a fixed parameter list: one step count ``t`` and one
    ``m``/``v`` moment buffer per parameter. Only the learning rate (a
    finite real >= 0) is settable; the betas and eps are the constants above."""

    params: list[Tensor]
    lr: float = 1e-4

    def __post_init__(self):
        require_real("lr", self.lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Update every parameter in place; all gradients are checked
        first (present, parameter-shaped, finite), so a failed step changes
        no parameter, moment or ``t``."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise StateError(f"adam step called before backward populated gradient {i}", i)
            if p.grad.shape != p.data.shape:
                raise ConfigError(f"adam gradient {i} shaped {p.grad.shape} != parameter {p.data.shape}")
            if not np.isfinite(p.grad).all():
                bad = int(np.flatnonzero(~np.isfinite(p.grad))[0])
                raise StateError(f"adam gradient {i} holds a non-finite value "
                                 f"{p.grad.flat[bad]} at element {bad}", i)
        self.t += 1
        for i, p in enumerate(self.params):
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * p.grad
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (p.grad * p.grad)
            m_hat = self.m[i] / (1.0 - BETA1 ** self.t)
            v_hat = self.v[i] / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
