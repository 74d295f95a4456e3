"""Finite-difference gradient checking.

Central differences with step h on a scalar-valued function:

    df/dx_i ~ (f(x + h e_i) - f(x - h e_i)) / (2 h)

Comparisons use the relative error |a - n| / max(|a|, |n|, 1), which
behaves sensibly when both gradients are tiny. The caller keeps out
coordinates within h of a non-smooth point (kinks of abs/relu, pooling
or top-k selection boundaries), by picking inputs away from every kink
and tie or checking a function of the other coordinates alone; central
differences straddle a kink and measure the wrong one-sided slope.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-3


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case relative error between two gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def check_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                   analytic: np.ndarray) -> float:
    """Return the worst relative error of ``analytic`` vs central differences."""
    return relative_error(analytic, numeric_gradient(f, x))
