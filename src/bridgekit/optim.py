"""AdamW with decoupled weight decay, and EMA parameter tracking.

Both work on one flat float64 parameter vector per network (a network's
``theta``) and update it in place, using scratch vectors they own so that a
step allocates no temporary the size of the vector.
"""

from __future__ import annotations

import numpy as np


def _check_shape(vec, expected: tuple, what: str) -> None:
    if np.shape(vec) != expected:
        raise ValueError(f"{what} shape {np.shape(vec)} does not match {expected}")


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Update per element:
        m <- b1 m + (1 - b1) g
        v <- b2 v + (1 - b2) g^2
        p <- p - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * p )
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = np.zeros(np.shape(params))
        self.v = np.zeros_like(self.m)
        self._a = np.empty_like(self.m)
        self._b = np.empty_like(self.m)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One in-place update of the vector ``params`` from ``grads``."""
        _check_shape(params, self.m.shape, "parameter")
        _check_shape(grads, self.m.shape, "gradient")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        m, v, a, b, g = self.m, self.v, self._a, self._b, grads
        # The operations of the formula above, in its order, written into the
        # scratch vectors a and b.
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=b)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=b)
        v += np.multiply(b, g, out=b)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += self.eps
        np.divide(np.divide(m, bc1, out=b), a, out=a)
        a += np.multiply(params, self.weight_decay, out=b)
        a *= self.lr
        params -= a


class EmaTracker:
    """Exponential moving average of a parameter vector.

    shadow <- decay * shadow + (1 - decay) * params
    """

    def __init__(self, params, decay=0.9):
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must lie in [0, 1]")
        self.decay = float(decay)
        self.shadow = np.array(params, dtype=float, copy=True)
        self._scratch = np.empty_like(self.shadow)

    def update(self, params: np.ndarray) -> None:
        _check_shape(params, self.shadow.shape, "parameter")
        self.shadow *= self.decay
        self.shadow += np.multiply(params, 1.0 - self.decay, out=self._scratch)
