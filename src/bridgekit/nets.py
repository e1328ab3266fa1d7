"""Feed-forward drift and endpoint-score networks with hand-rolled backprop.

Both networks share one layout:

  * ``x_enc``  - 3 linear layers lifting the state (and, for the correction
    network, the drift value) into the hidden width;
  * ``t_enc``  - sinusoidal time features followed by 2 linear layers;
  * ``head``   - 3 linear layers mapping the concatenated encodings back to
    state dimension.

Every linear layer except the final head layer is followed by the chosen
activation and dropout. ``forward`` returns caches that ``backward`` consumes
to produce exact parameter gradients; no autodiff framework is involved.

A network owns its parameters as one contiguous float64 vector ``theta``,
laid out block by block (x_enc, t_enc, head), layer by layer, W then b; every
layer's weight and bias are views of it. ``backward`` returns the gradient as
one vector in the same layout, so the optimizer, the EMA and the model file
each handle one vector per network and only this module knows the layers.

Calling a network in eval mode takes a separate, cache-free inference path:
at a scalar ``t`` the time branch runs on one row and is folded into the
first head layer's bias, and every hidden layer writes into buffers the
network owns and reuses across calls (the returned array is always fresh).
Those buffers make inference not re-entrant: one network object must not be
called from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericsError

X_ENC_LAYERS = 3
T_ENC_LAYERS = 2
HEAD_LAYERS = 3


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805
_LEAKY_SLOPE = 0.01


# Each activation is applied in place to a pre-activation ``z``; ``tmp`` is a
# scratch array of the same shape that the function may overwrite.


def _selu_(z, tmp):
    # scale * (max(z, 0) + alpha * expm1(min(z, 0))) is bit-equal to the
    # np.where form, and keeps expm1 off the overflowing branch.
    np.minimum(z, 0.0, out=tmp)
    np.expm1(tmp, out=tmp)
    tmp *= _SELU_ALPHA
    np.maximum(z, 0.0, out=z)
    z += tmp
    z *= _SELU_SCALE
    return z


def _selu_grad(z):
    neg = np.minimum(z, 0.0)
    return _SELU_SCALE * np.where(z > 0, 1.0, _SELU_ALPHA * np.exp(neg))


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _silu_(z, tmp):
    return np.multiply(z, _sigmoid(z), out=z)


def _silu_grad(z):
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _relu_(z, tmp):
    return np.maximum(z, 0.0, out=z)


def _relu_grad(z):
    return (z > 0).astype(float)


def _leaky_relu_(z, tmp):
    # max(z, slope * z) picks z for z > 0 and slope * z otherwise (0 < slope < 1).
    return np.maximum(z, np.multiply(z, _LEAKY_SLOPE, out=tmp), out=z)


def _leaky_relu_grad(z):
    return np.where(z > 0, 1.0, _LEAKY_SLOPE)


_IN_PLACE = {
    "selu": (_selu_, _selu_grad),
    "silu": (_silu_, _silu_grad),
    "relu": (_relu_, _relu_grad),
    "leaky_relu": (_leaky_relu_, _leaky_relu_grad),
}


def _copying(act_):
    def act(z):
        z = np.array(z, dtype=float)
        return act_(z, np.empty_like(z))

    return act


# name -> (activation, gradient); both leave their argument untouched.
ACTIVATIONS = {name: (_copying(act_), grad) for name, (act_, grad) in _IN_PLACE.items()}


# ---------------------------------------------------------------------------
# Specs and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpSpec:
    """Architecture hyperparameters for one network.

    ``hidden_dim`` and ``time_embed_dim`` are typically chosen in 64..256;
    smaller values are allowed (tests use tiny nets). ``uses_drift_input``
    makes the state encoder consume the concatenation (x, b) so the
    correction network can condition on the drift value.
    """

    input_dim: int
    output_dim: int
    hidden_dim: int = 64
    time_embed_dim: int = 64
    activation: str = "selu"
    dropout_rate: float = 0.1
    uses_drift_input: bool = False

    def __post_init__(self):
        for name in ("input_dim", "output_dim", "hidden_dim", "time_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from {sorted(ACTIVATIONS)}"
            )

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "hidden_dim": self.hidden_dim,
            "time_embed_dim": self.time_embed_dim,
            "activation": self.activation,
            "dropout_rate": self.dropout_rate,
            "uses_drift_input": self.uses_drift_input,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(**d)


class ParamSet:
    """A named view of one network's flat parameter vector.

    ``flat`` returns a copy; ``set_flat`` writes through to the network.
    """

    def __init__(self, vector: np.ndarray, shape_table: list[tuple[str, tuple[int, ...]]]):
        self.vector = vector
        self.shape_table = shape_table

    @property
    def n_params(self) -> int:
        return self.vector.size

    def flat(self) -> np.ndarray:
        return self.vector.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.size != self.n_params:
            raise ValueError(f"expected {self.n_params} values, got {vec.size}")
        self.vector[...] = vec.ravel()

    def tobytes(self) -> bytes:
        return self.vector.astype("<f8", copy=False).tobytes()


# ---------------------------------------------------------------------------
# Time features
# ---------------------------------------------------------------------------


def time_embed(t, dim: int) -> np.ndarray:
    """Sinusoidal features: out[2i] = sin(t w_i), out[2i+1] = cos(t w_i),
    with w_i = 10000^(-2i/dim)."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("embedding dimension must be an even integer >= 2")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    i = np.arange(dim // 2)
    omega = 10000.0 ** (-2.0 * i / dim)
    phase = t[:, None] * omega[None, :]
    out = np.empty((t.shape[0], dim))
    out[:, 0::2] = np.sin(phase)
    out[:, 1::2] = np.cos(phase)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Linear stacks
# ---------------------------------------------------------------------------


class _Block:
    """A stack of linear layers; all but (optionally) the last carry
    activation + dropout."""

    def __init__(self, sizes, activation, dropout_rate, bare_last, rng, zero_last=False):
        self._act, self._act_grad = ACTIVATIONS[activation]
        self._act_ = _IN_PLACE[activation][0]
        self.dropout_rate = dropout_rate
        self.bare_last = bare_last
        self.weights = []
        self.biases = []
        n_layers = len(sizes) - 1
        for li in range(n_layers):
            fan_in, fan_out = sizes[li], sizes[li + 1]
            bound = np.sqrt(1.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            if zero_last and li == n_layers - 1:
                w = np.zeros((fan_out, fan_in))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x, train, rng, where):
        """Returns (output, cache). ``where`` labels errors."""
        cache = []
        h = x
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            last = li == self.n_layers - 1
            if last and self.bare_last:
                a, mask = z, None
            else:
                a = self._act(z)
                if train and self.dropout_rate > 0.0:
                    keep = rng.random(a.shape) >= self.dropout_rate
                    mask = keep / (1.0 - self.dropout_rate)
                    a = a * mask
                else:
                    mask = None
            if not np.all(np.isfinite(a)):
                raise NumericsError(f"non-finite activation in {where} layer {li}")
            cache.append((h, z, mask))
            h = a
        return h, cache

    def infer(self, h, bufs, where, first=None):
        """Eval-mode output of the block, keeping no cache.

        Layer i writes into ``bufs[i % 2]`` and applies its activation in
        place with the other buffer as scratch, so ``bufs[0]`` must not hold
        ``h`` (``bufs[1]`` may: h is dead once layer 0's product is formed).
        The output of a non-bare last layer is a view of one buffer; a bare
        last layer returns a fresh array. ``first`` = (W, b) replaces
        the weight and bias of layer 0; ``b`` may hold one row per row of h.
        """
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            if li == 0 and first is not None:
                w, b = first
            if li == self.n_layers - 1 and self.bare_last:
                a = h @ w.T
                a += b
            else:
                a = np.matmul(h, w.T, out=bufs[li % 2])
                a += b
                self._act_(a, bufs[(li + 1) % 2])
            if not np.all(np.isfinite(a)):
                raise NumericsError(f"non-finite activation in {where} layer {li}")
            h = a
        return h

    def backward(self, cache, grad_out, grads):
        """Writes each layer's (dW, db) into the views ``grads``; returns the
        gradient wrt the block input."""
        g = grad_out
        for li in range(self.n_layers - 1, -1, -1):
            h, z, mask = cache[li]
            last = li == self.n_layers - 1
            if not (last and self.bare_last):
                if mask is not None:
                    g = g * mask
                g = g * self._act_grad(z)
            dw, db = grads[li]
            np.matmul(g.T, h, out=dw)
            g.sum(axis=0, out=db)
            g = g @ self.weights[li]
        return g


class _TimeConditionedNet:
    """Shared machinery for the drift and correction networks."""

    block_names = ("x_enc", "t_enc", "head")

    def __init__(self, spec: MlpSpec, rng: Optional[np.random.Generator] = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.spec = spec
        h = spec.hidden_dim
        state_in = spec.input_dim * (2 if spec.uses_drift_input else 1)
        self.x_enc = _Block(
            [state_in] + [h] * X_ENC_LAYERS,
            spec.activation, spec.dropout_rate, bare_last=False, rng=rng,
        )
        self.t_enc = _Block(
            [spec.time_embed_dim] + [h] * T_ENC_LAYERS,
            spec.activation, spec.dropout_rate, bare_last=False, rng=rng,
        )
        self.head = _Block(
            [2 * h] + [h] * (HEAD_LAYERS - 1) + [spec.output_dim],
            spec.activation, spec.dropout_rate, bare_last=True, rng=rng, zero_last=True,
        )
        self._bufs = np.empty((2, 0, h))  # inference layer buffers, grown on demand
        # Move the drawn values into one vector and make every layer a view of it.
        self.theta = np.concatenate([a.ravel() for blk in self._blocks()
                                     for wb in zip(blk.weights, blk.biases) for a in wb])
        for blk, views in zip(self._blocks(), self._layer_views(self.theta)):
            blk.weights = [w for w, _ in views]
            blk.biases = [b for _, b in views]

    # -- parameters ---------------------------------------------------------

    def _blocks(self):
        return (self.x_enc, self.t_enc, self.head)

    def _layer_views(self, vec):
        """Per block, the (W, b) views of each layer into a vector laid out
        like ``theta``."""
        out, pos = [], 0
        for blk in self._blocks():
            out.append([])
            for w, b in zip(blk.weights, blk.biases):
                end = pos + w.size
                out[-1].append((vec[pos:end].reshape(w.shape), vec[end : end + b.size]))
                pos = end + b.size
        return out

    def params(self) -> ParamSet:
        table = []
        for bname, block in zip(self.block_names, self._blocks()):
            for li, (w, b) in enumerate(zip(block.weights, block.biases)):
                table += [(f"{bname}/{li}/W", w.shape), (f"{bname}/{li}/b", b.shape)]
        return ParamSet(self.theta, table)

    # -- forward / backward -------------------------------------------------

    def _prepare(self, t, x, extra):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D batch of states")
        if x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"state dimension {x.shape[1]} does not match spec input_dim "
                f"{self.spec.input_dim}"
            )
        t = np.asarray(t, dtype=float)
        if t.ndim != 0 and t.shape != (x.shape[0],):
            raise ValueError("t must be a scalar or one value per row of x")
        if self.spec.uses_drift_input:
            if extra is None:
                raise ValueError("this network expects a drift value input")
            extra = np.asarray(extra, dtype=float)
            if extra.shape != x.shape:
                raise ValueError("drift value input must match the state shape")
            net_in = np.concatenate([x, extra], axis=1)
        else:
            net_in = x
        return t, net_in

    def forward(self, t, x, extra=None, train=False, rng=None, keep_cache=True):
        """Returns (output, cache).

        With ``keep_cache=False`` an eval-mode pass takes the cache-free
        inference path and the cache is None.
        """
        if train and self.spec.dropout_rate > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        t, net_in = self._prepare(t, x, extra)
        if not (train or keep_cache):
            return self._infer(t, net_in), None
        if t.ndim == 0:
            t = np.full(net_in.shape[0], float(t))
        emb = time_embed(t, self.spec.time_embed_dim)
        hx, cx = self.x_enc.forward(net_in, train, rng, "x_enc")
        ht, ct = self.t_enc.forward(emb, train, rng, "t_enc")
        joint = np.concatenate([hx, ht], axis=1)
        out, ch = self.head.forward(joint, train, rng, "head")
        return out, (cx, ct, ch)

    def _infer(self, t, net_in):
        """Eval-mode output without caches. A scalar ``t`` runs the time
        branch on one row; head layer 0 is split into its state and time
        halves, hx @ Wx.T + (ht @ Wt.T + b0), so no concatenation is built."""
        n, h = net_in.shape[0], self.spec.hidden_dim
        t = np.atleast_1d(t)
        rows = max(n, len(t))
        if rows > self._bufs.shape[1]:
            self._bufs = np.empty((2, rows, h))
        a, b = self._bufs
        ht = self.t_enc.infer(time_embed(t, self.spec.time_embed_dim),
                              (a[: len(t)], b[: len(t)]), "t_enc")
        w0 = self.head.weights[0]
        t_bias = ht @ w0[:, h:].T
        t_bias += self.head.biases[0]
        a, b = a[:n], b[:n]
        hx = self.x_enc.infer(net_in, (a, b), "x_enc")  # an odd layer count leaves hx in a
        return self.head.infer(hx, (b, a), "head", first=(w0[:, :h], t_bias))

    def backward(self, cache, grad_out) -> np.ndarray:
        """Parameter gradient, one fresh vector laid out like ``theta``, from
        an output cotangent."""
        cx, ct, ch = cache
        h = self.spec.hidden_dim
        grad = np.empty_like(self.theta)
        gx, gt, gh = self._layer_views(grad)
        g_joint = self.head.backward(ch, grad_out, gh)
        self.x_enc.backward(cx, g_joint[:, :h], gx)
        self.t_enc.backward(ct, g_joint[:, h:], gt)
        return grad


class DriftNet(_TimeConditionedNet):
    """Learned drift b(t, x). Zero final layer makes the initial net return 0."""

    def __init__(self, spec: MlpSpec, rng=None):
        if spec.uses_drift_input:
            raise ValueError("drift networks do not take a drift input")
        super().__init__(spec, rng)

    def __call__(self, t, x, train=False, rng=None):
        out, _ = self.forward(t, x, train=train, rng=rng, keep_cache=False)
        return out


class DoobNet(_TimeConditionedNet):
    """Endpoint-score correction m(t, x[, b]).

    The drift value ``b`` is consumed as a constant feature: no gradient is
    ever propagated from this network back into the drift parameters.
    """

    def __call__(self, t, x, b_value=None, train=False, rng=None):
        extra = b_value if self.spec.uses_drift_input else None
        out, _ = self.forward(t, x, extra=extra, train=train, rng=rng, keep_cache=False)
        return out


def make_drift_spec(d: int, **overrides) -> MlpSpec:
    return MlpSpec(input_dim=d, output_dim=d, **overrides)


def make_doob_spec(d: int, uses_drift_input: bool = True, **overrides) -> MlpSpec:
    return MlpSpec(input_dim=d, output_dim=d, uses_drift_input=uses_drift_input, **overrides)
