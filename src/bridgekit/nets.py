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

A network is its spec and one contiguous float64 vector ``theta``, laid out
block by block (x_enc, t_enc, head), layer by layer, W then b, as
``layer_table(spec)`` names the arrays from the spec alone; every layer's
weight and bias are views of theta. Built with ``theta=v`` a network copies
``v``; otherwise it draws its initial values from ``rng``. Pickling and deep
copies rebuild it from its spec and theta. ``backward`` returns the gradient
as one vector in the same layout, so the optimizer, the EMA and the model
file each handle one vector per network and only this module knows the layers.

Calling a network is always eval mode; a training pass is
``forward(t, x, train=True, rng=...)``. Each block runs one layer pass with
an optional cache. Without one (calling a network) every hidden layer writes
into buffers the network owns and reuses across calls; at a scalar ``t`` the
time branch runs on one row and is folded into the first head layer's bias,
and the returned array is always fresh. With a cache (training, or
``forward`` in eval mode) every layer's output is a fresh array, and the
layer keeps its input, the activation's derivative (computed alongside the
activation) and its dropout mask, so ``backward`` evaluates no activation
again; all of one forward's dropout masks come from one draw. The buffers
are per thread, so one network may be called from several threads at once.

No layer is checked as it runs; only ``check_finite`` names the first
non-finite layer, in the order x_enc, t_enc, head. Training asks it when its
loss is not finite, a call when its output is not (see ``forward``), so a
call never returns a non-finite array. A non-finite layer output that later
layers map back to finite values (as SELU and ReLU map -inf) is not an error.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from numbers import Real
from typing import NamedTuple, Optional

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
# scratch array of the same shape that the function may overwrite. Given
# ``deriv``, it also writes the derivative at the original ``z`` there, so a
# backward pass needs no gradient function of its own.


def _selu_(z, tmp, deriv=None):
    # scale * (max(z, 0) + alpha * expm1(min(z, 0))) is bit-equal to the
    # np.where form, and keeps expm1 off the overflowing branch.
    np.minimum(z, 0.0, out=tmp)
    if deriv is not None:  # scale * alpha * exp(min(z, 0)) below 0, scale above
        np.exp(tmp, out=deriv)
        deriv *= _SELU_ALPHA
    np.expm1(tmp, out=tmp)
    tmp *= _SELU_ALPHA
    np.maximum(z, 0.0, out=z)
    z += tmp
    z *= _SELU_SCALE
    if deriv is not None:
        # The output is positive exactly where z is; there alpha * exp(0) is
        # alpha, and alpha - (alpha - 1) is 1 exactly.
        np.greater(z, 0.0, out=tmp)
        tmp *= _SELU_ALPHA - 1.0
        deriv -= tmp
        deriv *= _SELU_SCALE
    return z


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _silu_(z, tmp, deriv=None):
    s = _sigmoid(z)
    if deriv is not None:  # s * (1 + z * (1 - s))
        np.subtract(1.0, s, out=deriv)
        deriv *= z
        deriv += 1.0
        deriv *= s
    return np.multiply(z, s, out=z)


def _relu_(z, tmp, deriv=None):
    if deriv is not None:
        np.greater(z, 0.0, out=deriv)
    return np.maximum(z, 0.0, out=z)


def _leaky_relu_(z, tmp, deriv=None):
    if deriv is not None:  # 1 on z > 0, else slope; (1 - slope) + slope == 1
        np.greater(z, 0.0, out=deriv)
        deriv *= 1.0 - _LEAKY_SLOPE
        deriv += _LEAKY_SLOPE
    # max(z, slope * z) picks z for z > 0 and slope * z otherwise (0 < slope < 1).
    return np.maximum(z, np.multiply(z, _LEAKY_SLOPE, out=tmp), out=z)


ACTIVATIONS = {
    "selu": _selu_,
    "silu": _silu_,
    "relu": _relu_,
    "leaky_relu": _leaky_relu_,
}


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even")
        rate = self.dropout_rate
        if isinstance(rate, bool) or not isinstance(rate, Real) or not 0.0 <= rate < 1.0:
            raise ValueError("dropout_rate must be a real number in [0, 1)")
        if not isinstance(self.uses_drift_input, bool):
            raise ValueError("uses_drift_input must be a bool")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from {sorted(ACTIVATIONS)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(**d)


class ParamSet(NamedTuple):
    """A network's flat parameter vector and the name and shape of every
    layer array laid out in it, in order."""

    theta: np.ndarray
    shape_table: list[tuple[str, tuple[int, ...]]]


def layer_table(spec: MlpSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array of a network built from
    ``spec``, in ``theta`` order: block by block (x_enc, t_enc, head), layer
    by layer, W then b."""
    h = spec.hidden_dim
    blocks = (
        ("x_enc", [spec.input_dim * (2 if spec.uses_drift_input else 1)] + [h] * X_ENC_LAYERS),
        ("t_enc", [spec.time_embed_dim] + [h] * T_ENC_LAYERS),
        ("head", [2 * h] + [h] * (HEAD_LAYERS - 1) + [spec.output_dim]),
    )
    return [(f"{name}/{li}/{part}", shape)
            for name, sizes in blocks
            for li, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
            for part, shape in (("W", (n_out, n_in)), ("b", (n_out,)))]


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
    activation + dropout. ``layers`` holds each layer's (W, b)."""

    def __init__(self, activation, layers, bare_last):
        self._act = ACTIVATIONS[activation]
        self.bare_last = bare_last
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, h, bufs, first=None, cache=None, masks=None):
        """The block's output for input rows ``h``; one layer pass for both
        modes. Layer i applies its activation in place with
        ``bufs[(i + 1) % 2]`` as scratch. Without ``cache`` (eval mode) its
        product goes into ``bufs[i % 2]``, so ``bufs[0]`` must not hold ``h``
        (``bufs[1]`` may: h is dead once layer 0's product is formed), and a
        non-bare last layer returns a view of one buffer. With a ``cache``
        list, every layer's output is a fresh array and the layer appends
        (input, activation derivative, dropout mask) to the cache; ``masks``
        holds one mask per activated layer, or None for no dropout. A bare
        last layer returns a fresh array. ``first`` = (W, b) replaces layer
        0's weight and bias; ``b`` may hold one row per row of h. Nothing is
        checked: see ``_TimeConditionedNet.check_finite``.
        """
        last = self.n_layers - 1 if self.bare_last else None
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            if li == 0 and first is not None:
                w, b = first
            bare = li == last
            a = h @ w.T if bare or cache is not None else np.matmul(h, w.T, out=bufs[li % 2])
            a += b
            deriv = None if bare or cache is None else np.empty_like(a)
            mask = None if bare or masks is None else masks[li]
            if not bare:
                self._act(a, bufs[(li + 1) % 2], deriv)
            if mask is not None:
                a *= mask
            if cache is not None:
                cache.append((h, deriv, mask))
            h = a
        return h

    def backward(self, cache, grad_out, grads, input_grad=True):
        """Writes each layer's (dW, db) into the views ``grads``; returns the
        gradient wrt the block input, or None when ``input_grad`` is False.
        ``grad_out`` is overwritten when the last layer is activated."""
        g = grad_out
        for li in range(self.n_layers - 1, -1, -1):
            h, deriv, mask = cache[li]
            if mask is not None:
                g *= mask
            if deriv is not None:
                g *= deriv
            dw, db = grads[li]
            np.matmul(g.T, h, out=dw)
            g.sum(axis=0, out=db)
            if li == 0 and not input_grad:
                return None
            g = g @ self.weights[li]
        return g


class _TimeConditionedNet:
    """Shared machinery for the drift and correction networks."""

    block_names = ("x_enc", "t_enc", "head")

    def __init__(self, spec: MlpSpec, rng: Optional[np.random.Generator] = None,
                 theta: Optional[np.ndarray] = None):
        if rng is not None and theta is not None:
            raise ValueError("pass rng to draw the parameters or theta to copy, not both")
        self.spec = spec
        self._table = layer_table(spec)
        # Each layer's (W start, W end, W shape, b end) in theta.
        spans, pos = [], 0
        for (_, w_shape), (_, (n_out,)) in zip(self._table[0::2], self._table[1::2]):
            end = pos + w_shape[0] * w_shape[1]
            spans.append((pos, end, w_shape, end + n_out))
            pos = end + n_out
        if theta is None:
            rng = np.random.default_rng(0) if rng is None else rng
            self.theta = np.zeros(pos)
            for start, end, w_shape, _ in spans:
                bound = np.sqrt(1.0 / w_shape[1])
                self.theta[start:end] = rng.uniform(-bound, bound, size=w_shape).ravel()
            self.theta[start:end] = 0.0  # a zero last layer: the initial net returns 0
        else:
            self.theta = np.array(theta, dtype=np.float64)
            if self.theta.shape != (pos,):
                raise ValueError(f"theta must be a vector of {pos} values for this spec, "
                                 f"got shape {self.theta.shape}")
        t_end = X_ENC_LAYERS + T_ENC_LAYERS
        self._spans = (spans[:X_ENC_LAYERS], spans[X_ENC_LAYERS:t_end], spans[t_end:])
        self.x_enc, self.t_enc, self.head = (
            _Block(spec.activation, views, bare_last=name == "head")
            for name, views in zip(self.block_names, self._layer_views(self.theta))
        )
        self._local = threading.local()  # per-thread layer buffers, see _buffers

    def __reduce__(self):
        # Layer buffers are per-thread scratch; a copy is rebuilt from the
        # spec and a copy of theta.
        return type(self), (self.spec, None, self.theta)

    # -- parameters ---------------------------------------------------------

    def _layer_views(self, vec):
        """Per block, the (W, b) views of each layer into a vector laid out
        like ``theta``."""
        return [[(vec[p:e].reshape(shape), vec[e:q]) for p, e, shape, q in block]
                for block in self._spans]

    def params(self) -> ParamSet:
        return ParamSet(self.theta, self._table)

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
        if not self.spec.uses_drift_input:
            if extra is not None:
                raise ValueError("this network takes no drift value input")
            return t, x
        if extra is None:
            raise ValueError("this network expects a drift value input")
        extra = np.asarray(extra, dtype=float)
        if extra.shape != x.shape:
            raise ValueError("drift value input must match the state shape")
        return t, np.concatenate([x, extra], axis=1)

    def forward(self, t, x, extra=None, train=False, rng=None, keep_cache=True, emb=None):
        """Returns (output, cache).

        With ``keep_cache=False`` an eval-mode pass takes the cache-free
        inference path and the cache is None. A non-finite output reruns the
        inputs through a cached pass for ``check_finite`` to name the layer;
        if that pass rounds to finite values, the output is still an error.
        A pass that keeps a cache checks nothing: a caller that finds its
        output non-finite calls ``check_finite``. ``emb`` may pass
        ``time_embed(t, spec.time_embed_dim)`` rows already made.
        """
        if train and self.spec.dropout_rate > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        t, net_in = self._prepare(t, x, extra)
        if not (train or keep_cache):
            out = self._infer(t, net_in)
            if np.isfinite(out).all():
                return out, None
            with np.errstate(all="ignore"):
                out, cache = self.forward(t, x, extra)
            self.check_finite(cache, out)
            raise NumericsError("non-finite network output")
        n, rate = net_in.shape[0], self.spec.dropout_rate
        if emb is None:
            emb = time_embed(np.broadcast_to(t, (n,)), self.spec.time_embed_dim)
        mx = mt = mh = None
        if train and rate > 0.0:
            # One draw for the masks of every activated layer: the same stream
            # as one draw per layer in forward order.
            masks = rng.random((X_ENC_LAYERS + T_ENC_LAYERS + HEAD_LAYERS - 1, n,
                                self.spec.hidden_dim))
            np.greater_equal(masks, rate, out=masks)
            masks *= 1.0 / (1.0 - rate)  # keep / (1 - rate), bit for bit
            head_from = X_ENC_LAYERS + T_ENC_LAYERS
            mx, mt, mh = masks[:X_ENC_LAYERS], masks[X_ENC_LAYERS:head_from], masks[head_from:]
        scratch = self._buffers(n)
        cx, ct, ch = [], [], []
        hx = self.x_enc.forward(net_in, scratch, cache=cx, masks=mx)
        ht = self.t_enc.forward(emb, scratch, cache=ct, masks=mt)
        joint = np.concatenate([hx, ht], axis=1)
        out = self.head.forward(joint, scratch, cache=ch, masks=mh)
        return out, (cx, ct, ch)

    def check_finite(self, cache, out) -> None:
        """Raises NumericsError naming the first layer, in the order x_enc,
        t_enc, head, whose output in the pass that made ``cache`` and ``out`` is
        not finite. Each layer's output is the next layer's cached input."""
        cx, ct, ch = cache
        h = self.spec.hidden_dim
        joint = ch[0][0]
        outputs = (
            ("x_enc", [c[0] for c in cx[1:]] + [joint[:, :h]]),
            ("t_enc", [c[0] for c in ct[1:]] + [joint[:, h:]]),
            ("head", [c[0] for c in ch[1:]] + [out]),
        )
        for where, layers in outputs:
            for li, a in enumerate(layers):
                if not np.all(np.isfinite(a)):
                    raise NumericsError(f"non-finite activation in {where} layer {li}")

    def _buffers(self, rows):
        """The calling thread's two (rows, hidden) layer buffers, grown on
        demand."""
        bufs = getattr(self._local, "bufs", None)
        if bufs is None or rows > bufs.shape[1]:
            bufs = self._local.bufs = np.empty((2, rows, self.spec.hidden_dim))
        return bufs[:, :rows]

    def _infer(self, t, net_in):
        """Eval-mode output without caches. A scalar ``t`` runs the time
        branch on one row; head layer 0 is split into its state and time
        halves, hx @ Wx.T + (ht @ Wt.T + b0), so no concatenation is built."""
        n, h = net_in.shape[0], self.spec.hidden_dim
        t = np.atleast_1d(t)
        a, b = self._buffers(max(n, len(t)))
        ht = self.t_enc.forward(time_embed(t, self.spec.time_embed_dim), (a[: len(t)], b[: len(t)]))
        w0 = self.head.weights[0]
        t_bias = ht @ w0[:, h:].T
        t_bias += self.head.biases[0]
        a, b = a[:n], b[:n]
        hx = self.x_enc.forward(net_in, (a, b))  # an odd layer count leaves hx in a
        return self.head.forward(hx, (b, a), first=(w0[:, :h], t_bias))

    def backward(self, cache, grad_out) -> np.ndarray:
        """Parameter gradient, one fresh vector laid out like ``theta``, from
        an output cotangent."""
        cx, ct, ch = cache
        h = self.spec.hidden_dim
        grad = np.empty_like(self.theta)
        gx, gt, gh = self._layer_views(grad)
        g_joint = self.head.backward(ch, grad_out, gh)
        # Nothing uses the gradient wrt the state or the time features.
        self.x_enc.backward(cx, g_joint[:, :h], gx, input_grad=False)
        self.t_enc.backward(ct, g_joint[:, h:], gt, input_grad=False)
        return grad


class DriftNet(_TimeConditionedNet):
    """Learned drift b(t, x). Zero final layer makes the initial net return 0."""

    def __init__(self, spec: MlpSpec, rng=None, theta=None):
        if spec.uses_drift_input:
            raise ValueError("drift networks do not take a drift input")
        super().__init__(spec, rng, theta)

    def __call__(self, t, x):
        """Eval-mode output b(t, x)."""
        out, _ = self.forward(t, x, keep_cache=False)
        return out


class DoobNet(_TimeConditionedNet):
    """Endpoint-score correction m(t, x[, b]).

    The drift value ``b`` is consumed as a constant feature: no gradient is
    ever propagated from this network back into the drift parameters.
    """

    def __call__(self, t, x, b_value=None):
        """Eval-mode output m(t, x[, b]); ``b_value`` is required exactly when
        ``spec.uses_drift_input`` is set."""
        out, _ = self.forward(t, x, extra=b_value, keep_cache=False)
        return out


def make_drift_spec(d: int, **overrides) -> MlpSpec:
    return MlpSpec(input_dim=d, output_dim=d, **overrides)


def make_doob_spec(d: int, uses_drift_input: bool = True, **overrides) -> MlpSpec:
    return MlpSpec(input_dim=d, output_dim=d, uses_drift_input=uses_drift_input, **overrides)
