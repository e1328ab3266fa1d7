import tracemalloc

import numpy as np
import pytest

from bridgekit import AdamW, DoobNet, EmaTracker
from bridgekit.nets import make_doob_spec


def test_zero_gradient_applies_only_decoupled_decay():
    p = np.array([2.0, -3.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.01)
    opt.step(p, np.zeros(2))
    np.testing.assert_allclose(p, np.array([2.0, -3.0]) * (1 - 0.001), rtol=1e-15)


def test_unit_gradient_first_step_moves_by_lr():
    p = np.array([0.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    opt.step(p, np.array([1.0]))
    # Bias-corrected m_hat / sqrt(v_hat) = 1 up to eps.
    assert p[0] == pytest.approx(-0.1, abs=1e-8)


def scalar_adamw_oracle(grad_fn, w0, lr, n_steps, betas=(0.9, 0.999), eps=1e-8):
    """Independent scalar AdamW reference used to pin the update rule."""
    w, m, v = w0, 0.0, 0.0
    for k in range(1, n_steps + 1):
        g = grad_fn(w)
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        m_hat = m / (1 - betas[0] ** k)
        v_hat = v / (1 - betas[1] ** k)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_quadratic_convergence_matches_scalar_oracle():
    grad = lambda w: 2.0 * (w - 3.0)
    expected = scalar_adamw_oracle(grad, 0.0, 0.1, 100)
    p = np.array([0.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    for _ in range(100):
        opt.step(p, grad(p))
    assert p[0] == pytest.approx(expected, abs=1e-12)
    assert abs(p[0] - 3.0) < 0.2


def test_descent_on_convex_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=7)
    p = rng.normal(size=7)
    loss = lambda w: float(np.sum((w - target) ** 2))
    initial = loss(p)
    opt = AdamW(p, lr=0.05, weight_decay=0.0)
    for _ in range(200):
        opt.step(p, 2.0 * (p - target))
    assert loss(p) < initial


def test_shape_mismatch_raises():
    p = np.zeros(3)
    opt = AdamW(p, lr=0.1)
    with pytest.raises(ValueError):
        opt.step(p, np.zeros(4))
    with pytest.raises(ValueError):
        opt.step(p, np.zeros((2, 3)))


def test_ema_decay_extremes():
    params = np.array([5.0, -1.0])
    ema = EmaTracker(params, decay=0.0)
    params[...] = [7.0, 2.0]
    ema.update(params)
    np.testing.assert_array_equal(ema.shadow, [7.0, 2.0])

    ema = EmaTracker(np.array([5.0]), decay=1.0)
    ema.update(np.array([100.0]))
    np.testing.assert_array_equal(ema.shadow, [5.0])


def test_ema_two_updates_from_zero():
    ema = EmaTracker(np.zeros(1), decay=0.9)
    ones = np.ones(1)
    ema.update(ones)
    ema.update(ones)
    # 0.9 * 0.1 + 0.1 = 0.19.
    assert ema.shadow[0] == pytest.approx(0.19, abs=1e-15)


def test_ema_update_half_decay():
    ema = EmaTracker(np.zeros(2), decay=0.5)
    ema.update(np.ones(2))
    np.testing.assert_array_equal(ema.shadow, [0.5, 0.5])


def test_ema_shape_mismatch():
    ema = EmaTracker(np.zeros(2), decay=0.5)
    with pytest.raises(ValueError):
        ema.update(np.zeros(3))


# ---------------------------------------------------------------------------
# One flat vector per network
# ---------------------------------------------------------------------------


def _doob_layout():
    """Parameter vector and per-layer sizes of the default d = 2 DoobNet."""
    net = DoobNet(make_doob_spec(2), rng=np.random.default_rng(0))
    sizes = [int(np.prod(shape)) for _, shape in net.params().shape_table]
    return net.params().flat(), sizes


def test_flat_updates_bit_equal_per_array_reference():
    flat, sizes = _doob_layout()
    assert flat.size == 29506
    cuts = np.cumsum(sizes)[:-1]
    lr, b1, b2, eps, wd, decay = 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.9
    # Per-array reference: the update written array by array, in textbook form.
    ref = [a.copy() for a in np.split(flat, cuts)]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    ref_ema = [a.copy() for a in ref]
    p = flat.copy()
    opt = AdamW(p, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    ema = EmaTracker(p, decay=decay)
    rng = np.random.default_rng(1)
    for k in range(1, 301):
        g = rng.normal(size=p.size)
        opt.step(p, g)
        ema.update(p)
        bc1, bc2 = 1.0 - b1 ** k, 1.0 - b2 ** k
        for a, ga, m, v, s in zip(ref, np.split(g, cuts), ref_m, ref_v, ref_ema):
            m *= b1
            m += (1.0 - b1) * ga
            v *= b2
            v += (1.0 - b2) * ga * ga
            a -= lr * ((m / bc1) / (np.sqrt(v / bc2) + eps) + wd * a)
            s *= decay
            s += (1.0 - decay) * a
    assert np.array_equal(p, np.concatenate(ref))
    assert np.array_equal(ema.shadow, np.concatenate(ref_ema))


def test_warm_steps_allocate_no_vector_sized_temporary():
    p, _ = _doob_layout()
    g = np.random.default_rng(2).normal(size=p.size)
    opt = AdamW(p, lr=1e-3)
    ema = EmaTracker(p)
    opt.step(p, g)
    ema.update(p)
    for update in (lambda: opt.step(p, g), lambda: ema.update(p)):
        tracemalloc.start()
        update()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * p.size
