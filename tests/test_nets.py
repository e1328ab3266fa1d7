import hashlib
import math

import numpy as np
import pytest

from bridgekit import DoobNet, DriftNet, MlpSpec, time_embed
from bridgekit.errors import NumericsError
from bridgekit.nets import ACTIVATIONS, layer_table, make_doob_spec, make_drift_spec


def small_spec(**overrides):
    kw = dict(input_dim=3, output_dim=3, hidden_dim=6, time_embed_dim=8, activation="selu")
    kw.update(overrides)
    return MlpSpec(**kw)


def randomize(net, seed, scale=0.3):
    net.theta[...] = np.random.default_rng(seed).normal(0.0, scale, net.theta.size)
    return net


# ---------------------------------------------------------------------------
# Time embedding
# ---------------------------------------------------------------------------


def test_time_embed_at_zero():
    np.testing.assert_array_equal(time_embed(0.0, 4), [0.0, 1.0, 0.0, 1.0])


def test_time_embed_at_one_dim_two():
    np.testing.assert_allclose(
        time_embed(1.0, 2), [0.8414709848078965, 0.5403023058681398], rtol=1e-15
    )


def test_time_embed_frequency_decay():
    # dim = 4: w_0 = 1, w_1 = 10000^(-1/2) = 0.01.
    emb = time_embed(1.0, 4)
    assert emb[0] == pytest.approx(math.sin(1.0))
    assert emb[2] == pytest.approx(math.sin(0.01))
    assert 1.0 > 10000.0 ** (-0.5) == pytest.approx(0.01)


def test_time_embed_rejects_odd_dim():
    with pytest.raises(ValueError):
        time_embed(0.5, 5)
    with pytest.raises(ValueError):
        time_embed(0.5, 0)


def test_time_embed_batched():
    t = np.array([0.0, 0.3, 1.0])
    emb = time_embed(t, 6)
    assert emb.shape == (3, 6)
    np.testing.assert_allclose(emb[0], time_embed(0.0, 6))


# ---------------------------------------------------------------------------
# Forward-pass contracts
# ---------------------------------------------------------------------------


def test_zero_initialized_outputs_are_zero():
    x = np.random.default_rng(0).normal(size=(5, 3))
    drift = DriftNet(small_spec(), rng=np.random.default_rng(1))
    assert np.array_equal(drift(0.3, x), np.zeros((5, 3)))
    doob = DoobNet(small_spec(uses_drift_input=True), rng=np.random.default_rng(2))
    assert np.array_equal(doob(0.3, x, b_value=x), np.zeros((5, 3)))


def test_eval_mode_is_deterministic():
    net = randomize(DriftNet(small_spec()), 3)
    x = np.random.default_rng(4).normal(size=(4, 3))
    out1 = net(0.7, x)
    out2 = net(0.7, x)
    assert np.array_equal(out1, out2)
    assert not np.array_equal(out1, np.zeros_like(out1))


def test_dropout_mask_determinism():
    net = randomize(DriftNet(small_spec(dropout_rate=0.3)), 5)
    x = np.random.default_rng(6).normal(size=(16, 3))
    a, _ = net.forward(0.2, x, train=True, rng=np.random.default_rng(99))
    b, _ = net.forward(0.2, x, train=True, rng=np.random.default_rng(99))
    c, _ = net.forward(0.2, x, train=True, rng=np.random.default_rng(100))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_train_mode_requires_rng_when_dropout_active():
    net = randomize(DriftNet(small_spec(dropout_rate=0.1)), 7)
    with pytest.raises(ValueError):
        net.forward(0.5, np.zeros((2, 3)), train=True)


def test_doob_rejects_drift_value_when_disabled():
    net = randomize(DoobNet(small_spec(uses_drift_input=False)), 8)
    x = np.random.default_rng(9).normal(size=(4, 3))
    with pytest.raises(ValueError, match="takes no drift value input"):
        net(0.4, x, b_value=np.zeros_like(x))
    with pytest.raises(ValueError, match="takes no drift value input"):
        net.forward(0.4, x, extra=np.zeros_like(x), train=True, rng=np.random.default_rng(0))
    assert net(0.4, x).shape == x.shape


@pytest.mark.parametrize("t, x, extra, message", [
    (0.4, np.zeros(3), np.zeros(3), "x must be a 2-D batch of states"),
    (0.4, np.zeros((4, 2)), np.zeros((4, 2)), "state dimension 2 does not match spec input_dim 3"),
    (np.zeros(3), np.zeros((4, 3)), np.zeros((4, 3)), "t must be a scalar or one value per row"),
    (0.4, np.zeros((4, 3)), None, "this network expects a drift value input"),
    (0.4, np.zeros((4, 3)), np.zeros((4, 2)), "drift value input must match the state shape"),
], ids=["x-not-2d", "x-dimension", "t-length", "drift-value-missing", "drift-value-shape"])
def test_network_inputs_of_the_wrong_shape_are_refused(t, x, extra, message):
    net = randomize(DoobNet(small_spec(uses_drift_input=True)), 10)
    with pytest.raises(ValueError, match=message):
        net.forward(t, x, extra=extra)


def test_doob_uses_drift_value_when_enabled():
    net = randomize(DoobNet(small_spec(uses_drift_input=True)), 10)
    x = np.random.default_rng(11).normal(size=(4, 3))
    out_a = net(0.4, x, b_value=np.zeros_like(x))
    out_b = net(0.4, x, b_value=np.ones_like(x))
    assert not np.array_equal(out_a, out_b)


def test_nan_input_raises_with_layer_location():
    net = randomize(DriftNet(small_spec()), 12)
    x = np.zeros((2, 3))
    x[0, 0] = np.nan
    with pytest.raises(NumericsError, match="x_enc layer 0"):
        net(0.5, x)


def test_dimension_mismatch_raises():
    net = DriftNet(small_spec(), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net(0.5, np.zeros((2, 4)))


def activate(name, z, with_derivative=False):
    """The in-place activation ``name`` applied to a copy of z; with
    ``with_derivative``, (value, derivative)."""
    z = np.array(z, dtype=float)
    deriv = np.empty_like(z) if with_derivative else None
    out = ACTIVATIONS[name](z, np.empty_like(z), deriv)
    return (out, deriv) if with_derivative else out


def test_activation_formulas():
    z = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
    scale, alpha = 1.0507009873554805, 1.6732632423543772
    np.testing.assert_allclose(
        activate("selu", z), scale * np.where(z > 0, z, alpha * (np.exp(z) - 1)), rtol=1e-12
    )
    np.testing.assert_allclose(activate("silu", z), z / (1 + np.exp(-z)), rtol=1e-12)
    np.testing.assert_allclose(activate("relu", z), np.maximum(z, 0))
    np.testing.assert_allclose(activate("leaky_relu", z), np.where(z > 0, z, 0.01 * z))


# Pre-activations for the derivative guards: both zeros, the far negative
# tail, and points where no formula below cancels badly.
DERIV_Z = np.array([-745.0, -700.0, -100.0, -50.0, -40.0, -30.0, -5.0, -2.0, -1.0, -0.5,
                    -1e-8, -5e-324, -0.0, 0.0, 5e-324, 1e-8, 0.5, 1.0, 2.0, 5.0, 40.0, 700.0])


def analytic_derivative(name, z):
    scale, alpha, slope = 1.0507009873554805, 1.6732632423543772, 0.01
    if name == "selu":
        return np.where(z > 0, scale, scale * alpha * np.exp(np.minimum(z, 0.0)))
    if name == "silu":
        e = np.exp(-np.abs(z))  # s = 1 / (1 + e) on z >= 0, e / (1 + e) below
        s = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        one_minus_s = np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
        return s + z * s * one_minus_s
    return np.where(z > 0, 1.0, 0.0 if name == "relu" else slope)


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_train_mode_derivative_matches_analytic(activation):
    value, deriv = activate(activation, DERIV_Z, with_derivative=True)
    assert np.array_equal(value, activate(activation, DERIV_Z))  # the value is unchanged
    expected = analytic_derivative(activation, DERIV_Z)
    np.testing.assert_allclose(deriv, expected, rtol=1e-14, atol=0.0)
    if activation != "silu":  # exactly the constant slope above 0
        assert np.array_equal(deriv[DERIV_Z > 0], expected[DERIV_Z > 0])


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_cached_derivative_is_that_of_the_layer_pre_activation(activation):
    net = randomize(DriftNet(small_spec(activation=activation, dropout_rate=0.2)), 80)
    x = np.random.default_rng(81).normal(size=(9, 3))
    _, (cx, ct, ch) = net.forward(np.random.default_rng(82).random(9), x, train=True,
                                  rng=np.random.default_rng(83))
    for block, cache in ((net.x_enc, cx), (net.t_enc, ct), (net.head, ch)):
        for li, (h, deriv, mask) in enumerate(cache):
            if deriv is None:
                assert li == block.n_layers - 1 and block is net.head and mask is None
                continue
            z = h @ block.weights[li].T + block.biases[li]
            assert np.array_equal(deriv, activate(activation, z, with_derivative=True)[1])


def test_one_forward_draws_its_masks_as_per_layer_draws():
    spec = small_spec(dropout_rate=0.3)
    net = randomize(DriftNet(spec), 84)
    x = np.random.default_rng(85).normal(size=(11, 3))
    rng = np.random.default_rng(86)
    _, cache = net.forward(np.random.default_rng(87).random(11), x, train=True, rng=rng)
    masks = [mask for block in cache for _, _, mask in block if mask is not None]
    assert len(masks) == 7
    per_layer = np.random.default_rng(86)
    for mask in masks:  # x_enc 0-2, t_enc 0-1, head 0-1: the forward order
        keep = per_layer.random((11, spec.hidden_dim)) >= spec.dropout_rate
        assert np.array_equal(mask, keep / (1.0 - spec.dropout_rate))
    assert rng.random() == per_layer.random()


def test_cached_pass_checks_nothing_and_check_finite_names_the_layer():
    net = randomize(DriftNet(small_spec()), 88)
    x = np.random.default_rng(89).normal(size=(4, 3))
    t = np.random.default_rng(90).random(4)
    out, cache = net.forward(t, x)
    net.check_finite(cache, out)  # finite: no error
    net.t_enc.weights[1][0, 0] = np.nan
    out, cache = net.forward(t, x)  # no per-layer check on a cached pass
    with pytest.raises(NumericsError, match="t_enc layer 1"):
        net.check_finite(cache, out)
    x[1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        out, cache = net.forward(t, x)
    with pytest.raises(NumericsError, match="x_enc layer 0"):
        net.check_finite(cache, out)


# ---------------------------------------------------------------------------
# Gradient oracle: central finite differences on random directions
# ---------------------------------------------------------------------------


def directional_check(value_fn, grad_flat, base, n_dirs=20, h=1e-4, seed=21):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.normal(size=base.size)
        d /= np.linalg.norm(d)
        fd = (value_fn(base + h * d) - value_fn(base - h * d)) / (2 * h)
        an = float(grad_flat @ d)
        worst = max(worst, abs(fd - an) / max(1e-12, abs(fd), abs(an)))
    return worst


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_drift_gradients_match_finite_differences(activation):
    net = randomize(DriftNet(small_spec(activation=activation)), 30)
    base = net.theta.copy()
    x = np.random.default_rng(31).normal(size=(4, 3))
    t = np.random.default_rng(32).random(4)
    v = np.random.default_rng(33).normal(size=(4, 3))

    def value(vec):
        net.theta[...] = vec
        out, _ = net.forward(t, x)
        net.theta[...] = base
        return float(np.sum(out * v))

    out, cache = net.forward(t, x)
    grad = net.backward(cache, v)
    assert directional_check(value, grad, base) < 1e-4


def test_doob_gradients_match_finite_differences():
    net = randomize(DoobNet(small_spec(uses_drift_input=True)), 40)
    base = net.theta.copy()
    x = np.random.default_rng(41).normal(size=(4, 3))
    b_val = np.random.default_rng(42).normal(size=(4, 3))
    t = np.random.default_rng(43).random(4)
    v = np.random.default_rng(44).normal(size=(4, 3))

    def value(vec):
        net.theta[...] = vec
        out, _ = net.forward(t, x, extra=b_val)
        net.theta[...] = base
        return float(np.sum(out * v))

    out, cache = net.forward(t, x, extra=b_val)
    grad = net.backward(cache, v)
    assert directional_check(value, grad, base) < 1e-4


def test_gradients_with_fixed_dropout_masks():
    net = randomize(DriftNet(small_spec(dropout_rate=0.2)), 50)
    base = net.theta.copy()
    x = np.random.default_rng(51).normal(size=(4, 3))
    t = np.random.default_rng(52).random(4)
    v = np.random.default_rng(53).normal(size=(4, 3))

    def value(vec):
        net.theta[...] = vec
        out, _ = net.forward(t, x, train=True, rng=np.random.default_rng(777))
        net.theta[...] = base
        return float(np.sum(out * v))

    out, cache = net.forward(t, x, train=True, rng=np.random.default_rng(777))
    grad = net.backward(cache, v)
    assert directional_check(value, grad, base) < 1e-4


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(input_dim=0, output_dim=1)
    with pytest.raises(ValueError):
        MlpSpec(input_dim=1, output_dim=1, time_embed_dim=7)
    with pytest.raises(ValueError):
        MlpSpec(input_dim=1, output_dim=1, dropout_rate=1.0)
    with pytest.raises(ValueError):
        MlpSpec(input_dim=1, output_dim=1, activation="tanh")
    # A dimension must be an int: 4.0 == 4 would pass a layer-table comparison.
    for name, value in (("hidden_dim", 4.0), ("time_embed_dim", 2.0), ("input_dim", 2.0),
                        ("hidden_dim", True), ("output_dim", np.int64(2))):
        kw = dict(input_dim=2, output_dim=2)
        kw[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
            MlpSpec(**kw)
    # The flags are taken by type, not by truthiness or comparison.
    for name, value in (("uses_drift_input", "no"), ("uses_drift_input", 1),
                        ("dropout_rate", False), ("dropout_rate", "0.1")):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            MlpSpec(input_dim=2, output_dim=2, **{name: value})


def test_drift_net_rejects_drift_input_spec():
    with pytest.raises(ValueError):
        DriftNet(small_spec(uses_drift_input=True))


def test_layers_are_views_of_the_flat_vector():
    net = randomize(DoobNet(small_spec(uses_drift_input=True)), 61)
    x = np.random.default_rng(62).normal(size=(5, 3))
    b_val = np.random.default_rng(63).normal(size=(5, 3))
    before, _ = net.forward(0.3, x, extra=b_val)
    assert net.params().theta is net.theta
    net.theta *= 1.5
    after, _ = net.forward(0.3, x, extra=b_val)
    assert not np.allclose(before, after)
    assert all(np.shares_memory(a, net.theta) for blk in (net.x_enc, net.t_enc, net.head)
               for a in blk.weights + blk.biases)


def test_pickled_and_copied_nets_compute_the_same_and_own_their_theta():
    import copy
    import pickle

    net = randomize(DoobNet(small_spec(uses_drift_input=True)), 67)
    x = np.random.default_rng(68).normal(size=(5, 3))
    b_val = np.random.default_rng(69).normal(size=(5, 3))
    expected = net(0.3, x, b_value=b_val)
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        np.testing.assert_array_equal(twin(0.3, x, b_value=b_val), expected)
        assert all(np.shares_memory(a, twin.theta)
                   for blk in (twin.x_enc, twin.t_enc, twin.head)
                   for a in blk.weights + blk.biases)
        twin.theta[:] = 0.0
        assert not np.any(twin(0.3, x, b_value=b_val))
        np.testing.assert_array_equal(net(0.3, x, b_value=b_val), expected)


# sha256 of the initial theta as bridgekit 0.1.20 drew it: drift nets from
# default_rng(0), correction nets from default_rng(1); hidden width 8 with
# time_embed_dim 4, width 64 with 64. The activation does not enter the draw.
INITIAL_THETA_SHA256 = {
    ("drift", 1, 8): "9271fe94954aad7cb18def4f203761f831651ceb9df88f375cd42b51dee7fee9",
    ("drift", 1, 64): "bdce1b0a6a7f7b7ef246fa22862f39c5957483688c05e35bc6482f9d0c0cda87",
    ("drift", 2, 8): "910ec56a79c44e2288cf5694f90de83ea49b5a8593780acb890395426fdf9433",
    ("drift", 2, 64): "c1296cae85b5e476b46c7a5c3eaf339b7f5630bd8b220987d4811f5f8ef4855a",
    ("drift", 3, 8): "d5c9b6ffba5e37c17cdb297facaf96a177baa37f9e9a43e1e538a9ca3e55fa69",
    ("drift", 3, 64): "4f0df1ae5a3ff09315988855de1bf19cde8240b91a94cf6642376247b8ad77c3",
    ("doob", 1, 8): "1060d8247b2b5d2c14c2437e0f05984c1ee28b84977229041e75cb7cfdc9f3ea",
    ("doob", 1, 64): "7d9d2ce93948b576b8ea1026862a0c63dd3e0f87aed5a559aa45f2ffbfe979a9",
    ("doob", 2, 8): "b6cb49b94b1f996af97864e73a706c696dcfed1338a506758e310ed292564426",
    ("doob", 2, 64): "55a09b96d8a044d7d2507d42139b9413c32bfa6ee5769983f10ff5dc5464f36c",
    ("doob", 3, 8): "2d831c46dc76f6442ee33ef6be53ea6db00c5612813065709fe8d13348976144",
    ("doob", 3, 64): "9005c2e40795ef493a5634d83b987867cb2fba302eb92773503f96a16152e890",
}


def theta_sha256(net):
    return hashlib.sha256(net.theta.tobytes()).hexdigest()


@pytest.mark.parametrize("kind, d, hidden", sorted(INITIAL_THETA_SHA256))
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_initial_parameters_are_those_of_0_1_20(kind, d, hidden, activation):
    cls, make_spec, seed = (DriftNet, make_drift_spec, 0) if kind == "drift" else (
        DoobNet, make_doob_spec, 1)
    spec = make_spec(d, hidden_dim=hidden, time_embed_dim=4 if hidden == 8 else 64,
                     activation=activation)
    net = cls(spec, rng=np.random.default_rng(seed))
    assert theta_sha256(net) == INITIAL_THETA_SHA256[kind, d, hidden]


def test_initial_parameters_without_an_rng_and_from_another_seed():
    assert theta_sha256(DriftNet(make_drift_spec(2))) == INITIAL_THETA_SHA256["drift", 2, 64]
    net = DriftNet(make_drift_spec(3, hidden_dim=8, time_embed_dim=4),
                   rng=np.random.default_rng(5))
    assert theta_sha256(net) == (
        "dcca1c745fcad44aba89d3aaa2a9e1d802998a9f832fccbc39d82eee42a81aa1")


def test_a_net_built_from_theta_owns_a_copy():
    spec = small_spec(uses_drift_input=True)
    source = randomize(DoobNet(spec), 70)
    v = source.theta.copy()
    net = DoobNet(spec, theta=v)
    assert not np.shares_memory(net.theta, v)
    assert all(np.shares_memory(a, net.theta) for blk in (net.x_enc, net.t_enc, net.head)
               for a in blk.weights + blk.biases)
    x = np.random.default_rng(71).normal(size=(5, 3))
    expected = source(0.3, x, b_value=x)
    np.testing.assert_array_equal(net(0.3, x, b_value=x), expected)
    v[:] = 0.0
    np.testing.assert_array_equal(net(0.3, x, b_value=x), expected)


def test_theta_must_have_the_size_of_the_layer_table():
    spec = small_spec()
    n = sum(math.prod(shape) for _, shape in layer_table(spec))
    assert DriftNet(spec).params().shape_table == layer_table(spec)
    assert DriftNet(spec).theta.shape == (n,)
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(ValueError, match=f"theta must be a vector of {n} values"):
            DriftNet(spec, theta=bad)


def test_rng_and_theta_together_are_refused():
    spec = small_spec()
    theta = DriftNet(spec).theta
    with pytest.raises(ValueError, match="not both"):
        DriftNet(spec, rng=np.random.default_rng(0), theta=theta)


def test_backward_returns_one_vector_in_param_order():
    net = randomize(DriftNet(small_spec()), 64)
    x = np.random.default_rng(65).normal(size=(4, 3))
    out, cache = net.forward(np.random.default_rng(66).random(4), x)
    grad = net.backward(cache, np.ones_like(out))
    assert grad.shape == net.theta.shape
    assert not np.shares_memory(grad, net.theta)
    # The last head layer's bias gradient is the column sum of the cotangent.
    assert net.params().shape_table[-1] == ("head/2/b", (3,))
    np.testing.assert_array_equal(grad[-3:], [4.0, 4.0, 4.0])


# ---------------------------------------------------------------------------
# Cache-free inference path
# ---------------------------------------------------------------------------


def _inference_pair(activation, seed):
    """A drift net and a drift-input correction net with non-zero heads."""
    drift = randomize(DriftNet(small_spec(activation=activation)), seed)
    doob = randomize(DoobNet(small_spec(activation=activation, uses_drift_input=True)), seed + 1)
    return drift, doob


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_inference_matches_cached_forward(activation):
    drift, doob = _inference_pair(activation, 70)
    rng = np.random.default_rng(71)
    x = rng.normal(size=(37, 3))
    b_val = rng.normal(size=(37, 3))
    for t in (0.0, 0.41, 1.0):
        for t_arg in (t, np.full(len(x), t)):
            np.testing.assert_allclose(drift(t_arg, x), drift.forward(t, x)[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(doob(t_arg, x, b_value=b_val),
                                       doob.forward(t, x, extra=b_val)[0], rtol=0, atol=1e-12)
    t_rows = rng.random(len(x))
    np.testing.assert_allclose(drift(t_rows, x), drift.forward(t_rows, x)[0], rtol=0, atol=1e-12)


def test_inference_buffers_reused_across_row_counts():
    rng = np.random.default_rng(72)
    big, small = rng.normal(size=(4096, 3)), rng.normal(size=(5, 3))
    b_big, b_small = rng.normal(size=(4096, 3)), rng.normal(size=(5, 3))
    drift, doob = _inference_pair("selu", 73)
    got = [(drift(0.3, x), doob(0.3, x, b_value=b)) for x, b in
           ((big, b_big), (small, b_small), (big, b_big))]
    for (d_out, m_out), x, b in zip(got, (big, small, big), (b_big, b_small, b_big)):
        fresh_drift, fresh_doob = _inference_pair("selu", 73)
        assert np.array_equal(d_out, fresh_drift(0.3, x))
        assert np.array_equal(m_out, fresh_doob(0.3, x, b_value=b))


def test_inference_output_is_not_overwritten_by_next_call():
    net = randomize(DriftNet(small_spec()), 74)
    x = np.random.default_rng(75).normal(size=(8, 3))
    first = net(0.2, x)
    kept = first.copy()
    net(0.9, 2.0 * x)
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("where", ["x_enc", "t_enc", "head"])
def test_inference_nan_names_the_layer(where):
    net = randomize(DriftNet(small_spec()), 76)
    x = np.random.default_rng(77).normal(size=(4, 3))
    if where == "x_enc":
        x[2, 1] = np.nan
    else:
        getattr(net, where).weights[0][0, 0] = np.nan
    with pytest.raises(NumericsError, match=f"{where} layer 0"):
        net(0.5, x)


def test_call_and_check_finite_name_the_same_layer():
    # NaN in layer 0 of both encoders: a call and check_finite both name the
    # first non-finite layer in the order x_enc, t_enc, head.
    net = randomize(DriftNet(small_spec()), 76)
    net.x_enc.weights[0][0, 0] = np.nan
    net.t_enc.weights[0][0, 0] = np.nan
    x = np.random.default_rng(77).normal(size=(4, 3))
    with pytest.raises(NumericsError, match="^non-finite activation in x_enc layer 0$"):
        net(0.5, x)
    out, cache = net.forward(0.5, x)
    with pytest.raises(NumericsError, match="^non-finite activation in x_enc layer 0$"):
        net.check_finite(cache, out)


def test_call_never_returns_a_non_finite_output(monkeypatch):
    # When the cached pass rounds to finite values where the inference path
    # did not, no layer is named, and the call is still an error.
    net = randomize(DriftNet(small_spec()), 93)
    x = np.random.default_rng(94).normal(size=(4, 3))
    monkeypatch.setattr(net, "_infer", lambda t, net_in: np.full((len(net_in), 3), np.inf))
    with pytest.raises(NumericsError, match="^non-finite network output$"):
        net(0.5, x)


@pytest.mark.parametrize("activation", ["selu", "relu"])
def test_call_with_a_non_finite_layer_that_later_layers_map_back_is_no_error(activation):
    # x_enc layer 0 overflows to +inf; layer 1's negative weights take that
    # to -inf, which the activation maps to finite values. A call returns the
    # cached pass's output, as a training pass would carry on.
    net = randomize(DriftNet(small_spec(activation=activation)), 95)
    net.x_enc.weights[0][...] = 1e308
    net.x_enc.weights[1][...] = -np.abs(net.x_enc.weights[1])
    x = np.full((4, 3), 10.0)
    with np.errstate(over="ignore"):
        got = net(0.5, x)
        out, cache = net.forward(0.5, x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, out, rtol=0, atol=1e-12)
    with pytest.raises(NumericsError, match="x_enc layer 0"):
        net.check_finite(cache, out)  # training would ask only for a non-finite loss


def test_inference_allocates_no_layer_buffers():
    # Deterministic guard on the mechanism, not on time: after one warm-up
    # call a 4096-row eval call reuses the net's layer buffers, so its traced
    # allocation peak stays far below one (4096, 64) float64 array (2 MB).
    import tracemalloc

    net = randomize(DriftNet(MlpSpec(input_dim=2, output_dim=2)), 78, scale=0.1)
    x = np.random.default_rng(79).normal(size=(4096, 2))
    net(0.5, x)
    tracemalloc.start()
    try:
        net(0.5, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
