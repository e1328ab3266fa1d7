import numpy as np
import pytest
from scipy import stats

from bridgekit import (
    AlignedDataset,
    DoobNet,
    DriftNet,
    MlpSpec,
    TrainConfig,
    generate_gauss_pairs,
    loss_batch,
    sample_training_batch,
    train,
)
from bridgekit.errors import ConfigError, NumericsError
from bridgekit.sde import SINGULARITY_GUARD, bridge_drift_target
from bridgekit.training import (
    TrainingBatch,
    format_config,
    parse_config,
    write_loss_trace,
)

GAUSS = generate_gauss_pairs(40, 2, shift=np.array([1.0, -1.0]), rng=np.random.default_rng(0))


def small_nets(uses_drift=True, seed=0, scale=0.3, dropout=0.1):
    dspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=6, time_embed_dim=8,
                    dropout_rate=dropout)
    mspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=6, time_embed_dim=8,
                    uses_drift_input=uses_drift, dropout_rate=dropout)
    drift = DriftNet(dspec, rng=np.random.default_rng(seed))
    doob = DoobNet(mspec, rng=np.random.default_rng(seed + 1))
    for net, s in ((drift, seed + 10), (doob, seed + 11)):
        net.theta[...] = np.random.default_rng(s).normal(0, scale, net.theta.size)
    return drift, doob


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------


def test_batch_sampling_is_reproducible():
    cfg = TrainConfig(batch_size=16, times_per_pair=3)
    a = sample_training_batch(GAUSS, cfg, np.random.default_rng(5))
    b = sample_training_batch(GAUSS, cfg, np.random.default_rng(5))
    assert np.array_equal(a.x_t, b.x_t)
    assert np.array_equal(a.t, b.t)
    assert len(a) == 16 * 3


def test_batch_times_respect_clip():
    cfg = TrainConfig(batch_size=256, times_per_pair=4, t_clip=0.05)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(6))
    assert np.all(batch.t > 0.0)
    assert np.all(batch.t <= 1.0 - 0.05)


def test_batch_time_distribution_is_uniform():
    # Chi-square on 20 equal-width bins over (0, 1 - t_clip], 1e6 draws.
    cfg = TrainConfig(batch_size=500_000, times_per_pair=2, t_clip=1e-3)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(7))
    assert len(batch) == 1_000_000
    counts, _ = np.histogram(batch.t, bins=20, range=(0.0, 1.0 - 1e-3))
    assert stats.chisquare(counts).pvalue > 0.001


def test_batch_rows_follow_pair_indices():
    cfg = TrainConfig(batch_size=8, times_per_pair=2)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(8))
    assert np.array_equal(batch.x0, GAUSS.x0[batch.pair_index])
    assert np.array_equal(batch.x1, GAUSS.x1[batch.pair_index])


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def constant_output_nets(b_const, m_const):
    """Real networks forced to constant outputs via the zero-init final layer
    bias."""
    drift, doob = small_nets(uses_drift=True, scale=0.0)
    drift.head.biases[-1][...] = b_const
    doob.head.biases[-1][...] = m_const
    return drift, doob


def hand_batch(x0, x1, t, x_t):
    """Rows (pair i, t[i]) built by hand, drawn under the default schedule
    (g = 1)."""
    schedule = TrainConfig().schedule
    return TrainingBatch(np.arange(len(t)), x0, x1, t, x_t, schedule, schedule.cum_beta(t))


def test_loss_arithmetic_example():
    # 1-D-style example embedded in 2-D: use a single coordinate by zeroing
    # the second. t = 0.5, g = 1, x_t = 0, x1 = 1 gives target 2; with
    # b + m = 0, m = 0.5 and lambda = 1: total = 4 + 0.25 across the active
    # coordinate. Build it directly in 1-D.
    dspec = MlpSpec(input_dim=1, output_dim=1, hidden_dim=4, time_embed_dim=4)
    mspec = MlpSpec(input_dim=1, output_dim=1, hidden_dim=4, time_embed_dim=4,
                    uses_drift_input=True)
    drift = DriftNet(dspec, rng=np.random.default_rng(0))
    doob = DoobNet(mspec, rng=np.random.default_rng(1))
    for net in (drift, doob):
        net.theta[...] = 0.0
    drift.head.biases[-1][...] = -0.5
    doob.head.biases[-1][...] = 0.5

    batch = hand_batch(
        x0=np.array([[0.0]]),
        x1=np.array([[1.0]]),
        t=np.array([0.5]),
        x_t=np.array([[0.0]]),
    )
    breakdown, _, _ = loss_batch(batch, drift, doob, lambda_value=1.0)
    assert breakdown.regression == pytest.approx(4.0, abs=1e-12)
    assert breakdown.regularization == pytest.approx(0.25, abs=1e-12)
    assert breakdown.total == pytest.approx(4.25, abs=1e-12)
    assert breakdown.total == breakdown.regression + breakdown.regularization


def test_loss_zero_when_drift_equals_target_and_m_zero():
    drift, doob = constant_output_nets(0.0, 0.0)
    t = np.array([0.5, 0.5])
    x_t = np.array([[1.0, 1.0], [1.0, 1.0]])
    x1 = x_t.copy()  # target (x1 - x_t)/(1 - beta) = 0 = b + m
    batch = hand_batch(x_t.copy(), x1, t, x_t)
    breakdown, _, _ = loss_batch(batch, drift, doob)
    assert breakdown.total == 0.0


def test_loss_decomposition_nonnegative():
    drift, doob = small_nets()
    cfg = TrainConfig(batch_size=32)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(9))
    breakdown, _, _ = loss_batch(batch, drift, doob, lambda_value=0.5)
    assert breakdown.total == breakdown.regression + breakdown.regularization
    assert breakdown.regression >= 0 and breakdown.regularization >= 0


def fd_directional(value_fn, base, grad_flat, n_dirs=20, h=1e-5, seed=3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.normal(size=base.size)
        d /= np.linalg.norm(d)
        fd = (value_fn(base + h * d) - value_fn(base - h * d)) / (2 * h)
        an = float(grad_flat @ d)
        worst = max(worst, abs(fd - an) / max(1e-12, abs(fd), abs(an)))
    return worst


def test_loss_gradients_match_finite_differences():
    # The correction net here ignores the drift value, so the loss is an
    # ordinary differentiable function of each parameter set separately.
    drift, doob = small_nets(uses_drift=False)
    cfg = TrainConfig(batch_size=8)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(10))
    breakdown, gd, gm = loss_batch(batch, drift, doob, lambda_value=0.7)

    for net, grads in ((drift, gd), (doob, gm)):
        base = net.theta.copy()

        def value(vec):
            net.theta[...] = vec
            b, _, _ = loss_batch(batch, drift, doob, lambda_value=0.7)
            net.theta[...] = base
            return b.total

        assert fd_directional(value, base, grads) < 1e-4


def test_drift_gradient_with_conditioned_correction_net():
    # With the drift value fed to the correction net as a constant input, the
    # drift gradient equals the finite difference of the loss with the
    # correction output frozen.
    drift, doob = small_nets(uses_drift=True)
    cfg = TrainConfig(batch_size=8)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(11))
    _, gd, _ = loss_batch(batch, drift, doob, lambda_value=0.7)

    target = bridge_drift_target(batch.x_t, batch.x1, batch.t, cfg.schedule)
    m_frozen = doob(batch.t, batch.x_t, b_value=drift(batch.t, batch.x_t))
    base = drift.theta.copy()

    def value(vec):
        drift.theta[...] = vec
        b = drift(batch.t, batch.x_t)
        drift.theta[...] = base
        resid = target - b - m_frozen
        return float(
            np.mean(np.sum(resid**2, axis=1)) + 0.7 * np.mean(np.sum(m_frozen**2, axis=1))
        )

    assert fd_directional(value, base, gd) < 1e-4


def test_gradient_partition_penalty_independent_of_theta():
    # With the drift input disabled, the penalty term cannot depend on theta.
    drift, doob = small_nets(uses_drift=False)
    cfg = TrainConfig(batch_size=8)
    batch = sample_training_batch(GAUSS, cfg, np.random.default_rng(12))

    def penalty(theta_flat):
        base = drift.theta.copy()
        drift.theta[...] = theta_flat
        b, _, _ = loss_batch(batch, drift, doob, lambda_value=1.0)
        drift.theta[...] = base
        return b.regularization

    base = drift.theta.copy()
    p0 = penalty(base)
    p1 = penalty(base + 0.1 * np.random.default_rng(13).normal(size=base.size))
    assert p0 == p1


def test_linear_in_t_lambda_mode():
    drift, doob = constant_output_nets(0.0, 1.0)
    t = np.array([0.25, 0.75])
    x = np.zeros((2, 2))
    batch = hand_batch(x, x.copy(), t, x.copy())
    b_const, _, _ = loss_batch(batch, drift, doob, lambda_mode="constant", lambda_value=2.0)
    b_lin, _, _ = loss_batch(batch, drift, doob, lambda_mode="linear-in-t", lambda_value=2.0)
    # ||m||^2 = 2 per row; constant: mean(2 lambda) = 4; linear: mean(2 t lambda) = 2.
    assert b_const.regularization == pytest.approx(4.0)
    assert b_lin.regularization == pytest.approx(np.mean(2.0 * 2.0 * t))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_zero_iterations_returns_zero_drift_models():
    cfg = TrainConfig(n_iters=0, seed=1)
    result = train(GAUSS, cfg)
    x = np.random.default_rng(1).normal(size=(5, 2))
    assert np.array_equal(result.drift(0.3, x), np.zeros((5, 2)))
    assert np.array_equal(result.doob(0.3, x, b_value=np.zeros((5, 2))), np.zeros((5, 2)))
    assert result.trace == []


def test_training_is_seed_deterministic():
    cfg = TrainConfig(n_iters=30, batch_size=8, seed=123)
    a = train(GAUSS, cfg)
    b = train(GAUSS, cfg)
    assert a.drift.theta.tobytes() == b.drift.theta.tobytes()
    assert a.doob.theta.tobytes() == b.doob.theta.tobytes()
    assert [x.total for x in a.trace] == [x.total for x in b.trace]
    c = train(GAUSS, TrainConfig(n_iters=30, batch_size=8, seed=124))
    assert a.drift.theta.tobytes() != c.drift.theta.tobytes()


def test_training_reduces_loss():
    cfg = TrainConfig(n_iters=400, batch_size=32, seed=5)
    result = train(GAUSS, cfg)
    first = np.mean([b.total for b in result.trace[:20]])
    last = np.mean([b.total for b in result.trace[-20:]])
    assert last < first


def test_progress_callback_cadence():
    seen = []
    cfg = TrainConfig(n_iters=10, batch_size=4, seed=2, eval_every=3)
    train(GAUSS, cfg, progress=lambda it, b: seen.append(it))
    assert seen == [3, 6, 9]


# Non-finite values end training with NumericsError and no numpy warnings: the
# loss check finds them, then the cached layer outputs are scanned in order.


@pytest.mark.filterwarnings("error")
def test_train_overflowing_activation_names_the_layer():
    # |x @ W.T| can pass the largest double for states near 1.7e308.
    x0 = np.full((20, 2), 1.7e308)
    with pytest.raises(NumericsError, match=r"^non-finite activation in x_enc layer 0$"):
        train(AlignedDataset(x0=x0, x1=x0.copy()), TrainConfig(batch_size=8, n_iters=3))


@pytest.mark.filterwarnings("error")
def test_train_non_finite_layer_past_the_first_is_named():
    # One AdamW step of size 1e300 leaves weights near 1e300; the second
    # iteration's x_enc layer 1 multiplies two of them.
    cfg = TrainConfig(batch_size=8, n_iters=3, lr_drift=1e300, lr_doob=1e300)
    with pytest.raises(NumericsError, match=r"^non-finite activation in x_enc layer 1$"):
        train(GAUSS, cfg)


@pytest.mark.filterwarnings("error")
def test_train_non_finite_loss_alone_names_the_iteration():
    # Every activation stays finite; the squared residual (about 4e400) does not.
    x0 = np.full((20, 2), 1e200)
    with pytest.raises(NumericsError, match=r"^non-finite loss at iteration 0: "):
        train(AlignedDataset(x0=x0, x1=-x0), TrainConfig(batch_size=8, n_iters=3))


def test_loss_trace_csv(tmp_path):
    cfg = TrainConfig(n_iters=5, batch_size=4, seed=3)
    result = train(GAUSS, cfg)
    path = tmp_path / "trace.csv"
    write_loss_trace(path, result.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,total,regression,regularization,mean_m_sq"
    assert len(lines) == 6


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------


def full_config_text(**overrides):
    cfg = TrainConfig(**overrides)
    return format_config(cfg)


def test_config_round_trip():
    cfg = TrainConfig(batch_size=17, lambda_mode="linear-in-t", lambda_value=2.5, seed=9)
    assert parse_config(format_config(cfg)) == cfg


def test_config_unknown_key_is_named():
    text = full_config_text() + "mystery_knob = 3\n"
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(text)


def test_config_missing_key_is_named():
    text = "\n".join(
        ln for ln in full_config_text().splitlines() if not ln.startswith("ema_decay")
    )
    with pytest.raises(ConfigError, match="ema_decay"):
        parse_config(text)


def test_config_bad_value_reports_key_and_line():
    text = full_config_text().replace("batch_size = 64", "batch_size = many")
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config(text)


def test_config_validation_bounds():
    with pytest.raises(ConfigError):
        TrainConfig(t_clip=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lambda_mode="quadratic")
    with pytest.raises(ConfigError):
        TrainConfig(g=-1.0)


@pytest.mark.parametrize("key, value, message", [
    ("n_iters", -1, "n_iters must be >= 0"),
    ("times_per_pair", 0, "times_per_pair must be >= 1"),
    ("ema_decay", -0.1, r"ema_decay must lie in \[0, 1\]"),
    ("ema_decay", 1.5, r"ema_decay must lie in \[0, 1\]"),
    ("eval_every", 0, "eval_every must be >= 1"),
])
def test_config_bounds_name_the_key(key, value, message):
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        TrainConfig(**{key: value})


def test_config_line_without_equals_names_its_file_and_line():
    text = full_config_text() + "# next:\nno equals sign\n"
    line = len(text.splitlines())
    with pytest.raises(ConfigError, match=rf"^cfg\.txt:{line}: expected 'key = value', "
                                          rf"got 'no equals sign'$"):
        parse_config(text, "cfg.txt")


def test_config_skips_comment_only_and_blank_lines():
    text = "# a comment line\n\n   \n" + full_config_text().replace("\n", "\n  # note\n\n")
    assert parse_config(text) == TrainConfig()


def test_config_duplicate_key_names_its_line():
    text = full_config_text() + "\n# again:\nseed = 4\n"
    line = len(text.splitlines())
    with pytest.raises(ConfigError, match=rf"^cfg\.txt:{line}: duplicate config key 'seed'$"):
        parse_config(text, "cfg.txt")


def test_t_clip_must_keep_drawn_times_clear_of_the_singularity_guard():
    # The largest drawn time is 1 - t_clip; beta(1) - beta(t) must stay above
    # SINGULARITY_GUARD * beta(1) after rounding, so t_clip >= 2 * guard.
    assert TrainConfig(t_clip=2 * SINGULARITY_GUARD).t_clip == 2e-6
    for t_clip in (1e-9, 1.9e-6, np.nextafter(2e-6, 0.0)):
        with pytest.raises(ConfigError, match=r"^t_clip must lie in \[2e-06, 1\)$"):
            TrainConfig(t_clip=t_clip)
    config = TrainConfig(batch_size=1, t_clip=2 * SINGULARITY_GUARD)
    t = 1.0 - config.t_clip  # the time drawn for u = 0
    x = np.zeros((1, 2))
    assert np.isfinite(bridge_drift_target(x, x + 1.0, np.array([t]), config.schedule)).all()


@pytest.mark.parametrize("key, value", [
    ("g", float("nan")),
    ("g", float("inf")),
    ("g", 1e200),
    ("lr_drift", float("nan")),
    ("lr_doob", float("nan")),
    ("lr_doob", 0.0),
    ("lambda_value", float("nan")),
    ("lambda_value", float("inf")),
    ("seed", -1),
])
def test_config_rejects_nan_and_negative_seed_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**{key: value})
    text = full_config_text().replace(f"\n{key} = ", f"\n{key} = {value}  # ")
    with pytest.raises(ConfigError, match=rf"^<config>: {key} "):
        parse_config(text)
