"""Training loop: bridge-drift regression with an L2-penalized correction term.

Each iteration draws aligned pairs, samples interior times and bridge states
for them, and regresses the summed network output b(t, x_t) + m(t, x_t)
against the pinned-process drift (x1 - x_t) / (beta(1) - beta(t)), adding
lambda_t ||m||^2 to keep the correction term small. Both parameter sets are
updated from one joint gradient evaluation per iteration, and exponential
moving averages of the parameters are what the trained model exposes for
inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, get_type_hints

import numpy as np

from .csvio import write_csv
from .datasets import AlignedDataset
from .errors import ConfigError, DataError, NumericsError
from .nets import DoobNet, DriftNet, MlpSpec, make_doob_spec, make_drift_spec, time_embed
from .optim import AdamW, EmaTracker
from .sde import DiffusivitySchedule, bridge_drift_target, bridge_marginal_sample
from .serialize import KIND_PAIR, LoadedModel, load_model, save_model

LAMBDA_MODES = ("constant", "linear-in-t")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    n_iters: int = 2000
    lr_drift: float = 1e-3
    lr_doob: float = 1e-3
    lambda_mode: str = "constant"
    lambda_value: float = 1.0
    t_clip: float = 1e-3
    times_per_pair: int = 1
    g: float = 1.0
    ema_decay: float = 0.9
    seed: int = 0
    eval_every: int = 200

    def __post_init__(self):
        # The float checks are written so that NaN fails them.
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.n_iters < 0:
            raise ConfigError("n_iters must be >= 0")
        for key in ("lr_drift", "lr_doob", "g"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(f"lambda_mode must be one of {LAMBDA_MODES}")
        if not 0.0 <= self.lambda_value < math.inf:
            raise ConfigError("lambda_value must be >= 0 and finite")
        if not 0.0 < self.t_clip < 1.0:
            raise ConfigError("t_clip must lie in (0, 1)")
        if self.times_per_pair < 1:
            raise ConfigError("times_per_pair must be >= 1")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError("ema_decay must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")

    @cached_property
    def schedule(self) -> DiffusivitySchedule:
        return DiffusivitySchedule.constant(self.g)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Every TrainConfig field, in declaration order, with its type (int, float or str).
_CONFIG_TYPES = get_type_hints(TrainConfig)


def parse_config(text: str, source: str = "<config>") -> TrainConfig:
    """Parse ``key = value`` lines; every TrainConfig key is required."""
    values = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln_no}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(
                f"{source}:{ln_no}: unknown config key {key!r} "
                f"(valid keys: {', '.join(_CONFIG_TYPES)})"
            )
        if key in values:
            raise ConfigError(f"{source}:{ln_no}: duplicate config key {key!r}")
        caster = _CONFIG_TYPES[key]
        try:
            values[key] = caster(val)
        except ValueError:
            raise ConfigError(
                f"{source}:{ln_no}: cannot parse {key} = {val!r} as {caster.__name__}"
            ) from None
    missing = [k for k in _CONFIG_TYPES if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required config key(s): {', '.join(missing)}")
    try:
        return TrainConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def format_config(config: TrainConfig) -> str:
    return "\n".join(f"{k} = {v}" for k, v in config.to_dict().items()) + "\n"


def read_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


# ---------------------------------------------------------------------------
# Batches and the loss
# ---------------------------------------------------------------------------


@dataclass
class TrainingBatch:
    """Flattened training rows; each row is one (pair, time) combination."""

    pair_index: np.ndarray  # (n,)
    x0: np.ndarray  # (n, d)
    x1: np.ndarray  # (n, d)
    t: np.ndarray  # (n,)
    x_t: np.ndarray  # (n, d)
    schedule: DiffusivitySchedule  # the schedule t and x_t were drawn under
    beta_t: np.ndarray  # (n,) schedule.cum_beta(t)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    regression: float
    regularization: float
    mean_m_sq: float


def sample_training_batch(
    dataset: AlignedDataset, config: TrainConfig, rng: np.random.Generator
) -> TrainingBatch:
    """Pairs uniform with replacement; per pair, ``times_per_pair`` interior
    times t in (0, 1 - t_clip] and a bridge-marginal state for each."""
    if len(dataset) < 1:
        raise DataError("cannot sample from an empty dataset")
    idx = rng.integers(0, len(dataset), size=config.batch_size)
    reps = config.times_per_pair
    pair_index = np.repeat(idx, reps)
    x0 = dataset.x0[pair_index]
    x1 = dataset.x1[pair_index]
    # Flip the half-open interval so t = 0 is excluded and 1 - t_clip included.
    u = rng.random(len(pair_index))
    t = (1.0 - u) * (1.0 - config.t_clip)
    schedule = config.schedule
    beta_t = schedule.cum_beta(t)
    x_t = bridge_marginal_sample(x0, x1, t, schedule, rng, beta_t=beta_t)
    return TrainingBatch(pair_index=pair_index, x0=x0, x1=x1, t=t, x_t=x_t,
                         schedule=schedule, beta_t=beta_t)


def _lambda_at(t: np.ndarray, mode: str, value: float) -> np.ndarray:
    if mode == "constant":
        return np.full_like(t, value)
    if mode == "linear-in-t":
        return value * t
    raise ConfigError(f"lambda_mode must be one of {LAMBDA_MODES}")


def loss_batch(
    batch: TrainingBatch,
    drift: DriftNet,
    doob: DoobNet,
    lambda_mode: str = "constant",
    lambda_value: float = 1.0,
    train_mode: bool = False,
    rng: Optional[np.random.Generator] = None,
):
    """Mean squared residual against the bridge drift plus the ||m||^2 term.

    The drift target is that of the batch's own schedule, from the
    ``beta_t`` the batch carries. Returns (LossBreakdown, drift parameter
    grads, correction parameter grads). Gradients flow into the drift net
    only through its own output; the correction net sees the drift value as
    a constant. When the loss is not finite because a layer output is not,
    NumericsError names the layer.
    """
    if len(batch) == 0:
        raise DataError("empty training batch")
    n = len(batch)
    target = bridge_drift_target(batch.x_t, batch.x1, batch.t, batch.schedule,
                                 beta_t=batch.beta_t)

    emb = None
    if drift.spec.time_embed_dim == doob.spec.time_embed_dim:
        emb = time_embed(batch.t, drift.spec.time_embed_dim)
    b_out, b_cache = drift.forward(batch.t, batch.x_t, train=train_mode, rng=rng, emb=emb)
    extra = b_out if doob.spec.uses_drift_input else None
    m_out, m_cache = doob.forward(batch.t, batch.x_t, extra=extra, train=train_mode, rng=rng,
                                  emb=emb)

    resid = target - (b_out + m_out)
    lam = _lambda_at(batch.t, lambda_mode, lambda_value)
    sq_m = np.sum(m_out * m_out, axis=1)
    # Each mean is its sum over n, as np.mean computes it.
    regression = float(np.sum(resid * resid, axis=1).sum()) / n
    regularization = float((lam * sq_m).sum()) / n
    breakdown = LossBreakdown(
        total=regression + regularization,
        regression=regression,
        regularization=regularization,
        mean_m_sq=float(sq_m.sum()) / n,
    )
    if not math.isfinite(breakdown.total):
        drift.check_finite(b_cache, b_out)
        doob.check_finite(m_cache, m_out)

    d_b = -2.0 * resid / n
    d_m = (-2.0 * resid + 2.0 * lam[:, None] * m_out) / n
    grads_drift = drift.backward(b_cache, d_b)
    grads_doob = doob.backward(m_cache, d_m)
    return breakdown, grads_drift, grads_doob


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    drift: DriftNet  # EMA parameters: the inference model
    doob: DoobNet  # EMA parameters
    trace: list[LossBreakdown]
    config: TrainConfig


def train(
    dataset: AlignedDataset,
    config: TrainConfig,
    drift_spec: Optional[MlpSpec] = None,
    doob_spec: Optional[MlpSpec] = None,
    progress: Optional[Callable[[int, LossBreakdown], None]] = None,
) -> TrainResult:
    """Run the full regression loop; deterministic given config.seed.

    Per iteration: draw a batch, evaluate loss and both gradients once, update
    the correction parameters with lr_doob, then the drift parameters with
    lr_drift, then fold both into their EMAs. A non-finite loss raises
    NumericsError, naming the first non-finite layer output if there is one.
    """
    d = dataset.d
    if drift_spec is None:
        drift_spec = make_drift_spec(d)
    if doob_spec is None:
        doob_spec = make_doob_spec(d)
    if drift_spec.input_dim != d or doob_spec.input_dim != d:
        raise DataError(
            f"network specs expect dimension {drift_spec.input_dim}/{doob_spec.input_dim}, "
            f"dataset has {d}"
        )

    ss = np.random.SeedSequence(config.seed)
    init_d, init_m, batches, dropout = [np.random.default_rng(s) for s in ss.spawn(4)]
    drift = DriftNet(drift_spec, rng=init_d)
    doob = DoobNet(doob_spec, rng=init_m)

    opt_d = AdamW(drift.theta, lr=config.lr_drift)
    opt_m = AdamW(doob.theta, lr=config.lr_doob)
    ema_d = EmaTracker(drift.theta, decay=config.ema_decay)
    ema_m = EmaTracker(doob.theta, decay=config.ema_decay)

    trace: list[LossBreakdown] = []
    # A non-finite value surfaces as the NumericsError below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.n_iters):
            batch = sample_training_batch(dataset, config, batches)
            breakdown, grads_d, grads_m = loss_batch(
                batch, drift, doob,
                lambda_mode=config.lambda_mode,
                lambda_value=config.lambda_value,
                train_mode=True,
                rng=dropout,
            )
            if not math.isfinite(breakdown.total):
                raise NumericsError(f"non-finite loss at iteration {it}: {breakdown}")
            opt_m.step(doob.theta, grads_m)
            opt_d.step(drift.theta, grads_d)
            ema_m.update(doob.theta)
            ema_d.update(drift.theta)
            trace.append(breakdown)
            if progress is not None and (it + 1) % config.eval_every == 0:
                progress(it + 1, breakdown)

    drift.theta[...] = ema_d.shadow
    doob.theta[...] = ema_m.shadow
    return TrainResult(drift=drift, doob=doob, trace=trace, config=config)


def write_loss_trace(path, trace: list[LossBreakdown]) -> None:
    # %.17g prints an integer-valued float as the integer, so iter is one more value.
    rows = [(it, b.total, b.regression, b.regularization, b.mean_m_sq)
            for it, b in enumerate(trace)]
    write_csv(path, ["iter", "total", "regression", "regularization", "mean_m_sq"],
              np.array(rows, dtype=float).reshape(-1, 5))


def save_train_result(path, result: TrainResult) -> None:
    save_model(path, result.drift, result.doob, result.config.schedule,
               config=result.config.to_dict())


def export_drift(model_path, out_path) -> LoadedModel:
    """Strip a trained pair model down to its drift network.

    The exported file uses the same container format, keeps the EMA drift
    parameters bit-for-bit, and carries no correction-network parameters; it
    can be simulated directly as a data-informed reference drift.
    """
    model = load_model(model_path)
    if model.kind != KIND_PAIR:
        raise DataError(f"{model_path}: expected a trained pair model, got {model.kind!r}")
    save_model(out_path, model.drift, None, model.schedule, config=model.config)
    return load_model(out_path)
