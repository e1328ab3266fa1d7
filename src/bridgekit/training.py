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
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, get_type_hints

import numpy as np

from . import _workers
from .csvio import write_csv
from .datasets import AlignedDataset
from .errors import BridgekitError, ConfigError, DataError, NumericsError
from .nets import (DoobNet, DriftNet, MlpSpec, dropout_draws, dropout_masks, make_doob_spec,
                   make_drift_spec, time_embed)
from .optim import AdamW, EmaTracker
from .sde import SINGULARITY_GUARD, DiffusivitySchedule, bridge_drift_target, bridge_marginal_sample
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
        if not self.g * self.g < math.inf:  # the schedule's beta sums g^2
            raise ConfigError("g must have a finite square")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(f"lambda_mode must be one of {LAMBDA_MODES}")
        if not 0.0 <= self.lambda_value < math.inf:
            raise ConfigError("lambda_value must be >= 0 and finite")
        if not 2 * SINGULARITY_GUARD <= self.t_clip < 1.0:  # 2x: 1 - t stays clear of the guard
            raise ConfigError(f"t_clip must lie in [{2 * SINGULARITY_GUARD:g}, 1)")
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


class LossInputs(NamedTuple):
    """What a loss evaluation takes from its batch and the random streams
    alone, not from either net's weights."""

    target: np.ndarray  # (n, d) bridge drift target
    lam: np.ndarray  # (n,) lambda(t)
    emb: np.ndarray  # (n, drift time_embed_dim) time features
    masks: Optional[np.ndarray]  # the drift net's dropout masks; None without


def loss_inputs(batch: TrainingBatch, drift_spec: MlpSpec, lambda_mode: str = "constant",
                lambda_value: float = 1.0, train_mode: bool = False,
                rng: Optional[np.random.Generator] = None) -> LossInputs:
    """The drift target of the batch's own schedule (from the ``beta_t`` the
    batch carries), lambda(t), and the drift net's time features and, in
    train mode, its dropout masks drawn from ``rng``."""
    return LossInputs(
        bridge_drift_target(batch.x_t, batch.x1, batch.t, batch.schedule, beta_t=batch.beta_t),
        _lambda_at(batch.t, lambda_mode, lambda_value),
        time_embed(batch.t, drift_spec.time_embed_dim),
        dropout_masks(drift_spec, len(batch), rng) if train_mode else None,
    )


def loss_batch(
    batch: TrainingBatch,
    drift: DriftNet,
    doob: DoobNet,
    lambda_mode: str = "constant",
    lambda_value: float = 1.0,
    train_mode: bool = False,
    rng: Optional[np.random.Generator] = None,
    inputs: Optional[LossInputs] = None,
):
    """Mean squared residual against the bridge drift plus the ||m||^2 term.

    Returns (LossBreakdown, drift parameter grads, correction parameter
    grads). Gradients flow into the drift net only through its own output;
    the correction net sees the drift value as a constant. When the loss is
    not finite because a layer output is not, NumericsError names the layer.
    ``inputs`` may pass ``loss_inputs`` of the same arguments already made;
    training makes them an iteration ahead (``_Feed``). The drift net's masks
    are drawn from ``rng`` before the correction net's.
    """
    if len(batch) == 0:
        raise DataError("empty training batch")
    n = len(batch)
    if inputs is None:
        inputs = loss_inputs(batch, drift.spec, lambda_mode, lambda_value, train_mode, rng)
    target, lam, emb, masks = inputs

    b_out, b_cache = drift.forward(batch.t, batch.x_t, train=train_mode, emb=emb, masks=masks)
    extra = b_out if doob.spec.uses_drift_input else None
    shared = emb if doob.spec.time_embed_dim == drift.spec.time_embed_dim else None
    m_out, m_cache = doob.forward(batch.t, batch.x_t, extra=extra, train=train_mode, rng=rng,
                                  emb=shared)

    resid = target - (b_out + m_out)
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
    # The correction net's first: training's forked process (``_Forked``)
    # takes its cotangent here and steps while the drift net's runs.
    grads_doob = doob.backward(m_cache, d_m)
    return breakdown, drift.backward(b_cache, d_b), grads_doob


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    drift: DriftNet  # EMA parameters: the inference model
    doob: DoobNet  # EMA parameters
    trace: list[LossBreakdown]
    config: TrainConfig
    workers: int = 1  # 2 when the correction net stepped in a process of its own
    wait_seconds: float = 0.0  # the drift side's time waiting for that process
    correction_peak_rss_mb: Optional[float] = None  # that process's peak RSS
    correction_idle_seconds: float = 0.0  # that process's time waiting for the drift side


class _Feed:
    """Each iteration's batch and ``loss_inputs``: what it takes from the
    random streams alone. ``pop`` hands out the next iteration's, made then
    unless ``fill`` made them already. The forked loop fills while it waits
    for the correction output, after it has skipped the correction net's
    mask draws, so either way each stream is read in the same order: batch,
    drift masks, correction masks, iteration by iteration."""

    def __init__(self, dataset: AlignedDataset, config: TrainConfig, drift_spec: MlpSpec,
                 batches: np.random.Generator, dropout: np.random.Generator):
        self.dataset, self.config, self.drift_spec = dataset, config, drift_spec
        self.batches, self.dropout = batches, dropout
        self._left = config.n_iters
        self._next = None

    def fill(self) -> None:
        if self._next is None and self._left:
            batch = sample_training_batch(self.dataset, self.config, self.batches)
            self._next = batch, loss_inputs(batch, self.drift_spec, self.config.lambda_mode,
                                            self.config.lambda_value, True, self.dropout)

    def pop(self) -> tuple[TrainingBatch, LossInputs]:
        self.fill()
        ready, self._next = self._next, None
        self._left -= 1
        return ready


class _InProcess:
    """The correction net's AdamW and EMA steps, on the calling thread."""

    workers = 1
    wait_seconds = idle_seconds = 0.0
    peak_rss_mb = None

    def __init__(self, doob: DoobNet, config: TrainConfig):
        self.net = doob
        self._opt = AdamW(doob.theta, lr=config.lr_doob)
        self._ema = EmaTracker(doob.theta, decay=config.ema_decay)

    def start(self) -> None:
        pass

    def step(self, grads: np.ndarray) -> None:
        self._opt.step(self.net.theta, grads)
        self._ema.update(self.net.theta)

    def ema(self) -> np.ndarray:
        return self._ema.shadow

    def close(self) -> None:
        pass


# How long a side of the forked loop spins on the other's counter before it
# sleeps, and its first and longest sleep. Awake, the other side answers
# within microseconds; one that has to be woken from a blocking read took
# far longer, and so did a loop that gave up its core at every turn. On the
# moon setting with one BLAS thread an iteration took 1.84-1.86 ms with this
# bound, 2.17-2.35 ms with none (sleeping at once), against 2.67 in process.
_SPIN_S = 2e-3
_NAP_S = 5e-5
_NAP_MAX_S = 1e-3

# Control words of the shared page: the parent's post count and what it
# posted, then, a cache line on, the child's post count and the length of
# its reply.
_PARENT, _KIND, _CHILD, _REPLY = 0, 1, 8, 9
_B_OUT, _D_M, _CHECK = 1, 2, 3  # what the parent posts


def _await(ctl, word: int, count: int, alive: Callable[[], bool]) -> bool:
    """Waits until ``ctl[word]`` reaches ``count``: spinning for at most
    ``_SPIN_S``, then sleeping in steps that double up to ``_NAP_MAX_S``
    while ``alive()``. False when the other side is gone without posting."""
    if ctl[word] >= count:
        return True
    end = time.perf_counter() + _SPIN_S
    while ctl[word] < count:
        if time.perf_counter() > end:
            break
    else:
        return True
    nap = _NAP_S
    while ctl[word] < count:
        if not alive():
            return ctl[word] >= count
        time.sleep(nap)
        nap = min(2.0 * nap, _NAP_MAX_S)
    return True


class _Forked:
    """The correction net in a forked child process, and its stand-in for
    ``loss_batch`` in the parent.

    The child holds the correction net's theta, AdamW and EMA. It draws the
    same batches as the parent from its own copy of the batch generator, and
    its dropout masks from its own copy of the dropout generator, skipping
    the drift net's draws as the parent skips its own; so it runs its mask
    draw and time branch before the drift value arrives. Per iteration the
    parent posts the drift output (when the correction net takes it), the
    child posts the correction output, and the parent posts the correction
    net's output cotangent; both sides then step their own net. While the
    parent waits for the correction output it makes the next iteration's
    batch, drift target, lambda(t), time features and drift masks
    (``_Feed.fill``). Data and counters share one anonymous shared mapping;
    x86-64 keeps stores in order, so data written before a counter is seen
    with it. At the end the child posts its EMA vector and its summed wait
    for the parent, and exits through ``os._exit``.
    """

    workers = 2

    def __init__(self, doob: DoobNet, feed: _Feed):
        import mmap

        self.spec = doob.spec
        self.wait_seconds = self.idle_seconds = 0.0
        self.peak_rss_mb = None
        self._pid = None
        self._posted = self._seen = 0
        self._feed = feed
        rows = feed.config.batch_size * feed.config.times_per_pair
        # b_out, d_m, m_out, the EMA vector and the child's idle seconds,
        # each from a cache line of its own
        sizes = (rows * doob.spec.output_dim,) * 3 + (doob.theta.size, 1)
        starts = list(accumulate((-(-size // 8) * 8 for size in sizes), initial=0))
        self._map = mmap.mmap(-1, 128 + 8 * starts[-1] + 256)
        self._ctl = memoryview(self._map)[:128].cast("q")
        floats = np.frombuffer(self._map, np.float64, count=starts[-1], offset=128)
        self._b_out, self._d_m, self._m_out, self._shadow, self._idle = (
            floats[start:start + size] for start, size in zip(starts, sizes))
        self._reply = memoryview(self._map)[128 + 8 * starts[-1]:]
        self._doob = doob

    # -- the parent ---------------------------------------------------------

    @property
    def net(self) -> "_Forked":
        """What ``loss_batch`` calls as the correction net. A property, so
        that no reference cycle keeps the shared memory mapped after
        training."""
        return self

    def start(self) -> None:
        import signal

        parent = os.getpid()
        # SIGINT is the parent's to handle; the child keeps it blocked.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # The parent reports what went wrong; the child prints nothing.
                quiet = os.open(os.devnull, os.O_WRONLY)
                os.dup2(quiet, 1)
                os.dup2(quiet, 2)
                self._serve(parent, self._doob, self._feed)
                code = 0
            finally:
                os._exit(code)
        self._pid = pid
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _reap(self, flags: int) -> bool:
        """Reaps the child if it has ended (with ``flags`` 0, once it has):
        its exit status and peak RSS are kept. False while it runs."""
        pid, status, usage = os.wait4(self._pid, flags)
        if pid:
            self._pid = None
            self._exit_status = status
            self.peak_rss_mb = usage.ru_maxrss / 2**10
        return bool(pid)

    def _alive(self) -> bool:
        return not self._reap(os.WNOHANG)

    def _post(self, kind: int) -> None:
        self._ctl[_KIND] = kind
        self._posted += 1
        self._ctl[_PARENT] = self._posted

    def _wait(self) -> None:
        self._seen += 1
        started = time.perf_counter()
        done = _await(self._ctl, _CHILD, self._seen, self._alive)
        self.wait_seconds += time.perf_counter() - started
        if not done:
            code = os.waitstatus_to_exitcode(self._exit_status)
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise BridgekitError(f"the correction network's process ended with {how}")

    def forward(self, t, x, extra=None, train=False, rng=None, emb=None):
        if extra is not None:
            self._b_out[...] = extra.ravel()
            self._post(_B_OUT)
        draws = dropout_draws(self.spec, len(x)) if train else 0
        if draws:  # the child draws the correction net's masks
            rng.bit_generator.advance(draws)
        self._feed.fill()
        self._wait()
        return self._m_out.reshape(len(x), -1).copy(), None

    def check_finite(self, cache, out) -> None:
        self._post(_CHECK)
        self._wait()
        size = self._ctl[_REPLY]
        if size:
            raise NumericsError(bytes(self._reply[:size]).decode())

    def backward(self, cache, grad_out) -> None:
        self._d_m[...] = grad_out.ravel()
        self._post(_D_M)

    def step(self, grads) -> None:
        pass  # the child steps the correction net

    def ema(self) -> np.ndarray:
        self._wait()
        shadow = self._shadow.copy()
        self.idle_seconds = float(self._idle[0])
        if self._pid is not None:
            self._reap(0)
        return shadow

    def close(self) -> None:
        """Kills and reaps the child if it is still there."""
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None

    # -- the child ----------------------------------------------------------

    def _serve(self, parent: int, doob: DoobNet, feed: _Feed) -> None:
        ctl, config, dropout = self._ctl, feed.config, feed.dropout
        opt = AdamW(doob.theta, lr=config.lr_doob)
        ema = EmaTracker(doob.theta, decay=config.ema_decay)
        seen = posted = 0
        idle = 0.0

        def request() -> int:
            nonlocal seen, idle
            seen += 1
            started = time.perf_counter()
            if not _await(ctl, _PARENT, seen, lambda: os.getppid() == parent):
                raise BridgekitError("the training process is gone")
            idle += time.perf_counter() - started
            return ctl[_KIND]

        def post() -> None:
            nonlocal posted
            posted += 1
            ctl[_CHILD] = posted

        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(config.n_iters):
                batch = sample_training_batch(feed.dataset, config, feed.batches)
                n = len(batch)
                dropout.bit_generator.advance(dropout_draws(feed.drift_spec, n))
                finish = doob.time_pass(batch.t, n, train=True, rng=dropout)
                b_out = None
                if doob.spec.uses_drift_input:
                    request()  # the drift output
                    b_out = self._b_out.reshape(n, -1)
                m_out, cache = finish(doob.inputs(batch.t, batch.x_t, b_out)[1])
                self._m_out[...] = m_out.ravel()
                post()
                # The parent may have posted the next drift output over a
                # _D_M by now; anything but _CHECK means "step".
                while request() == _CHECK:
                    message = b""
                    try:
                        doob.check_finite(cache, m_out)
                    except NumericsError as exc:
                        message = str(exc).encode()[:len(self._reply)]
                    self._reply[:len(message)] = message
                    ctl[_REPLY] = len(message)
                    post()
                opt.step(doob.theta, doob.backward(cache, self._d_m.reshape(n, -1).copy()))
                ema.update(doob.theta)
        self._shadow[...] = ema.shadow
        self._idle[0] = idle
        post()


def _correction_workers() -> int:
    """2 when the correction net steps in a process of its own: where the
    BLAS cap leaves two cores for training's two nets (``_workers.workers``)
    and the platform is x86-64 Linux, whose ``fork`` and store order the
    hand-off relies on; 1 otherwise. Threads cannot do it: every numpy call
    on a batch of 64 rows hands the GIL over, and a second thread was
    measured slower than one."""
    if not sys.platform.startswith("linux") or os.uname().machine != "x86_64":
        return 1
    return _workers.workers(2)


def train(
    dataset: AlignedDataset,
    config: TrainConfig,
    drift_spec: Optional[MlpSpec] = None,
    doob_spec: Optional[MlpSpec] = None,
    progress: Optional[Callable[[int, LossBreakdown], None]] = None,
) -> TrainResult:
    """Run the full regression loop; deterministic given config.seed.

    Per iteration: draw a batch, evaluate loss and both gradients once, then
    update each net's parameters (the correction net's with lr_doob, the
    drift net's with lr_drift) and fold them into their EMAs. A non-finite
    loss raises NumericsError, naming the first non-finite layer output if
    there is one. Where ``_correction_workers`` gives 2, the correction net
    steps in a forked process (``_Forked``), with the same bits; the
    process is killed and reaped when the loop raises.
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
    ema_d = EmaTracker(drift.theta, decay=config.ema_decay)
    feed = _Feed(dataset, config, drift_spec, batches, dropout)
    if _correction_workers() == 2:
        correction = _Forked(doob, feed)
    else:
        correction = _InProcess(doob, config)

    trace: list[LossBreakdown] = []
    try:
        correction.start()
        # A non-finite value surfaces as the NumericsError below, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(config.n_iters):
                batch, inputs = feed.pop()
                breakdown, grads_d, grads_m = loss_batch(
                    batch, drift, correction.net, train_mode=True, rng=dropout, inputs=inputs)
                if not math.isfinite(breakdown.total):
                    raise NumericsError(f"non-finite loss at iteration {it}: {breakdown}")
                correction.step(grads_m)
                opt_d.step(drift.theta, grads_d)
                ema_d.update(drift.theta)
                trace.append(breakdown)
                if progress is not None and (it + 1) % config.eval_every == 0:
                    progress(it + 1, breakdown)
        doob.theta[...] = correction.ema()
    finally:
        correction.close()

    drift.theta[...] = ema_d.shadow
    return TrainResult(drift=drift, doob=doob, trace=trace, config=config,
                       workers=correction.workers, wait_seconds=correction.wait_seconds,
                       correction_peak_rss_mb=correction.peak_rss_mb,
                       correction_idle_seconds=correction.idle_seconds)


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
