"""Diffusivity schedules, bridge sampling, and SDE simulation.

The processes handled here live on the time interval [0, 1]. The reference
dynamics are driven by a time-dependent diffusivity g_t, with accumulated
variance

    beta(t) = integral_0^t g_s^2 ds.

A pair of endpoints (x0, x1) is connected by the pinned diffusion

    dX_t = g_t^2 (x1 - X_t) / (beta(1) - beta(t)) dt + g_t dW_t,  X_0 = x0,

whose marginal at time t is Gaussian with mean
x0 + (beta(t)/beta(1)) (x1 - x0) and isotropic variance
beta(t) (beta(1) - beta(t)) / beta(1). Unconstrained dynamics use a learned
(or user-supplied) drift b(t, x):

    dX_t = g_t^2 b(t, X_t) dt + g_t dW_t,

integrated with fixed-step Euler-Maruyama.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ._workers import run_tasks, workers
from .errors import NumericsError

# Refuse regression targets closer to the terminal singularity than this
# fraction of beta(1).
SINGULARITY_GUARD = 1e-6

# Trajectories are simulated in chunks of this many rows, and each drift call
# sees one chunk. The chunk bounds memory twice over: its noise block holds
# (chunk, n_steps, d) values, and a network's two layer buffers hold
# (chunk, hidden) values each, 1 MB at hidden width 64, small enough to stay
# in a 2 MB L2 cache. The noise of a trajectory depends only on (seed,
# trajectory id), never on the batching; a network drift agrees across
# batchings only to rounding, because BLAS matrix products are not
# row-invariant. Measured with OpenBLAS, chunks of 1024 (or 2048) rows give
# trajectories bit-equal to chunks of 4096, while 512, 768, 820, 1025 and
# 1366 do not. Each chunk is one task of the shared runner
# ``_workers.run_tasks``, which MMD's tile stripes also run on.
_SIM_CHUNK = 1024

DriftFn = Callable[[float, np.ndarray], np.ndarray]


class BridgeSingularityError(ValueError):
    """Raised when beta(1) - beta(t) is too small for a stable drift target."""


# ---------------------------------------------------------------------------
# Diffusivity schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffusivitySchedule:
    """Piecewise-constant diffusivity g_t on [0, 1].

    ``g_values[i]`` applies on the interval [breakpoints[i-1], breakpoints[i])
    with implicit outer boundaries 0 and 1. A single g value (no breakpoints)
    is the constant schedule.
    """

    g_values: tuple[float, ...]
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.g_values) == 0:
            raise ValueError("schedule needs at least one g value")
        # beta sums g^2, so g^2 must be finite too.
        if not all(0.0 < g and g * g < math.inf for g in self.g_values):
            raise ValueError(
                "diffusivity must be positive and finite everywhere, with a finite square"
            )
        if len(self.breakpoints) != len(self.g_values) - 1:
            raise ValueError("need exactly one breakpoint between consecutive g values")
        bps = self.breakpoints
        if any(not 0.0 < b < 1.0 for b in bps) or list(bps) != sorted(set(bps)):
            raise ValueError("breakpoints must be strictly increasing and inside (0, 1)")

    @classmethod
    def constant(cls, g: float) -> "DiffusivitySchedule":
        return cls(g_values=(float(g),))

    @property
    def kind(self) -> str:
        return "constant" if len(self.g_values) == 1 else "piecewise-constant"

    @property
    def _edges(self) -> np.ndarray:
        return np.array((0.0,) + self.breakpoints + (1.0,))

    def g(self, t):
        """Diffusivity at time t (right-continuous; g(1) is the last value)."""
        t = _check_time_domain(t)
        # At most len(breakpoints) = len(g_values) - 1, t = 1 and NaN included.
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.g_values)[idx]

    def cum_beta(self, t):
        """beta(t) = integral of g_s^2 from 0 to t, in closed form."""
        t = _check_time_domain(t)
        edges = self._edges
        g_sq = np.asarray(self.g_values) ** 2
        # Overlap of [0, t] with every segment, summed against g^2.
        t_arr = np.asarray(t, dtype=float)
        overlap = np.clip(t_arr[..., None], edges[:-1], edges[1:]) - edges[:-1]
        beta = overlap @ g_sq
        return beta if t_arr.ndim else float(beta)

    @cached_property
    def beta_total(self) -> float:
        return float(self.cum_beta(1.0))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "g_values": list(self.g_values),
            "breakpoints": list(self.breakpoints),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiffusivitySchedule":
        return cls(g_values=tuple(d["g_values"]), breakpoints=tuple(d.get("breakpoints", ())))


def _check_time_domain(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError(f"time must lie in [0, 1], got {t}")
    return t if t.ndim else float(t)


# ---------------------------------------------------------------------------
# Time grids and trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k / n_steps on the fixed horizon [0, 1]."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


@dataclass
class TrajectoryBatch:
    """Discretized sample paths: ``states[i, k]`` is trajectory i at times[k]."""

    states: np.ndarray  # (n_traj, n_steps + 1, d)
    times: np.ndarray  # (n_steps + 1,)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.states.ndim != 3:
            raise ValueError("states must have shape (n_traj, n_steps + 1, d)")
        if self.states.shape[1] != self.times.shape[0]:
            raise ValueError("states and times disagree on the number of steps")

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def d(self) -> int:
        return self.states.shape[2]

    @property
    def endpoints(self) -> np.ndarray:
        return self.states[:, -1, :]


# ---------------------------------------------------------------------------
# Bridge sampling and drift targets
# ---------------------------------------------------------------------------


def bridge_marginal_moments(x0, x1, t, schedule: DiffusivitySchedule, beta_t=None):
    """Mean and per-coordinate variance of the pinned process at time t.

    ``beta_t`` may pass ``schedule.cum_beta(t)`` when the caller has it.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != x1.shape:
        raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
    beta_t = np.asarray(schedule.cum_beta(t) if beta_t is None else beta_t, dtype=float)
    beta_1 = schedule.beta_total
    frac = (beta_t / beta_1)[..., None] if beta_t.ndim else beta_t / beta_1
    mean = x0 + frac * (x1 - x0)
    var = beta_t * (beta_1 - beta_t) / beta_1
    return mean, var


def bridge_marginal_sample(x0, x1, t, schedule: DiffusivitySchedule, rng: np.random.Generator,
                           beta_t=None):
    """Draw from the bridge marginal at time t; exact endpoints at t in {0, 1}.

    ``x0``/``x1`` may be single states or batches of rows; ``t`` may be a
    scalar or one value per row. One standard-normal block is always consumed,
    so the rng stream advances identically regardless of the t values.
    ``beta_t`` may pass ``schedule.cum_beta(t)`` when the caller has it.
    """
    mean, var = bridge_marginal_moments(x0, x1, t, schedule, beta_t)
    eps = rng.standard_normal(mean.shape)
    std = np.sqrt(var)
    draw = mean + (std[..., None] if np.ndim(std) else std) * eps
    # Pin the endpoints bit-exactly rather than relying on 0-variance algebra.
    t_arr = np.asarray(t, dtype=float)
    draw = np.where((t_arr == 0.0)[..., None], x0, draw)
    draw = np.where((t_arr == 1.0)[..., None], x1, draw)
    return draw


def bridge_drift_target(x, x1, t, schedule: DiffusivitySchedule, beta_t=None):
    """Regression target (x1 - x) / (beta(1) - beta(t)).

    Raises :class:`BridgeSingularityError` when t is too close to the horizon;
    callers are expected to clip their training times. ``beta_t`` may pass
    ``schedule.cum_beta(t)`` when the caller has it.
    """
    x = np.asarray(x, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x.shape != x1.shape:
        raise ValueError(f"state shapes differ: {x.shape} vs {x1.shape}")
    beta_t = np.asarray(schedule.cum_beta(t) if beta_t is None else beta_t, dtype=float)
    beta_1 = schedule.beta_total
    remaining = beta_1 - beta_t
    if np.any(remaining < SINGULARITY_GUARD * beta_1):
        raise BridgeSingularityError(
            f"beta(1) - beta(t) = {np.min(remaining):g} is below the singularity "
            f"guard {SINGULARITY_GUARD * beta_1:g}; clip t away from 1"
        )
    return (x1 - x) / (remaining[..., None] if remaining.ndim else remaining)


# ---------------------------------------------------------------------------
# Euler-Maruyama simulation
# ---------------------------------------------------------------------------


def _trajectory_noise(seed: int, traj_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-trajectory Gaussian increments, addressable by (seed, id, step).

    Fills ``out`` (n_ids, n_steps, d; each row C-contiguous) and returns it.
    Each trajectory owns a Philox stream keyed by (run seed, trajectory id);
    step k reads positions k*d .. (k+1)*d - 1 of that stream. The values for a
    given trajectory therefore never depend on which other trajectories are
    simulated alongside it.
    """
    # One generator, re-keyed per trajectory: Philox(key=...) would draw OS
    # entropy for a seed sequence that the key then replaces. The state is
    # that of a fresh Philox(key=[seed, id]).
    key = np.array([seed % (1 << 64), 0], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    for row, tid in enumerate(traj_ids):
        key[1] = int(tid)
        bitgen.state = state
        rng.standard_normal(out=out[row])
    return out


def _simulate_times(
    x0: np.ndarray,
    drift_fn: DriftFn,
    schedule: DiffusivitySchedule,
    times: np.ndarray,
    seed: int,
    traj_offset: int,
    record: bool,
) -> np.ndarray:
    """Core EM loop over an explicit time array. Returns full paths or endpoints.

    Chunks of ``_SIM_CHUNK`` rows are the tasks of ``_workers.run_tasks``, on
    ``_workers.workers(n_chunks)`` threads; each chunk's rows, noise and
    arithmetic are those of a one-thread run, so the result does not depend on
    the thread count.
    """
    n_traj, d = x0.shape
    n_steps = len(times) - 1
    if record:
        # Each chunk's noise is drawn into its rows' slots 1..n_steps: step k
        # reads slot k + 1 before it writes the new state there.
        states = np.empty((n_traj, n_steps + 1, d))
        states[:, 0] = x0
    else:
        states = None
    endpoints = np.empty_like(x0)

    g_vals = np.asarray(schedule.g(times[:-1]), dtype=float)
    dts = np.diff(times)

    def run_chunk(i, w):
        lo = i * _SIM_CHUNK
        hi = min(lo + _SIM_CHUNK, n_traj)
        ids = np.arange(lo, hi) + traj_offset
        out = states[lo:hi, 1:] if record else np.empty((hi - lo, n_steps, d))
        noise = _trajectory_noise(seed, ids, out)
        x = x0[lo:hi].copy()
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; caught below
            for k in range(n_steps):
                t_k = float(times[k])
                drift = np.asarray(drift_fn(t_k, x), dtype=float)
                if drift.shape != x.shape:
                    raise ValueError(
                        f"drift_fn returned shape {drift.shape}, expected {x.shape}"
                    )
                g_k, dt = g_vals[k], dts[k]
                x_new = x + (g_k * g_k) * drift * dt + g_k * math.sqrt(dt) * noise[:, k, :]
                if not np.all(np.isfinite(x_new)):
                    what = "state" if np.all(np.isfinite(drift)) else "drift"
                    raise NumericsError(
                        f"non-finite {what} at step {k} (t = {t_k:g}); "
                        f"max |state| = {np.max(np.abs(x)):g}"
                    )
                x = x_new
                if record:
                    states[lo:hi, k + 1] = x
        endpoints[lo:hi] = x

    n_chunks = -(-n_traj // _SIM_CHUNK)
    run_tasks(n_chunks, workers(n_chunks), run_chunk)
    return states if record else endpoints


def simulation_waves(n_traj: int) -> tuple[int, list[tuple[int, int]]]:
    """``(W, waves)`` for ``n_traj`` trajectories: the threads
    :func:`simulate_sde` runs them on, one chunk each at a time, and the
    ``(lo, hi)`` row slices of its waves of W chunks; a last slice shorter
    than a chunk joins the wave before, which saves one wave's fixed cost.
    Calls on these slices, each with ``traj_offset`` at its slice's start,
    give the paths of one call bit for bit: every slice starts at a multiple
    of ``_SIM_CHUNK``, so the chunks, their rows and their noise are the
    same."""
    n_workers = workers(-(-n_traj // _SIM_CHUNK))
    starts = list(range(0, n_traj, n_workers * _SIM_CHUNK))
    if len(starts) > 1 and n_traj - starts[-1] < _SIM_CHUNK:
        del starts[-1]
    return n_workers, list(zip(starts, starts[1:] + [n_traj]))


def simulate_sde(
    x0_batch,
    drift_fn: DriftFn,
    schedule: DiffusivitySchedule,
    grid: TimeGrid,
    seed: int,
    traj_offset: int = 0,
) -> TrajectoryBatch:
    """Euler-Maruyama simulation of dX = g^2 b(t, X) dt + g dW on [0, 1].

    Deterministic given ``seed``; trajectory i + traj_offset always sees the
    same noise no matter how the batch is split. With a drift that acts on
    each row alone (an element-wise function) split batches give identical
    paths; with a network drift they agree only to rounding, because BLAS
    matrix products do not promise the same bits for a row in batches of
    different sizes.

    Rows are simulated in chunks of ``_SIM_CHUNK``, and ``drift_fn`` may be
    called from W threads at once, each on its own chunk: W is the number of
    cores divided by the BLAS thread cap, and 1 without a cap. The paths do
    not depend on W. A drift value or state that is not finite raises
    :class:`NumericsError` naming the step.
    """
    x0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    grid_times = grid.times
    states = _simulate_times(x0, drift_fn, schedule, grid_times, seed, traj_offset, record=True)
    return TrajectoryBatch(states=states, times=grid_times)


def simulate_conditioned(
    x0,
    drift_model,
    doob_model,
    schedule: DiffusivitySchedule,
    grid: TimeGrid,
    seed: int,
    traj_offset: int = 0,
) -> TrajectoryBatch:
    """Simulate under the endpoint-corrected drift g^2 (b + m).

    ``drift_model`` is called as ``drift_model(t, x)`` and ``doob_model`` as
    ``doob_model(t, x, b_value)``; the correction term receives the drift value
    as a constant input. The endpoint conditioning lives inside the models, so
    no target point is passed; ``simulate_sde`` checks that each drift value
    has the state's shape.
    """

    def total_drift(t, x):
        b = np.asarray(drift_model(t, x), dtype=float)
        m = np.asarray(doob_model(t, x, b), dtype=float)
        return b + m

    return simulate_sde(x0, total_drift, schedule, grid, seed, traj_offset)


def estimate_h_mc(
    x,
    t: float,
    x1,
    tau: float,
    drift_fn: DriftFn,
    schedule: DiffusivitySchedule,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
) -> float:
    """Monte-Carlo estimate of the smoothed endpoint-hitting weight.

    Runs ``n_paths`` unconditioned simulations from state ``x`` at time ``t``
    to the horizon and averages exp(-||X_1 - x1||^2 / (2 tau)). The estimate
    is always in (0, 1]. ``drift_fn`` is called as in :func:`simulate_sde`.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    x = np.asarray(x, dtype=float).reshape(-1)
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x.shape != x1.shape:
        raise ValueError(f"state shapes differ: {x.shape} vs {x1.shape}")

    later = grid.times[grid.times > t]
    times = np.concatenate(([t], later))
    x0 = np.tile(x, (n_paths, 1))
    ends = _simulate_times(x0, drift_fn, schedule, times, seed, 0, record=False)
    sq = np.sum((ends - x1) ** 2, axis=1)
    return float(np.mean(np.exp(-sq / (2.0 * tau))))
