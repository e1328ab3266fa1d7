"""Session-scoped trained models shared between behavioral tests and the
acceptance suite. Training is deterministic, so every test run sees identical
models. Every test must also reap every child process it starts."""

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

# bridgekit first: it applies BRIDGEKIT_THREADS before numpy loads BLAS.
import bridgekit as bk
from bridgekit.nets import make_doob_spec, make_drift_spec

import numpy as np
import pytest


def children_of(pid: int) -> list[int]:
    """Process ids of the running children of ``pid``, read from /proc (empty
    where there is none)."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # pid (comm) state ppid ...; comm may hold spaces and parentheses
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            children.append(int(stat.parent.name))
    return children


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or exited
    unreaped; reaps it (killing a running one first) so the next test starts
    clean."""
    yield
    leaked = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children at all
            break
        if pid == 0:  # children still running
            running = children_of(os.getpid())
            leaked += [f"{pid} was still running" for pid in running]
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if not running:
                leaked.append("a child was still running")
            break
        leaked.append(f"{pid} had exited unreaped (status {status})")
    assert not leaked, f"the test left child processes behind: {'; '.join(leaked)}"


# Single-pair run: dataset {(0, 1)} in 1-D, g = 1, lambda = 1, K = 5000. The
# remaining knobs are experiment configuration: capped training times, two
# time samples per pair, no dropout (nothing to regularize against with one
# pair), and a long EMA memory for a stable inference snapshot.
SINGLE_PAIR_CONFIG = bk.TrainConfig(
    batch_size=96,
    n_iters=5000,
    lr_drift=2e-3,
    lr_doob=2e-3,
    lambda_value=1.0,
    t_clip=0.05,
    times_per_pair=2,
    g=1.0,
    ema_decay=0.99,
    seed=11,
)

# Moon run: the declared unit-radius geometry makes a unit diffusivity drown
# the arm separation, so the experiment uses g = 0.05.
MOON_CONFIG = bk.TrainConfig(
    batch_size=64,
    n_iters=8000,
    lr_drift=2e-3,
    lr_doob=2e-3,
    lambda_value=1.0,
    t_clip=1e-3,
    g=0.05,
    seed=0,
)
MOON_TRAIN_SEED = 100
MOON_HELDOUT_SEED = 200
MOON_N_TRAIN = 400
MOON_N_HELDOUT = 100

T_CONFIG = bk.TrainConfig(
    batch_size=64,
    n_iters=6000,
    lr_drift=3e-3,
    lr_doob=3e-3,
    lambda_value=1.0,
    t_clip=1e-3,
    g=1.0,
    seed=0,
)
T_TRAIN_SEED = 300
T_HELDOUT_SEED = 400


@dataclass
class TrainedModel:
    result: bk.TrainResult
    train_seconds: float


def _timed_train(dataset, config, **kwargs) -> TrainedModel:
    started = time.monotonic()
    result = bk.train(dataset, config, **kwargs)
    return TrainedModel(result=result, train_seconds=time.monotonic() - started)


@pytest.fixture(scope="session")
def single_pair_model():
    dataset = bk.AlignedDataset(x0=np.array([[0.0]]), x1=np.array([[1.0]]))
    return _timed_train(
        dataset,
        SINGLE_PAIR_CONFIG,
        drift_spec=make_drift_spec(1, dropout_rate=0.0),
        doob_spec=make_doob_spec(1, dropout_rate=0.0),
    )


@pytest.fixture(scope="session")
def moon_model():
    dataset = bk.generate_moon(MOON_N_TRAIN, rng=np.random.default_rng(MOON_TRAIN_SEED))
    return _timed_train(dataset, MOON_CONFIG)


@pytest.fixture(scope="session")
def moon_heldout():
    return bk.generate_moon(MOON_N_HELDOUT, rng=np.random.default_rng(MOON_HELDOUT_SEED))


@pytest.fixture(scope="session")
def t_model():
    dataset = bk.generate_t(400, rng=np.random.default_rng(T_TRAIN_SEED))
    return _timed_train(dataset, T_CONFIG)


@pytest.fixture(scope="session")
def t_heldout():
    return bk.generate_t(100, rng=np.random.default_rng(T_HELDOUT_SEED))
