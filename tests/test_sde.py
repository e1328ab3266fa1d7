import threading

import numpy as np
import pytest

from bridgekit import (
    DiffusivitySchedule,
    DoobNet,
    DriftNet,
    MlpSpec,
    TimeGrid,
    TrajectoryBatch,
    bridge_drift_target,
    bridge_marginal_sample,
    estimate_h_mc,
    mmd,
    read_trajectories,
    simulate_conditioned,
    simulate_sde,
    write_trajectories,
)
from bridgekit.errors import NumericsError
from bridgekit import _workers
from bridgekit import sde as sde_module
from bridgekit.nets import ACTIVATIONS
from bridgekit.sde import _SIM_CHUNK

CONST = DiffusivitySchedule.constant(1.0)
ZERO_DRIFT = lambda t, x: np.zeros_like(x)


def test_time_grid():
    grid = TimeGrid(4)
    np.testing.assert_array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
    with pytest.raises(ValueError):
        TimeGrid(0)


def test_zero_drift_zero_noise_is_constant():
    # g must be positive, so emulate "no noise" with a tiny diffusivity and
    # check the exact zero-noise case via drift-only displacement instead.
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    tiny = DiffusivitySchedule.constant(1e-12)
    batch = simulate_sde(x0, ZERO_DRIFT, tiny, TimeGrid(8), seed=0)
    np.testing.assert_allclose(batch.states, np.repeat(x0[:, None, :], 9, axis=1), atol=1e-11)
    assert np.array_equal(batch.states[:, 0], x0)


def test_brownian_endpoint_variance():
    # Pure noise, g = 1: endpoint variance is t = 1.
    n = 100_000
    batch = simulate_sde(np.zeros((n, 1)), ZERO_DRIFT, CONST, TimeGrid(100), seed=1)
    var = batch.endpoints[:, 0].var()
    assert abs(var - 1.0) < 0.03


def test_pinned_drift_hits_target():
    n = 2000
    x1 = np.ones((n, 1))

    def pinned(t, x):
        return bridge_drift_target(x, x1[: len(x)], t, CONST)

    batch = simulate_sde(np.zeros((n, 1)), pinned, CONST, TimeGrid(1000), seed=2)
    ends = batch.endpoints[:, 0]
    assert abs(ends.mean() - 1.0) < 0.02
    assert ends.std() <= 0.1


def test_simulation_is_deterministic():
    x0 = np.random.default_rng(0).normal(size=(50, 3))
    drift = lambda t, x: -x
    a = simulate_sde(x0, drift, CONST, TimeGrid(20), seed=9)
    b = simulate_sde(x0, drift, CONST, TimeGrid(20), seed=9)
    assert np.array_equal(a.states, b.states)
    c = simulate_sde(x0, drift, CONST, TimeGrid(20), seed=10)
    assert not np.array_equal(a.states, c.states)


def test_noise_is_per_trajectory_not_per_batch():
    # Simulating trajectories in one batch or in two halves gives identical
    # paths when the trajectory ids are preserved via the offset.
    x0 = np.random.default_rng(1).normal(size=(10, 2))
    drift = lambda t, x: 0.5 - x
    whole = simulate_sde(x0, drift, CONST, TimeGrid(15), seed=4)
    first = simulate_sde(x0[:6], drift, CONST, TimeGrid(15), seed=4)
    second = simulate_sde(x0[6:], drift, CONST, TimeGrid(15), seed=4, traj_offset=6)
    assert np.array_equal(whole.states[:6], first.states)
    assert np.array_equal(whole.states[6:], second.states)


@pytest.mark.parametrize("seed, first_id", [(0, 0), (9, 5), (2**40 + 3, 1234), (2**64 - 1, 7)])
def test_trajectory_noise_is_the_keyed_philox_stream(seed, first_id):
    from bridgekit.sde import _trajectory_noise

    ids = np.arange(first_id, first_id + 6)
    noise = _trajectory_noise(seed, ids, np.empty((len(ids), 11, 3)))
    for row, tid in enumerate(ids):
        key = np.array([seed % 2**64, tid], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key)).standard_normal((11, 3))
        assert np.array_equal(noise[row], stream)


def test_network_drift_agrees_across_batchings_to_rounding():
    # A network drift is evaluated by BLAS products that are not row-invariant,
    # so split batches agree with the whole batch only to rounding.
    from bridgekit import DriftNet, MlpSpec

    net = DriftNet(MlpSpec(input_dim=2, output_dim=2, hidden_dim=16, time_embed_dim=8),
                   rng=np.random.default_rng(0))
    net.theta[...] = np.random.default_rng(1).normal(0.0, 0.3, net.theta.size)
    assert np.any(net.head.weights[-1] != 0.0)
    x0 = np.random.default_rng(2).normal(size=(300, 2))
    whole = simulate_sde(x0, net, CONST, TimeGrid(20), seed=6)
    first = simulate_sde(x0[:7], net, CONST, TimeGrid(20), seed=6)
    rest = simulate_sde(x0[7:], net, CONST, TimeGrid(20), seed=6, traj_offset=7)
    split = np.concatenate([first.states, rest.states])
    np.testing.assert_allclose(split, whole.states, rtol=0, atol=1e-12)


def _network_pair(activation, seed):
    """A drift net and a drift-input correction net with non-zero heads."""
    kw = dict(input_dim=3, output_dim=3, hidden_dim=6, time_embed_dim=8, activation=activation)
    drift = DriftNet(MlpSpec(**kw))
    doob = DoobNet(MlpSpec(uses_drift_input=True, **kw))
    for i, net in enumerate((drift, doob)):
        net.theta[...] = np.random.default_rng(seed + i).normal(0.0, 0.3, net.theta.size)
    return drift, doob


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_simulation_in_chunks_equals_runs_on_each_chunk(activation):
    # Each drift call sees one chunk's rows, so a run over several chunks is
    # bit-equal to one run per chunk with the trajectory ids kept by the offset.
    drift, doob = _network_pair(activation, 80)
    doob_fn = lambda t, x, b: doob(t, x, b_value=b)
    x0 = np.random.default_rng(81).normal(size=(2 * _SIM_CHUNK + 37, 3))
    grid = TimeGrid(3)
    for simulate, models in ((simulate_sde, (drift,)), (simulate_conditioned, (drift, doob_fn))):
        whole = simulate(x0, *models, CONST, grid, 7)
        chunks = [simulate(x0[lo : lo + _SIM_CHUNK], *models, CONST, grid, 7, traj_offset=lo)
                  for lo in range(0, len(x0), _SIM_CHUNK)]
        assert np.array_equal(whole.states, np.concatenate([c.states for c in chunks]))


def test_nan_start_beyond_the_first_chunk_names_the_layer():
    drift, _ = _network_pair("selu", 82)
    x0 = np.random.default_rng(83).normal(size=(2 * _SIM_CHUNK + 37, 3))
    x0[_SIM_CHUNK + 5, 0] = np.nan
    with pytest.raises(NumericsError, match="x_enc layer 0"):
        simulate_sde(x0, drift, CONST, TimeGrid(3), seed=0)


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(sde_module, "workers", lambda n_tasks: workers)


def test_network_buffers_hold_one_chunk(monkeypatch):
    # Each thread's layer buffers hold at most one chunk's rows; on two
    # workers the worker thread's buffers are checked too.
    _use_workers(monkeypatch, 2)
    drift, doob = _network_pair("selu", 84)
    rows = {}  # (thread, net) -> largest buffer seen

    def watched(net):
        def call(t, x, *args, **kwargs):
            out = net(t, x, *args, **kwargs)
            key = (threading.get_ident(), id(net))
            rows[key] = max(rows.get(key, 0), net._local.bufs.shape[1])
            return out
        return call

    drift_fn, doob_fn = watched(drift), watched(doob)
    x0 = np.random.default_rng(85).normal(size=(10_000, 3))
    simulate_conditioned(x0, drift_fn, lambda t, x, b: doob_fn(t, x, b_value=b), CONST,
                         TimeGrid(2), seed=1)
    estimate_h_mc(np.zeros(3), 0.5, np.zeros(3), 0.5, drift_fn, CONST, TimeGrid(2), seed=2,
                  n_paths=10_000)
    main = threading.get_ident()
    assert {net for thread, net in rows if thread != main} == {id(drift), id(doob)}
    assert all(n <= _SIM_CHUNK for n in rows.values())


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, activation):
    drift, doob = _network_pair(activation, 86)
    doob_fn = lambda t, x, b: doob(t, x, b_value=b)
    x0 = np.random.default_rng(87).normal(size=(2 * _SIM_CHUNK + 37, 3))
    grid = TimeGrid(4)
    runs = []
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        runs.append((simulate_sde(x0, drift, CONST, grid, 7).states,
                     simulate_conditioned(x0, drift, doob_fn, CONST, grid, 7).states,
                     estimate_h_mc(x0[0], 0.2, x0[1], 0.5, drift, CONST, grid, seed=3,
                                   n_paths=len(x0))))
    for run in runs[1:]:
        assert np.array_equal(run[0], runs[0][0])
        assert np.array_equal(run[1], runs[0][1])
        assert run[2] == runs[0][2]


def test_failure_raised_is_that_of_the_lowest_failed_chunk(monkeypatch):
    # Chunk 2 fails at its first step, chunk 1 only at step 5, so on several
    # workers chunk 2 fails first in time; chunk 1's error must still win.
    x0 = np.repeat(np.arange(3.0)[:, None], _SIM_CHUNK, axis=0)[: 2 * _SIM_CHUNK + 37]
    tiny = DiffusivitySchedule.constant(1e-9)

    def planted(t, x):
        chunk = round(float(x[0, 0]))
        if chunk == 2:
            raise ValueError("planted in chunk 2")
        if chunk == 1 and t >= 0.5:
            return np.full_like(x, np.nan)
        return np.zeros_like(x)

    errors = []
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        with pytest.raises(NumericsError) as exc:
            simulate_sde(x0, planted, tiny, TimeGrid(10), seed=0)
        errors.append(str(exc.value))
    assert errors[0].startswith("non-finite drift at step 5 (t = 0.5)")
    assert errors == [errors[0]] * 3


def test_one_net_serves_two_threads_at_once():
    import sys

    net = DriftNet(MlpSpec(input_dim=2, output_dim=2, activation="selu"))
    net.theta[...] = np.random.default_rng(88).normal(0.0, 0.2, net.theta.size)
    inputs = [(0.1 * i, np.random.default_rng(89 + i).normal(size=(300 + 50 * i, 2)))
              for i in range(2)]
    serial = [net(t, x) for t, x in inputs]
    got = [[], []]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        for _ in range(40):
            got[i].append(net(*inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(2):
        assert len(got[i]) == 40
        assert all(np.array_equal(out, serial[i]) for out in got[i])


@pytest.mark.parametrize("value, workers", [
    (None, 1), ("0", 1), ("1", 4), ("abc", 1), ("8", 1), ("2", 2),
], ids=["unset", "zero", "one", "not-a-number", "above-cores", "two"])
def test_worker_count_follows_the_blas_cap(monkeypatch, value, workers):
    # The cap is OPENBLAS_NUM_THREADS as read when the module was imported.
    monkeypatch.setattr(_workers, "_BLAS_CAP", _workers._parse_cap(value))
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert _workers.workers(10) == workers
    # Never more workers than tasks.
    assert _workers.workers(2) == min(workers, 2)
    assert _workers.workers(1) == 1


def test_overflowing_state_is_a_numerics_error_naming_the_step():
    # From 1e308, steps of 1e307 leave the floats after the eighth (step 7).
    huge = lambda t, x: np.full_like(x, 1e308)
    start = np.full(2, 1e308)
    message = r"^non-finite state at step 7 \(t = 0.7\)"
    with pytest.raises(NumericsError, match=message):
        simulate_sde(np.tile(start, (3, 1)), huge, CONST, TimeGrid(10), seed=0)
    with pytest.raises(NumericsError, match=message):
        estimate_h_mc(start, 0.0, start, 1.0, huge, CONST, TimeGrid(10), seed=0, n_paths=3)


def test_non_finite_drift_reports_step_and_state():
    def bad(t, x):
        return np.full_like(x, np.nan) if t >= 0.5 else np.zeros_like(x)

    with pytest.raises(NumericsError, match=r"step 5"):
        simulate_sde(np.zeros((2, 1)), bad, CONST, TimeGrid(10), seed=0)


def test_conditioned_with_exact_residual_matches_bridge_marginal():
    # Feed the correction term m = pinned drift - b: the conditioned dynamics
    # then are exactly the pinned process, so its time-0.5 marginal must match
    # direct bridge sampling (two-sample MMD below 0.01).
    n = 10_000
    x0 = np.zeros((n, 1))
    x1 = np.ones((n, 1))
    b_fn = lambda t, x: 0.3 * np.ones_like(x)  # arbitrary smooth drift

    def m_fn(t, x, b_value):
        return bridge_drift_target(x, np.ones_like(x), t, CONST) - b_value

    batch = simulate_conditioned(x0, b_fn, m_fn, CONST, TimeGrid(500), seed=5)
    sim_mid = batch.states[:, 250, :]
    direct = bridge_marginal_sample(x0, x1, 0.5, CONST, np.random.default_rng(55))
    assert abs(mmd(sim_mid, direct)) < 0.01


def test_conditioned_zero_init_models_tiny_g_stays_at_start():
    # Zero-initialized networks contribute no drift; with negligible
    # diffusivity the conditioned trajectory stays at its starting point.
    from bridgekit import DoobNet, DriftNet, MlpSpec

    drift = DriftNet(MlpSpec(input_dim=2, output_dim=2, hidden_dim=4, time_embed_dim=4),
                     rng=np.random.default_rng(0))
    doob = DoobNet(MlpSpec(input_dim=2, output_dim=2, hidden_dim=4, time_embed_dim=4,
                           uses_drift_input=True), rng=np.random.default_rng(1))
    x0 = np.array([[0.7, -1.3]])
    tiny = DiffusivitySchedule.constant(1e-12)
    batch = simulate_conditioned(
        x0, drift, lambda t, x, b: doob(t, x, b_value=b),
        tiny, TimeGrid(10), seed=3,
    )
    np.testing.assert_allclose(batch.states, np.repeat(x0[:, None, :], 11, axis=1),
                               atol=1e-11)


def test_h_estimate_near_horizon_limits():
    grid = TimeGrid(100)
    x1 = np.array([0.7, -0.2])
    h_same = estimate_h_mc(x1, 1 - 1e-9, x1, 0.1, ZERO_DRIFT, CONST, grid, seed=1, n_paths=200)
    assert h_same == pytest.approx(1.0, abs=1e-3)
    # ||x - x1||^2 = 2 tau gives e^{-1}.
    tau = 0.1
    x = x1 + np.array([np.sqrt(2 * tau), 0.0])
    h_off = estimate_h_mc(x, 1 - 1e-9, x1, tau, ZERO_DRIFT, CONST, grid, seed=1, n_paths=200)
    assert h_off == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_h_estimate_in_unit_interval():
    grid = TimeGrid(20)
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.normal(size=2)
        x1 = rng.normal(size=2)
        t = float(rng.uniform(0, 0.95))
        h = estimate_h_mc(x, t, x1, 0.5, ZERO_DRIFT, CONST, grid, seed=3, n_paths=50)
        assert 0.0 < h <= 1.0


def test_h_estimate_argument_validation():
    grid = TimeGrid(10)
    with pytest.raises(ValueError):
        estimate_h_mc(np.zeros(1), 1.0, np.zeros(1), 0.1, ZERO_DRIFT, CONST, grid, 0, 10)
    for tau in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            estimate_h_mc(np.zeros(1), 0.5, np.zeros(1), tau, ZERO_DRIFT, CONST, grid, 0, 10)
    with pytest.raises(ValueError):
        estimate_h_mc(np.zeros(1), 0.5, np.zeros(1), 0.1, ZERO_DRIFT, CONST, grid, 0, 0)


def test_trained_single_pair_conditioned_simulation(single_pair_model):
    # Endpoint-corrected simulation on a well-trained model lands on the
    # paired target; the bridge itself is the oracle for where paths belong.
    result = single_pair_model.result
    n = 100
    x0 = np.zeros((n, 1))
    x1 = np.ones((n, 1))

    def doob_fn(t, x, b_value):
        return result.doob(t, x, b_value=b_value)

    batch = simulate_conditioned(
        x0, result.drift, doob_fn, DiffusivitySchedule.constant(1.0),
        TimeGrid(1000), seed=77,
    )
    from bridgekit import rmsd

    assert rmsd(batch.endpoints, x1) < 0.15


def test_trained_moon_h_estimates_nondecreasing(moon_model):
    # Along bridge states of a training-style pair, the smoothed hitting
    # weight grows with t: late states pin down the endpoint ever harder.
    result = moon_model.result
    sched = result.config.schedule
    grid = TimeGrid(50)
    dataset_pair_rng = np.random.default_rng(123)
    from bridgekit import generate_moon

    pairs = generate_moon(10, rng=dataset_pair_rng)
    x0, x1 = pairs.x0[3], pairs.x1[3]
    values = []
    for ti, t in enumerate([0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90]):
        states = bridge_marginal_sample(
            np.tile(x0, (4, 1)), np.tile(x1, (4, 1)), t, sched,
            np.random.default_rng(500 + ti),
        )
        ests = [
            estimate_h_mc(s, t, x1, 0.1, result.drift, sched, grid, seed=901, n_paths=2000)
            for s in states
        ]
        values.append(float(np.mean(ests)))
    assert all(values[i] <= values[i + 1] + 5e-3 for i in range(len(values) - 1))
    assert values[-1] > values[0]


def test_trajectory_csv_round_trip(tmp_path):
    batch = simulate_sde(
        np.random.default_rng(3).normal(size=(4, 2)), ZERO_DRIFT, CONST, TimeGrid(6), seed=8
    )
    path = tmp_path / "traj.csv"
    write_trajectories(path, batch)
    again = read_trajectories(path)
    assert np.array_equal(batch.states, again.states)
    assert np.array_equal(batch.times, again.times)
    header = path.read_text().splitlines()[0]
    assert header == "traj_id,step,t,x_0,x_1"


def _reference_trajectory_csv(batch):
    """Per-cell rendering the chunked writer must reproduce byte for byte."""
    lines = ["traj_id,step,t," + ",".join(f"x_{j}" for j in range(batch.d))]
    for i in range(batch.n_traj):
        for k in range(batch.n_steps + 1):
            cells = [str(i), str(k), format(batch.times[k], ".17g")]
            cells += [format(v, ".17g") for v in batch.states[i, k]]
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_traj,n_steps,d", [(3, 4, 1), (2, 5, 3), (1700, 9, 1)])
def test_trajectory_writer_matches_per_cell_format(tmp_path, n_traj, n_steps, d):
    # The last case has 17,000 rows, more than one write chunk.
    states = np.random.default_rng(n_traj).normal(size=(n_traj, n_steps + 1, d))
    special = [-0.0, 5e-324, 1e300, 0.1, 3.0, -2.0, 0.0,
               1e-4, 9.9999999999999991e-05, -1e16, 9999999999999998.0, 0.99999999999999994,
               1e15 + 0.5, 1 + 2**-17]
    states.reshape(-1)[: len(special)] = special
    batch = TrajectoryBatch(states=states, times=TimeGrid(n_steps).times)
    path = tmp_path / "traj.csv"
    write_trajectories(path, batch)
    assert path.read_bytes() == _reference_trajectory_csv(batch)
    # Written in consecutive parts, each appended after the one before it.
    parts = tmp_path / "parts.csv"
    bounds = sorted({0, 1, n_traj // 2, n_traj})
    for lo, hi in zip(bounds, bounds[1:]):
        write_trajectories(parts, TrajectoryBatch(states[lo:hi], batch.times), first_id=lo)
    assert parts.read_bytes() == path.read_bytes()
    again = read_trajectories(path)
    assert np.array_equal(again.states, batch.states)
    assert np.array_equal(again.times, batch.times)


@pytest.mark.parametrize("rows,line,message", [
    (["0,0,0,1", "0,1,1,2", "0,0,0,3"], 4, "duplicate row for trajectory 0 step 0"),
    (["0,0,0,1", "1.7,0,0,2"], 3, "integers"),
    (["0,0,0,1", "0,1.5,1,2"], 3, "integers"),
    (["0,0,0,1", "0,1,1,2", "1,0,0,3", "1,1,0.5,4"], 5, "t = 0.5 at step 1 differs"),
], ids=["duplicate", "fractional-id", "fractional-step", "t-disagrees"])
def test_trajectory_reader_rejects_inconsistent_rows(tmp_path, rows, line, message):
    from bridgekit.errors import DataError

    path = tmp_path / "bad.csv"
    path.write_text("traj_id,step,t,x_0\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=rf"bad\.csv:{line}: .*{message}"):
        read_trajectories(path)


def test_trajectory_csv_header_only_is_empty_batch(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("traj_id,step,t,x_0,x_1\n")
    batch = read_trajectories(path)
    assert batch.n_traj == 0
    assert batch.d == 2


def test_trajectory_batch_validation():
    with pytest.raises(ValueError):
        TrajectoryBatch(states=np.zeros((2, 3)), times=np.zeros(3))
    with pytest.raises(ValueError):
        TrajectoryBatch(states=np.zeros((2, 3, 1)), times=np.zeros(4))
