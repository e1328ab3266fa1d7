"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Trained models come from session fixtures in conftest.py and are
shared with the behavioral tests.

Criterion 7 is expected to fail; see the analysis printed by the test. The
smoothed endpoint-hitting weight averaged over on-path states is a constant-
in-t quantity under the model's own dynamics (tower property), so its profile
flattens as the drift net approaches the exact pinned drift that criterion 3
demands, and no tenfold increase can coexist with a model that passes
criterion 3.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import bridgekit as bk
from bridgekit import (
    DiffusivitySchedule,
    TimeGrid,
    bridge_marginal_moments,
    bridge_marginal_sample,
    estimate_h_mc,
    mmd,
    rmsd,
    simulate_sde,
    sinkhorn_w,
    train,
)
from bridgekit.nets import DoobNet, DriftNet, MlpSpec
from bridgekit.training import export_drift, loss_batch, sample_training_batch

from conftest import (
    MOON_HELDOUT_SEED,
    MOON_N_HELDOUT,
    SINGLE_PAIR_CONFIG,
)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. Bridge-marginal statistics
# ---------------------------------------------------------------------------


def test_criterion_1_bridge_marginal_statistics():
    started = time.monotonic()
    schedules = [
        DiffusivitySchedule.constant(0.5),
        DiffusivitySchedule.constant(2.0),
        DiffusivitySchedule(g_values=(1.0, 2.0), breakpoints=(0.5,)),
    ]
    times = (0.25, 0.5, 0.75)
    n = 100_000
    x0 = np.tile([0.5, -1.0], (n, 1))
    x1 = np.tile([2.0, 1.5], (n, 1))
    worst_mean_se = 0.0
    worst_var_rel = 0.0
    rng = np.random.default_rng(2024)
    for sched in schedules:
        for t in times:
            draws = bridge_marginal_sample(x0, x1, t, sched, rng)
            mean, var = bridge_marginal_moments(x0[0], x1[0], t, sched)
            se = np.sqrt(var / n)
            worst_mean_se = max(worst_mean_se, float(np.max(np.abs(draws.mean(0) - mean) / se)))
            worst_var_rel = max(worst_var_rel, float(np.max(np.abs(draws.var(0) - var) / var)))
    elapsed = time.monotonic() - started
    ok = worst_mean_se < 4.0 and worst_var_rel < 0.03 and elapsed < 10.0
    assert report(
        1, "bridge-marginal statistics", ok,
        f"worst mean err {worst_mean_se:.2f} SE (<4), worst var err "
        f"{worst_var_rel:.2%} (<3%), {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 2. Gradient oracle
# ---------------------------------------------------------------------------


def _directional_worst(value_fn, grad_flat, base, n_dirs, h=1e-4, seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.normal(size=base.size)
        d /= np.linalg.norm(d)
        fd = (value_fn(base + h * d) - value_fn(base - h * d)) / (2 * h)
        an = float(grad_flat @ d)
        worst = max(worst, abs(fd - an) / max(1e-12, abs(fd), abs(an)))
    return worst


def test_criterion_2_gradient_oracle():
    started = time.monotonic()
    worst = 0.0

    # Network outputs, both nets, all activations exercised via selu + silu.
    for activation, seed in (("selu", 1), ("silu", 2), ("relu", 3), ("leaky_relu", 4)):
        spec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=6, time_embed_dim=8,
                       activation=activation)
        net = DriftNet(spec, rng=np.random.default_rng(seed))
        ps = net.params()
        ps.set_flat(np.random.default_rng(seed + 10).normal(0, 0.3, ps.n_params))
        base = ps.flat().copy()
        x = np.random.default_rng(seed + 20).normal(size=(4, 2))
        t = np.random.default_rng(seed + 21).random(4)
        v = np.random.default_rng(seed + 22).normal(size=(4, 2))

        def value(vec):
            ps.set_flat(vec)
            out, _ = net.forward(t, x)
            ps.set_flat(base)
            return float(np.sum(out * v))

        out, cache = net.forward(t, x)
        grad = net.backward(cache, v)
        worst = max(worst, _directional_worst(value, grad, base, n_dirs=20))

    # Full loss wrt both parameter sets (decoupled correction net so the loss
    # is a plain function of each set).
    data = bk.generate_gauss_pairs(30, 2, shift=np.array([1.0, 0.5]),
                                   rng=np.random.default_rng(5))
    cfg = bk.TrainConfig(batch_size=8)
    batch = sample_training_batch(data, cfg, np.random.default_rng(6))
    dspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=6, time_embed_dim=8)
    mspec = MlpSpec(input_dim=2, output_dim=2, hidden_dim=6, time_embed_dim=8,
                    uses_drift_input=False)
    drift = DriftNet(dspec, rng=np.random.default_rng(7))
    doob = DoobNet(mspec, rng=np.random.default_rng(8))
    for net, s in ((drift, 9), (doob, 10)):
        ps = net.params()
        ps.set_flat(np.random.default_rng(s).normal(0, 0.3, ps.n_params))
    _, gd, gm = loss_batch(batch, drift, doob, cfg.schedule, lambda_value=0.7)
    for net, grads in ((drift, gd), (doob, gm)):
        ps = net.params()
        base = ps.flat().copy()

        def value(vec):
            ps.set_flat(vec)
            b, _, _ = loss_batch(batch, drift, doob, cfg.schedule, lambda_value=0.7)
            ps.set_flat(base)
            return b.total

        worst = max(worst, _directional_worst(value, grads, base, n_dirs=20))

    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    assert report(
        2, "gradient oracle", ok,
        f"worst relative error {worst:.2e} (<1e-4), {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 3. Single-pair minimizer
# ---------------------------------------------------------------------------


def test_criterion_3_single_pair_minimizer(single_pair_model):
    result = single_pair_model.result
    train_seconds = single_pair_model.train_seconds

    ts = np.linspace(0.0, 0.9, 10)
    xs = np.linspace(-0.5, 1.5, 21)
    T, X = np.meshgrid(ts, xs, indexing="ij")
    tt = T.ravel()
    xx = X.ravel()[:, None]
    pred = result.drift(tt, xx)[:, 0]
    true = (1.0 - xx[:, 0]) / (1.0 - tt)
    rel_l2 = float(np.sqrt(np.sum((pred - true) ** 2) / np.sum(true**2)))
    mean_m_sq = float(np.mean([b.mean_m_sq for b in result.trace[-100:]]))
    ok = rel_l2 < 0.10 and mean_m_sq < 0.05 and train_seconds < 60.0
    assert report(
        3, "single-pair minimizer", ok,
        f"relative L2 {rel_l2:.3f} (<0.10), mean ||m||^2 {mean_m_sq:.4f} (<0.05), "
        f"{train_seconds:.0f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 4. Moon alignment (through the exported reference drift)
# ---------------------------------------------------------------------------


def test_criterion_4_moon_alignment(moon_model, moon_heldout, tmp_path):
    started = time.monotonic()
    full = tmp_path / "moon.bkt"
    prior = tmp_path / "moon_prior.bkt"
    from bridgekit.training import save_train_result

    save_train_result(full, moon_model.result)
    exported = export_drift(full, prior)

    ends = simulate_sde(
        moon_heldout.x0, exported.drift, exported.schedule, TimeGrid(100), seed=9
    ).endpoints
    half = MOON_N_HELDOUT // 2
    wrong_idx = np.concatenate([np.arange(half, 2 * half), np.arange(0, half)])
    d_right = np.linalg.norm(ends - moon_heldout.x1, axis=1)
    d_wrong = np.linalg.norm(ends - moon_heldout.x1[wrong_idx], axis=1)
    frac = float(np.mean(d_right < d_wrong))
    r = rmsd(ends, moon_heldout.x1)
    elapsed = time.monotonic() - started + moon_model.train_seconds
    ok = frac >= 0.90 and r < 0.30 and elapsed < 300.0
    assert report(
        4, "moon alignment", ok,
        f"correct-arm fraction {frac:.0%} (>=90%), endpoint RMSD {r:.3f} (<0.3), "
        f"{elapsed:.0f}s (<300s incl. training)",
    )


# ---------------------------------------------------------------------------
# 5. T alignment
# ---------------------------------------------------------------------------


def test_criterion_5_t_alignment(t_model, t_heldout):
    started = time.monotonic()
    from bridgekit.datasets import T_CENTERS

    centers = np.array(
        [T_CENTERS["left"], T_CENTERS["right"], T_CENTERS["top"], T_CENTERS["bottom"]]
    )
    ends = simulate_sde(
        t_heldout.x0, t_model.result.drift, t_model.result.config.schedule,
        TimeGrid(100), seed=9,
    ).endpoints
    nearest = np.argmin(
        np.linalg.norm(ends[:, None, :] - centers[None], axis=2), axis=1
    )
    half = len(t_heldout) // 2
    frac_lr = float(np.mean(nearest[:half] == 1))
    frac_tb = float(np.mean(nearest[half:] == 3))
    elapsed = time.monotonic() - started + t_model.train_seconds
    ok = frac_lr >= 0.90 and frac_tb >= 0.90 and elapsed < 300.0
    assert report(
        5, "T alignment", ok,
        f"left->right {frac_lr:.0%} (>=90%), top->bottom {frac_tb:.0%} (>=90%), "
        f"{elapsed:.0f}s (<300s incl. training)",
    )


# ---------------------------------------------------------------------------
# 6. Step-count insensitivity
# ---------------------------------------------------------------------------


def test_criterion_6_step_count_insensitivity(moon_model, moon_heldout):
    sched = moon_model.result.config.schedule
    medians = {}
    for steps in (10, 100):
        ends = simulate_sde(
            moon_heldout.x0, moon_model.result.drift, sched, TimeGrid(steps), seed=9
        ).endpoints
        medians[steps] = float(np.median(np.linalg.norm(ends - moon_heldout.x1, axis=1)))
    diff = abs(medians[10] - medians[100])
    ok = diff <= 0.05
    assert report(
        6, "step-count insensitivity", ok,
        f"median endpoint RMSD: 10 steps {medians[10]:.4f}, 100 steps "
        f"{medians[100]:.4f}, |diff| {diff:.4f} (<=0.05)",
    )


# ---------------------------------------------------------------------------
# 7. Smoothed hitting-weight ordering (expected FAIL; see module docstring)
# ---------------------------------------------------------------------------


def test_criterion_7_h_magnitude_ordering(single_pair_model):
    sched = SINGLE_PAIR_CONFIG.schedule
    grid = TimeGrid(50)
    x1 = np.array([1.0])
    t_values = [0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90]
    n_states = 8
    profile = []
    for ti, t in enumerate(t_values):
        state_rng = np.random.default_rng(1000 + ti)
        states = bridge_marginal_sample(
            np.zeros((n_states, 1)), np.ones((n_states, 1)), t, sched, state_rng
        )
        estimates = [
            estimate_h_mc(
                s, t, x1, 0.1, single_pair_model.result.drift, sched, grid,
                seed=4242, n_paths=10_000,
            )
            for s in states
        ]
        profile.append(float(np.mean(estimates)))
    nondecreasing = all(profile[i] <= profile[i + 1] for i in range(len(profile) - 1))
    ratio = profile[-1] / profile[0]
    ok = nondecreasing and ratio >= 10.0
    report(
        7, "h-magnitude ordering", ok,
        f"profile {['%.4f' % v for v in profile]}, nondecreasing={nondecreasing}, "
        f"h(0.9)/h(0) = {ratio:.2f} (>=10 required)",
    )
    if not ok:
        print(
            "  analysis: averaged over on-path states the smoothed hitting weight "
            "is a martingale-type quantity, so a drift accurate enough for "
            "criterion 3 necessarily yields a flat profile; a tenfold increase "
            "cannot coexist with criterion 3 (full argument in this module's "
            "docstring)."
        )
    assert ok, (
        "criterion 7 is unattainable alongside criterion 3; "
        f"measured flat profile with ratio {ratio:.2f}"
    )


# ---------------------------------------------------------------------------
# 8. Metric oracles
# ---------------------------------------------------------------------------


def _lp_cost(x, y):
    n, m = len(x), len(y)
    cost = np.array([[float(np.sum((a - b) ** 2)) for b in y] for a in x])
    rows = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        rows.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        rows.append(row)
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost.ravel(), A_eq=np.array(rows)[:-1], b_eq=b_eq[:-1], method="highs")
    assert res.success
    return float(res.fun)


def _brute_mmd(x, y, scales):
    n, m = len(x), len(y)
    vals = []
    for s in scales:
        k = lambda a, b: np.exp(-float(np.sum((a - b) ** 2)) / (2 * s * s))
        xx = sum(k(x[i], x[j]) for i in range(n) for j in range(n) if i != j)
        yy = sum(k(y[i], y[j]) for i in range(m) for j in range(m) if i != j)
        xy = sum(k(x[i], y[j]) for i in range(n) for j in range(m))
        vals.append(xx / (n * (n - 1)) + yy / (m * (m - 1)) - 2 * xy / (n * m))
    return float(np.mean(vals))


def test_criterion_8_metric_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(88)
    worst_sinkhorn = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(m, 2))
        value = sinkhorn_w(x, y, eps=1e-3, tol=1e-10, max_iters=50_000).value
        worst_sinkhorn = max(worst_sinkhorn, abs(value - _lp_cost(x, y)))

    worst_mmd = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(m, 3)) + 0.3
        worst_mmd = max(worst_mmd, abs(mmd(x, y) - _brute_mmd(x, y, bk.DEFAULT_MMD_SCALES)))

    elapsed = time.monotonic() - started
    ok = worst_sinkhorn < 1e-3 and worst_mmd < 1e-9 and elapsed < 30.0
    assert report(
        8, "metric oracles", ok,
        f"sinkhorn vs LP worst {worst_sinkhorn:.2e} (<1e-3), mmd vs brute force "
        f"worst {worst_mmd:.2e} (<1e-9), {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 9. Regularizer dominance
# ---------------------------------------------------------------------------


def test_criterion_9_regularizer_dominance():
    data = bk.generate_gauss_pairs(
        200, 2, shift=np.array([1.0, 1.0]), rng=np.random.default_rng(99)
    )
    cfg = bk.TrainConfig(
        batch_size=64, n_iters=2000, lambda_value=1e6, g=1.0, seed=4
    )
    result = train(data, cfg)
    tail = float(np.mean([b.mean_m_sq for b in result.trace[-50:]]))
    ok = tail < 1e-3
    assert report(
        9, "regularizer dominance", ok,
        f"mean ||m||^2 over final 50 iterations {tail:.2e} (<1e-3 within 2000 iters)",
    )


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------


def _pipeline(workdir: Path) -> dict:
    from bridgekit.cli import main
    from bridgekit.training import format_config

    workdir.mkdir(parents=True, exist_ok=True)
    pairs = workdir / "pairs.csv"
    cfg = workdir / "config.txt"
    cfg.write_text(
        format_config(bk.TrainConfig(batch_size=16, n_iters=150, seed=12, eval_every=50))
    )
    model_dir = workdir / "model"
    traj = workdir / "traj.csv"
    report_path = workdir / "report.txt"
    steps = [
        ["generate", "--dataset", "moon", "--n", "60", "--seed", "5", "--out", str(pairs)],
        ["train", "--data", str(pairs), "--config", str(cfg), "--out", str(model_dir)],
        ["sample", "--model", str(model_dir / "model.bkt"), "--data", str(pairs),
         "--steps", "20", "--n-poses", "2", "--seed", "3", "--out", str(traj)],
        ["evaluate", "--pred", str(workdir / "traj_endpoints.csv"),
         "--ref", f"{pairs}:x1", "--metrics", "mmd,sinkhorn,ps_l2",
         "--out", str(report_path)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {
        "model": (model_dir / "model.bkt").read_bytes(),
        "traj": traj.read_bytes(),
        "report": report_path.read_bytes(),
    }


def test_criterion_10_end_to_end_determinism(tmp_path):
    a = _pipeline(tmp_path / "run_a")
    b = _pipeline(tmp_path / "run_b")
    same = {k: a[k] == b[k] for k in a}
    ok = all(same.values())
    assert report(
        10, "end-to-end determinism", ok,
        f"byte-identical: model={same['model']}, trajectories={same['traj']}, "
        f"report={same['report']}",
    )
