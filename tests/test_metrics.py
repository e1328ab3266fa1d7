import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgekit import DEFAULT_MMD_SCALES, mmd, ps_l2, rmsd, sinkhorn_w


def brute_force_mmd(x, y, scales):
    """Direct triple-loop evaluation of the unbiased estimator."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n, m = len(x), len(y)

    def k(a, b, s):
        return math.exp(-float(np.sum((a - b) ** 2)) / (2 * s * s))

    vals = []
    for s in scales:
        xx = sum(k(x[i], x[j], s) for i in range(n) for j in range(n) if i != j)
        yy = sum(k(y[i], y[j], s) for i in range(m) for j in range(m) if i != j)
        xy = sum(k(x[i], y[j], s) for i in range(n) for j in range(m))
        vals.append(xx / (n * (n - 1)) + yy / (m * (m - 1)) - 2 * xy / (n * m))
    return float(np.mean(vals))


def test_mmd_two_point_hand_example():
    x = np.array([[0.0], [1.0]])
    # Frozen by hand: e^{-1/2} + e^{-1/2} - 2 (2 + 2 e^{-1/2}) / 4 = e^{-1/2} - 1.
    expected = math.exp(-0.5) - 1.0
    assert mmd(x, x.copy(), scales=[1.0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.3934693402873666, abs=1e-12)


def test_mmd_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m, d = rng.integers(2, 11), rng.integers(2, 11), rng.integers(1, 4)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(m, d)) + 0.5
        assert mmd(x, y) == pytest.approx(brute_force_mmd(x, y, DEFAULT_MMD_SCALES), abs=1e-9)


def test_mmd_same_distribution_is_small():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1000, 2))
    y = rng.normal(size=(1000, 2))
    assert abs(mmd(x, y)) < 0.01


def test_mmd_symmetry_exact():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 3))
    y = rng.normal(size=(12, 3)) + 1.0
    assert mmd(x, y) == mmd(y, x)


def test_mmd_scale_averaging():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 2))
    y = rng.normal(size=(8, 2)) + 0.3
    per_scale = [mmd(x, y, scales=[s]) for s in DEFAULT_MMD_SCALES]
    assert mmd(x, y) == pytest.approx(np.mean(per_scale), abs=1e-14)


def test_mmd_needs_two_points_per_side():
    with pytest.raises(ValueError):
        mmd(np.zeros((1, 2)), np.zeros((5, 2)))


def test_mmd_rejects_zero_dimensional_clouds():
    with pytest.raises(ValueError, match="nonempty"):
        mmd(np.zeros((3, 0)), np.zeros((4, 0)))


def cdist_mmd(x, y, scales):
    """The unbiased estimator from scipy's direct squared distances."""
    from scipy.spatial.distance import cdist

    def kernel_sums(a, b):
        d2 = cdist(a, b, "sqeuclidean")
        return np.array([np.exp(-d2 / (2.0 * s * s)).sum() for s in scales])

    n, m = len(x), len(y)
    within_x = (kernel_sums(x, x) - n) / (n * (n - 1))
    within_y = (kernel_sums(y, y) - m) / (m * (m - 1))
    return float(np.mean(within_x + within_y - 2.0 * kernel_sums(x, y) / (n * m)))


def multi_tile_clouds():
    """Unsorted clouds spanning several 256-row tiles, n != m."""
    rng = np.random.default_rng(21)
    yield rng.normal(size=(600, 1)), rng.normal(size=(300, 1)) + 0.2
    yield rng.normal(size=(300, 3)), 1.2 * rng.normal(size=(700, 3)) + 0.3
    yield rng.normal(size=(513, 2)), rng.normal(size=(257, 2))
    # Spread out in 1-D: at the small scales most tiles underflow and are skipped.
    yield rng.uniform(-10, 10, size=(1000, 1)), rng.uniform(-10, 10, size=(900, 1))


def test_mmd_matches_cdist_reference_on_multi_tile_clouds():
    for x, y in multi_tile_clouds():
        assert mmd(x, y) == pytest.approx(cdist_mmd(x, y, DEFAULT_MMD_SCALES), abs=1e-12)


def test_mmd_underflow_skip_is_exact(monkeypatch):
    import bridgekit.metrics as metrics

    calls = []
    real_exp = np.exp

    def counting_exp(*args, **kwargs):
        calls.append(1)
        return real_exp(*args, **kwargs)

    rng = np.random.default_rng(22)
    x, y = rng.uniform(-10, 10, size=(1000, 1)), rng.uniform(-10, 10, size=(900, 1))
    monkeypatch.setattr(metrics.np, "exp", counting_exp)
    skipped = mmd(x, y)
    n_skipped = len(calls)
    calls.clear()
    monkeypatch.setattr(metrics, "_EXP_UNDERFLOW", math.inf)
    full = mmd(x, y)
    assert n_skipped < len(calls)
    assert skipped == full


def test_mmd_symmetry_exact_on_multi_tile_clouds():
    for x, y in multi_tile_clouds():
        assert mmd(x, y) == mmd(y, x)
    rng = np.random.default_rng(23)
    x, y = rng.normal(size=(520, 2)), rng.normal(size=(520, 2))
    assert mmd(x, y) == mmd(y, x)


def test_mmd_memory_does_not_grow_with_cloud_size():
    import tracemalloc

    rng = np.random.default_rng(24)
    x, y = rng.normal(size=(3000, 2)), rng.normal(size=(3000, 2)) + 0.1
    tracemalloc.start()
    try:
        mmd(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------


def lp_transport_cost(x, y):
    """Exact optimal transport cost with uniform weights via scipy's LP."""
    from scipy.optimize import linprog

    n, m = len(x), len(y)
    cost = np.array([[float(np.sum((a - b) ** 2)) for b in y] for a in x])
    a_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq)[:-1], b_eq=b_eq[:-1], method="highs")
    assert res.success
    return float(res.fun)


def test_sinkhorn_identical_single_points():
    result = sinkhorn_w(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), eps=0.1)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.plan, [[1.0]], atol=1e-12)
    assert result.converged


def test_sinkhorn_forced_single_pair():
    result = sinkhorn_w(np.array([[0.0]]), np.array([[1.0]]), eps=0.05)
    np.testing.assert_allclose(result.plan, [[1.0]], atol=1e-12)
    assert result.value == pytest.approx(1.0, abs=1e-12)


def test_sinkhorn_two_point_identity_plan():
    # 2x2 polytope with uniform marginals: extremes are identity/2 and swap/2;
    # the identity assignment has zero cost, the swap costs 1. Small eps must
    # land near the identity extreme.
    x = np.array([[0.0], [1.0]])
    result = sinkhorn_w(x, x.copy(), eps=0.01, max_iters=20_000)
    assert result.value < 0.02
    np.testing.assert_allclose(result.plan, np.eye(2) / 2, atol=1e-2)


def test_sinkhorn_plan_feasibility():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 2))
    y = rng.normal(size=(9, 2))
    result = sinkhorn_w(x, y, eps=0.2, tol=1e-8, max_iters=50_000)
    assert result.converged
    np.testing.assert_allclose(result.plan.sum(axis=1), np.full(6, 1 / 6), atol=1e-6)
    np.testing.assert_allclose(result.plan.sum(axis=0), np.full(9, 1 / 9), atol=1e-6)
    assert np.all(result.plan >= 0)


def exact_square_ot(x, y):
    """Exact LP value for n = n uniform instances: by Birkhoff the optimum sits
    on a permutation, so enumerate all of them."""
    n = len(x)
    cost = np.array([[float(np.sum((a - b) ** 2)) for b in y] for a in x])
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def test_sinkhorn_approaches_exact_lp_as_eps_shrinks():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        exact = exact_square_ot(x, y)
        value = sinkhorn_w(x, y, eps=5e-4, tol=1e-12, max_iters=300_000).value
        assert value == pytest.approx(exact, abs=1e-9)


def test_sinkhorn_close_to_lp_oracle_rectangular():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(m, 2))
        exact = lp_transport_cost(x, y)
        value = sinkhorn_w(x, y, eps=2e-3, tol=1e-10, max_iters=200_000).value
        assert value == pytest.approx(exact, abs=1e-3)


def test_sinkhorn_non_convergence_flag():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 2))
    result = sinkhorn_w(x, y, eps=1e-4, max_iters=3, tol=1e-12)
    assert not result.converged
    assert result.n_iters == 3


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_sinkhorn_tiny_eps_without_warm_start_stays_finite_and_quiet(seed):
    # Costs near 1e8 with eps 1e-12: rounding in f / eps alone moves the stop
    # test's exponent by far more than 709, which overflowed exp unclamped.
    rng = np.random.default_rng(seed)
    x = 1e4 * rng.standard_normal((40, 2))
    y = 1e4 * rng.standard_normal((30, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sinkhorn_w(x, y, eps=1e-12, warm_start=False, max_iters=5)
    assert math.isfinite(result.marginal_violation)
    assert np.all(np.isfinite(result.plan))


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_sinkhorn_eps_below_cost_resolution_reports_the_plans_violation(seed):
    # eps 1e-12 against costs near 1e8 is below 2^-40 of the cost scale: the
    # sweeps' violation does not describe the plan, so the plan's is reported.
    rng = np.random.default_rng(seed)
    x = 1e4 * rng.standard_normal((40, 2))
    y = 1e4 * rng.standard_normal((30, 2))
    result = sinkhorn_w(x, y, eps=1e-12, warm_start=False, max_iters=50)
    plan = result.plan
    expected = max(np.abs(plan.sum(axis=1) - 1.0 / 40).sum(),
                   np.abs(plan.sum(axis=0) - 1.0 / 30).sum())
    assert result.marginal_violation == pytest.approx(expected, rel=1e-12)
    assert result.converged is False


def reference_sinkhorn(x, y, eps=0.1, max_iters=5000, tol=1e-6, warm_start=True):
    """The earlier sweep loop: a full plan after every fixed-eps sweep for the
    stop test. Returns (value, n_iters, marginal_violation)."""
    n, m = len(x), len(y)
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    log_a, log_b = np.log(a), np.log(b)
    cost = np.maximum(
        np.sum(x * x, axis=1)[:, None] + np.sum(y * y, axis=1)[None, :] - 2.0 * (x @ y.T), 0.0
    )

    def lse(z, axis):
        zmax = np.max(z, axis=axis, keepdims=True)
        out = zmax + np.log(np.sum(np.exp(z - zmax), axis=axis, keepdims=True))
        return np.squeeze(out, axis=axis)

    def sweep(f, g, e):
        f = -e * lse((g[None, :] - cost) / e + log_b[None, :], axis=1)
        g = -e * lse((f[:, None] - cost) / e + log_a[:, None], axis=0)
        return f, g

    def plan_of(f, g):
        log_plan = (f[:, None] + g[None, :] - cost) / eps + log_a[:, None] + log_b[None, :]
        return np.exp(np.minimum(log_plan, 50.0))

    def violation_of(plan):
        return max(float(np.abs(plan.sum(axis=1) - a).sum()),
                   float(np.abs(plan.sum(axis=0) - b).sum()))

    f, g, it = np.zeros(n), np.zeros(m), 0
    cost_scale = float(np.max(cost))
    if warm_start and cost_scale > 0 and eps < cost_scale / 4:
        e = cost_scale / 4
        while e > eps and it < max_iters:
            for _ in range(10):
                if it >= max_iters:
                    break
                f, g = sweep(f, g, e)
                it += 1
            e = max(eps, e / 2)
    violation = np.inf
    while it < max_iters:
        f, g = sweep(f, g, eps)
        it += 1
        violation = violation_of(plan_of(f, g))
        if violation < tol:
            break
    plan = plan_of(f, g)
    return float(np.sum(plan * cost)), it, violation


@pytest.mark.parametrize("n, m, d, eps, warm_start", [
    (60, 80, 2, 0.1, True),
    (120, 100, 3, 0.1, True),
    (90, 40, 1, 0.2, False),
    (200, 150, 2, 0.02, True),
])
def test_sinkhorn_matches_reference_sweep_loop(n, m, d, eps, warm_start):
    rng = np.random.default_rng(n + m + d)
    x = rng.normal(size=(n, d))
    y = 0.8 * rng.normal(size=(m, d)) + 0.5
    result = sinkhorn_w(x, y, eps=eps, warm_start=warm_start)
    value, n_iters, _ = reference_sinkhorn(x, y, eps=eps, warm_start=warm_start)
    assert result.converged
    assert abs(result.n_iters - n_iters) <= 1
    assert result.value == pytest.approx(value, rel=1e-12)
    plan = result.plan
    recomputed = max(float(np.abs(plan.sum(axis=1) - 1.0 / n).sum()),
                     float(np.abs(plan.sum(axis=0) - 1.0 / m).sum()))
    assert result.marginal_violation == pytest.approx(recomputed, abs=1e-12)


def sinkhorn_fallbacks(monkeypatch):
    """Spy on the kernel path: the smallest entry of every mat-vec that sent a
    sweep back to the log domain."""
    import bridgekit.metrics as metrics

    real_scaling = metrics._scaling
    seen = []

    def spy(weight, kv):
        scaling = real_scaling(weight, kv)
        if scaling is None:
            seen.append(float(kv.min()))
        return scaling

    monkeypatch.setattr(metrics, "_scaling", spy)
    return seen


@pytest.mark.parametrize("warm_start", [True, False])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 1e-3])
def test_sinkhorn_kernel_sweeps_match_log_domain_loop(eps, warm_start):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(12, 2))
    y = 0.8 * rng.normal(size=(15, 2)) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sinkhorn_w(x, y, eps=eps, warm_start=warm_start, max_iters=20_000)
    value, n_iters, _ = reference_sinkhorn(x, y, eps=eps, warm_start=warm_start,
                                           max_iters=20_000)
    assert result.converged
    assert abs(result.n_iters - n_iters) <= 1
    assert result.value == pytest.approx(value, rel=1e-12)


def test_sinkhorn_scaling_out_of_range_is_absorbed(monkeypatch):
    # Without annealing at eps 1e-3 the potentials drift by more than
    # 230 eps within the stage, so u or v would pass 1e100.
    fallbacks = sinkhorn_fallbacks(monkeypatch)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 2))
    y = 0.8 * rng.normal(size=(8, 2)) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sinkhorn_w(x, y, eps=1e-3, warm_start=False, max_iters=20_000)
    assert fallbacks and min(fallbacks) > 0.0
    value, n_iters, _ = reference_sinkhorn(x, y, eps=1e-3, warm_start=False, max_iters=20_000)
    assert result.converged
    assert abs(result.n_iters - n_iters) <= 1
    assert result.value == pytest.approx(value, rel=1e-12)


def test_sinkhorn_zero_mat_vec_entry_falls_back_quietly(monkeypatch):
    # Costs near 1e8 at eps 1e-12: rounding in f / eps leaves a whole column
    # of the kernel at 0, so K^T u has an entry that is exactly 0.
    fallbacks = sinkhorn_fallbacks(monkeypatch)
    rng = np.random.default_rng(0)
    x = 1e4 * rng.standard_normal((20, 2))
    y = 1e4 * rng.standard_normal((15, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sinkhorn_w(x, y, eps=1e-12, warm_start=False, max_iters=20)
    assert 0.0 in fallbacks
    assert result.n_iters == 20
    assert math.isfinite(result.value) and math.isfinite(result.marginal_violation)
    assert np.all(np.isfinite(result.plan))


def test_sinkhorn_memory_is_three_cost_sized_arrays():
    import tracemalloc

    rng = np.random.default_rng(8)
    n, m = 600, 500
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(m, 2)) + 0.3
    sinkhorn_w(x, y)
    tracemalloc.start()
    try:
        sinkhorn_w(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n * m * 8


def test_sinkhorn_rejects_bad_eps():
    with pytest.raises(ValueError):
        sinkhorn_w(np.zeros((2, 1)), np.zeros((2, 1)), eps=0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_sinkhorn_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        sinkhorn_w(np.zeros((3, 1)), np.ones((4, 1)), eps=eps)


# ---------------------------------------------------------------------------
# RMSD and mean-shift distance
# ---------------------------------------------------------------------------


def test_rmsd_basics():
    assert rmsd(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0
    assert rmsd(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)


def test_rmsd_is_order_sensitive():
    pred = np.array([[0.0], [1.0]])
    ref = np.array([[1.0], [0.0]])
    assert rmsd(pred, ref) == pytest.approx(1.0)
    assert rmsd(pred, pred.copy()) == 0.0


def test_rmsd_shape_mismatch():
    with pytest.raises(ValueError):
        rmsd(np.zeros((3, 2)), np.zeros((4, 2)))


@given(
    data=st.lists(
        st.tuples(
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_rmsd_triangle_inequality(data):
    arr = np.asarray(data, dtype=float)
    a, b, c = arr[:, :2], arr[:, 2:4], arr[:, 4:]
    assert rmsd(a, c) <= rmsd(a, b) + rmsd(b, c) + 1e-9


def test_ps_l2_values():
    pred = np.zeros((10, 2))
    ref = np.tile([3.0, 4.0], (7, 1))
    assert ps_l2(pred, pred.copy()) == 0.0
    assert ps_l2(pred, ref) == pytest.approx(5.0)


def test_ps_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        ps_l2(np.zeros((3, 2)), np.zeros((3, 3)))
