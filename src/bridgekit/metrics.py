"""Distributional and alignment metrics.

All functions are deterministic (no RNG): multi-scale unbiased MMD with RBF
kernels, entropy-regularized transport cost via log-domain Sinkhorn, RMSD over
index-aligned rows, and the mean-shift (perturbation-signature) distance.

MMD works on square tiles of about 256 rows held in two reused buffers, so its
memory does not grow with the cloud sizes. Within-sample sums evaluate only
the tiles on and above the diagonal. Each cloud is sorted along its first
coordinate first, so that a tile holds nearby points, and a (tile, scale) pair
whose every kernel value underflows to exactly 0.0 is skipped; the skip
changes no value.

Sinkhorn keeps two n x m buffers (the scaled cost -C/eps and a scratch) and
allocates nothing n x m inside a sweep. Its stop test needs no plan: after a
g-update the columns are feasible, and the row violation follows from the
next f-update, which the next sweep needs anyway. The plan is formed once,
from the pair of potentials the stop test accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MMD_SCALES = (2.0, 1.0, 0.5, 0.1, 0.01, 0.005)

# Rows per side of an MMD tile: two 256 x 256 float64 buffers (1 MB) stay in
# cache while each scale makes one pass over them.
_TILE = 256

# exp(-v) rounds to exactly 0.0 for every double v > 745.14, so a tile whose
# smallest d^2 / (2 s^2) exceeds this adds exactly nothing at scale s.
_EXP_UNDERFLOW = 745.2


def _as_cloud(x, name: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(d2, 0.0)


def _kernel_sums(a: np.ndarray, b: np.ndarray, scales) -> np.ndarray:
    """Total sum of exp(-d^2 / (2 s^2)) over all (i, j), one value per scale.

    When ``b is a`` only tiles on and above the diagonal are evaluated, and
    each off-diagonal tile counts twice.
    """
    symmetric = b is a
    sums = np.zeros(len(scales))
    two_s2 = [2.0 * s * s for s in scales]
    a_norm = np.sum(a * a, axis=1)
    b_norm = a_norm if symmetric else np.sum(b * b, axis=1)
    d2_buf = np.empty((_TILE, _TILE))
    k_buf = np.empty((_TILE, _TILE))
    for lo in range(0, len(a), _TILE):
        a_tile = a[lo : lo + _TILE]
        for lo2 in range(lo if symmetric else 0, len(b), _TILE):
            b_tile = b[lo2 : lo2 + _TILE]
            d2 = d2_buf[: len(a_tile), : len(b_tile)]
            k = k_buf[: len(a_tile), : len(b_tile)]
            # d^2 = |a|^2 + |b|^2 - 2 a.b, clamped at 0 against cancellation.
            np.matmul(a_tile, b_tile.T, out=k)
            k *= 2.0
            np.add(a_norm[lo : lo + _TILE, None], b_norm[None, lo2 : lo2 + _TILE], out=d2)
            d2 -= k
            np.maximum(d2, 0.0, out=d2)
            d2_min = float(d2.min())
            weight = 2.0 if symmetric and lo2 != lo else 1.0
            for si, t in enumerate(two_s2):
                if d2_min / t > _EXP_UNDERFLOW:
                    continue
                np.divide(d2, -t, out=k)
                np.exp(k, out=k)
                sums[si] += weight * float(k.sum())
    return sums


def mmd(x, y, scales=DEFAULT_MMD_SCALES) -> float:
    """Unbiased squared-MMD estimate averaged over RBF length scales.

    Within-sample terms average the off-diagonal kernel values, the cross term
    the full kernel matrix; the estimate may be negative. Requires at least
    two points per side.
    """
    x = _as_cloud(x, "x")
    y = _as_cloud(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    n, m = len(x), len(y)
    if n < 2 or m < 2:
        raise ValueError("unbiased MMD needs at least 2 points per sample")
    # Canonical operand order makes mmd(x, y) == mmd(y, x) bit-exactly.
    if (m, y.tobytes()) < (n, x.tobytes()):
        x, y, n, m = y, x, m, n
    # Sorting along the first axis makes tiles local in space, so that tiles
    # of far-apart points underflow at small scales and are skipped.
    x = x[np.argsort(x[:, 0], kind="stable")]
    y = y[np.argsort(y[:, 0], kind="stable")]
    scales = tuple(float(s) for s in scales)
    s_xx = _kernel_sums(x, x, scales)
    s_yy = _kernel_sums(y, y, scales)
    s_xy = _kernel_sums(x, y, scales)
    # Diagonal kernel values are exactly 1.
    within_x = (s_xx - n) / (n * (n - 1))
    within_y = (s_yy - m) / (m * (m - 1))
    cross = s_xy / (n * m)
    return float(np.mean(within_x + within_y - 2.0 * cross))


# ---------------------------------------------------------------------------
# Entropic optimal transport
# ---------------------------------------------------------------------------


@dataclass
class SinkhornResult:
    value: float  # <P, C>: transport cost under the converged plan
    plan: np.ndarray  # (n, m), rows sum to a, columns to b
    n_iters: int
    marginal_violation: float
    converged: bool


def sinkhorn_w(
    x, y, eps: float = 0.1, max_iters: int = 5000, tol: float = 1e-6,
    warm_start: bool = True,
) -> SinkhornResult:
    """Log-domain Sinkhorn on the squared-distance cost with uniform weights.

    Iterates dual potentials until the worse of the two L1 marginal violations
    drops below ``tol``; the reported scalar is the plain transport cost
    <P, C> of the converged plan. ``warm_start`` initializes the potentials by
    annealing from a large regularization down to ``eps`` (deterministic, and
    essential for convergence when eps is far below the cost scale); the
    annealing sweeps count toward ``max_iters``.
    """
    if not 0.0 < eps < np.inf:  # also false for NaN
        raise ValueError("eps must be positive and finite")
    x = _as_cloud(x, "x")
    y = _as_cloud(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    n, m = len(x), len(y)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    log_a = np.log(a)
    log_b = np.log(b)
    cost = _sq_dists(x, y)
    scaled = np.empty_like(cost)  # -cost / e for the current e
    work = np.empty_like(cost)

    def half_sweep(shift, axis, e):
        # -e log sum exp(-C / e + shift) along ``axis``, stabilised by its max;
        # with shift = g / e + log b this is the f-update that makes rows sum
        # to a, with shift = f / e + log a the g-update for the columns.
        np.add(scaled, shift, out=work)
        top = work.max(axis=axis, keepdims=True)
        np.subtract(work, top, out=work)
        np.exp(work, out=work)
        return -e * (top + np.log(work.sum(axis=axis, keepdims=True))).ravel()

    f = np.zeros(n)
    g = np.zeros(m)
    it = 0
    cost_scale = float(np.max(cost)) if cost.size else 1.0
    if warm_start and cost_scale > 0 and eps < cost_scale / 4:
        e = cost_scale / 4
        while e > eps and it < max_iters:
            np.divide(cost, -e, out=scaled)
            for _ in range(10):
                if it >= max_iters:
                    break
                f = half_sweep(g / e + log_b, 1, e)
                g = half_sweep((f / e + log_a)[:, None], 0, e)
                it += 1
            e = max(eps, e / 2)

    violation = None
    converged = False
    np.divide(cost, -eps, out=scaled)
    if it < max_iters:
        f_next = half_sweep(g / eps + log_b, 1, eps)
        while it < max_iters:
            f = f_next
            g = half_sweep((f / eps + log_a)[:, None], 0, eps)
            it += 1
            # Columns are now feasible; row i of the plan sums to
            # a_i exp((f_i - f'_i) / eps), with f' the next f-update. That is
            # at most 1, but rounding in f / eps can push the exponent far
            # past log n when eps is tiny, so it is clamped like the plan's.
            f_next = half_sweep(g / eps + log_b, 1, eps)
            row_excess = np.minimum((f - f_next) / eps, 50.0)
            violation = float(np.sum(a * np.abs(1.0 - np.exp(row_excess))))
            if violation < tol:
                converged = True
                break
    # The plan in the log domain; feasible plans have log entries <= 0, and the
    # clamp only tames the overflow of far-from-converged iterates.
    plan = np.add(scaled, (f / eps + log_a)[:, None], out=work)
    plan += g / eps + log_b
    np.minimum(plan, 50.0, out=plan)
    np.exp(plan, out=plan)
    if violation is None:
        violation = max(
            float(np.abs(plan.sum(axis=1) - a).sum()),
            float(np.abs(plan.sum(axis=0) - b).sum()),
        )
    np.multiply(plan, cost, out=scaled)
    return SinkhornResult(
        value=float(scaled.sum()),
        plan=plan,
        n_iters=it,
        marginal_violation=violation,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Alignment metrics
# ---------------------------------------------------------------------------


def rmsd(pred, ref) -> float:
    """sqrt(mean ||ref_i - pred_i||^2) over index-aligned rows.

    Row order carries the alignment; this is deliberately not permutation
    invariant.
    """
    pred = _as_cloud(pred, "pred")
    ref = _as_cloud(ref, "ref")
    if pred.shape != ref.shape:
        raise ValueError(
            f"rmsd needs index-aligned clouds of equal shape, got {pred.shape} vs {ref.shape}"
        )
    return float(np.sqrt(np.mean(np.sum((ref - pred) ** 2, axis=1))))


def ps_l2(pred, ref) -> float:
    """L2 distance between the mean shifts of ``pred`` and ``ref``.

    A control population would cancel in the difference of the two
    signatures, so this is ||mean(ref) - mean(pred)||.
    """
    pred = _as_cloud(pred, "pred")
    ref = _as_cloud(ref, "ref")
    if pred.shape[1] != ref.shape[1]:
        raise ValueError(f"dimension mismatch: {pred.shape[1]} vs {ref.shape[1]}")
    return float(np.linalg.norm(ref.mean(axis=0) - pred.mean(axis=0)))
