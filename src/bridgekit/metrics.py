"""Distributional and alignment metrics.

All functions are deterministic (no RNG): multi-scale unbiased MMD with RBF
kernels, entropy-regularized transport cost via stabilised Sinkhorn, RMSD over
index-aligned rows, and the mean-shift (perturbation-signature) distance.

MMD works on square tiles of about 256 rows held in two reused buffers, so its
memory does not grow with the cloud sizes. Within-sample sums evaluate only
the tiles on and above the diagonal. Each cloud is sorted along its first
coordinate first, so that a tile holds nearby points, and a (tile, scale) pair
whose every kernel value underflows to exactly 0.0 is skipped; the skip
changes no value.

Sinkhorn runs in the stabilised scaling domain (Schmitzer 2019). Each eps
stage starts with one log-domain sweep, whose potentials are then absorbed
into a kernel K_ij = a_i b_j exp((f_i + g_j - C_ij) / eps); the later sweeps
are two mat-vecs, u = a / (K v) and v = b / (K^T u). A sweep whose mat-vec
has an entry that is 0 or not finite, or whose scalings would leave
[1e-100, 1e100], runs in the log domain instead and absorbs again. Three n x m
arrays are live: the cost, -C/eps and a scratch that holds K. The stop test
needs no plan: after a v-update the columns are feasible, and row i sums to
u_i (K v)_i, where K v is the next sweep's first mat-vec. The plan is formed
once, from the potentials f + eps log u and g + eps log v that the stop test
accepted.
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

# Sinkhorn's scalings u and v stay within this range; a sweep that would leave
# it runs in the log domain instead and absorbs the scalings into the kernel.
_SCALING_MIN, _SCALING_MAX = 1e-100, 1e100


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


def _scaling(weight: float, kv: np.ndarray):
    """``weight / kv``, or None when a quotient would leave [1e-100, 1e100].

    That is also None when ``kv`` has an entry that is 0 or not finite; the
    range is tested on ``kv`` before dividing, so no warning is raised.
    """
    if not (weight * _SCALING_MIN <= kv.min() and kv.max() <= weight * _SCALING_MAX):
        return None
    return weight / kv


def sinkhorn_w(
    x, y, eps: float = 0.1, max_iters: int = 5000, tol: float = 1e-6,
    warm_start: bool = True,
) -> SinkhornResult:
    """Sinkhorn on the squared-distance cost with uniform weights, in the
    stabilised scaling domain with log-domain sweeps where it must.

    Iterates until the worse of the two L1 marginal violations drops below
    ``tol``; the reported scalar is the plain transport cost <P, C> of the
    converged plan. ``warm_start`` anneals the regularization from a large
    value down to ``eps``, 10 sweeps per halving (deterministic, and essential
    for convergence when eps is far below the cost scale); the annealing
    sweeps count toward ``max_iters``.
    """
    if not 0.0 < eps < np.inf:  # also false for NaN
        raise ValueError("eps must be positive and finite")
    x = _as_cloud(x, "x")
    y = _as_cloud(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    n, m = len(x), len(y)
    a_w, b_w = 1.0 / n, 1.0 / m
    log_a = np.full(n, np.log(a_w))
    log_b = np.full(m, np.log(b_w))
    cost = _sq_dists(x, y)
    scaled = np.empty_like(cost)  # -cost / e for the current e
    work = np.empty_like(cost)  # log-domain scratch, then the kernel K

    def half_sweep(shift, axis, e):
        # -e log sum exp(-C / e + shift) along ``axis``, stabilised by its max;
        # with shift = g / e + log b this is the f-update that makes rows sum
        # to a, with shift = f / e + log a the g-update for the columns.
        np.add(scaled, shift, out=work)
        top = work.max(axis=axis, keepdims=True)
        np.subtract(work, top, out=work)
        np.exp(work, out=work)
        return -e * (top + np.log(work.sum(axis=axis, keepdims=True))).ravel()

    def f_update(g, e):
        return half_sweep(g / e + log_b, 1, e)

    def plan_of(f, g, e):
        # a_i b_j exp((f_i + g_j - C_ij) / e) in ``work``: the plan of (f, g),
        # and the kernel K that the scaling sweeps run on. Feasible plans have
        # log entries <= 0; the clamp only tames far-from-converged iterates.
        np.add(scaled, (f / e + log_a)[:, None], out=work)
        np.add(work, g / e + log_b, out=work)
        np.minimum(work, 50.0, out=work)
        return np.exp(work, out=work)

    stages = []
    cost_scale = float(np.max(cost)) if cost.size else 1.0
    if warm_start and cost_scale > 0 and eps < cost_scale / 4:
        e = cost_scale / 4
        while e > eps:
            stages.append(e)
            e = max(eps, e / 2)
    stages.append(eps)

    # The potentials are f + e log u and g + e log v: (f, g) are held in the
    # kernel K = plan_of(f, g, e), and a sweep on it is two mat-vecs,
    # u = a / (K v) and v = b / (K^T u). A stage starts with one log-domain
    # sweep, which absorbs the potentials into K and resets u = v = 1; so
    # does any sweep whose mat-vec or scaling leaves the safe range.
    f, g = np.zeros(n), np.zeros(m)
    u, v = np.ones(n), np.ones(m)
    it = 0
    violation = None
    converged = False
    for e in stages:
        final = e == eps
        np.divide(cost, -e, out=scaled)
        stop = max_iters if final else min(it + 10, max_iters)
        u_next = None  # a / (K v) for the next sweep; None: a log-domain sweep
        f_next = None  # the next f-update, when the log-domain stop test made it
        while it < stop:
            v_next = None if u_next is None else _scaling(b_w, work.T @ u_next)
            if v_next is None:
                f = f_update(g + e * np.log(v), e) if f_next is None else f_next
                g = half_sweep((f / e + log_a)[:, None], 0, e)
                plan_of(f, g, e)
                u, v = np.ones(n), np.ones(m)
            else:
                u, v = u_next, v_next
            it += 1
            f_next = None
            u_next = _scaling(a_w, work @ v)
            if not final:
                continue
            # Columns are now feasible, and row i of the plan sums to
            # u_i (K v)_i = a_i u_i / u'_i, with u' the next u-update.
            if u_next is not None:
                violation = float(a_w * np.sum(np.abs(1.0 - u / u_next)))
            else:
                # The same test in the log domain: row i sums to
                # a_i exp((f_i - f'_i) / e). Rounding in f / e can push that
                # exponent far past log n when e is tiny, so it is clamped
                # like the plan's.
                f_next = f_update(g + e * np.log(v), e)
                row_excess = np.minimum((f + e * np.log(u) - f_next) / e, 50.0)
                violation = float(a_w * np.sum(np.abs(1.0 - np.exp(row_excess))))
            if violation < tol:
                converged = True
                break
        f, g = f + e * np.log(u), g + e * np.log(v)
        u, v = np.ones(n), np.ones(m)
    plan = plan_of(f, g, eps)
    # Below 2^-40 of the cost scale, f / eps rounds by more than the sweeps'
    # violation can resolve: report the returned plan's own, not converged.
    unresolved = eps < 2.0**-40 * cost_scale
    if unresolved:
        converged = False
    if violation is None or unresolved:
        violation = max(
            float(np.abs(plan.sum(axis=1) - a_w).sum()),
            float(np.abs(plan.sum(axis=0) - b_w).sum()),
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
