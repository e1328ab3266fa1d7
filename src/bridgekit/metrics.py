"""Distributional and alignment metrics.

All functions are deterministic (no RNG): multi-scale unbiased MMD with RBF
kernels, entropy-regularized transport cost via stabilised Sinkhorn, RMSD over
index-aligned rows, and the mean-shift (perturbation-signature) distance.

MMD works on square tiles of about 256 rows held in two reused buffers, so its
memory does not grow with the cloud sizes. A tile's squared distances are one
matrix product of augmented rows, [-2a, |a|^2, 1] . [b, 1, |b|^2], clamped at
0; each scale then multiplies them by -1 / (2 s^2) and takes one exp, except a
scale that is exactly half the one before it, whose kernel is the previous
kernel squared twice (the default scales take three exps per tile).
numpy's exp (measured: numpy 2.4.6, AVX-512) takes a scalar path for each
8-lane vector that holds an argument below about -708: a lane whose exp is
exactly 0.0 then costs about 15 times a normal one, and one whose exp is
subnormal over 100 times. In a tile whose largest d^2 gives an exponent
below -745.2, the lanes below it are set to 0 before the exp and to 0.0,
their exp, after it, by an and with a mask of their bits. Lanes in
[-745.2, -708] still take the slow path, since their values are subnormal
and not all 0. exp gives each lane the same bits whatever its neighbours,
so every sum keeps its bits. A tile's d^2 is clamped only when it has a
negative entry; otherwise the clamp would change nothing.
Within-sample sums evaluate only the tiles on and above the diagonal, and set
the diagonal's squared distances to exactly 0. Each cloud is sorted along its
first coordinate first, so that a tile holds nearby points, and a (tile,
scale) pair whose every kernel value underflows to exactly 0.0 is skipped; the
skip changes no value. Each stripe of tiles (256 rows of the first cloud) is
one task, and the stripes of all three sums run on the workers of
``_workers.run_tasks`` (one thread per core the BLAS cap leaves free), each
worker with its own two buffers and mask. The calling thread adds their
per-tile values in the serial loop's order, so MMD does not depend on the
worker count.

Sinkhorn runs in the stabilised scaling domain (Schmitzer 2019). Each eps
stage of a warm start absorbs its potentials once into a kernel
K_ij = a_i b_j exp((f_i + g_j - C_ij) / eps), and its sweeps, the first
included, are two mat-vecs, u = a / (K v) and v = b / (K^T u). A run of one
stage starts with one log-domain sweep instead, since its zero potentials
can underflow the whole kernel. A sweep whose mat-vec has an entry that is 0
or not finite, or whose scalings would leave [1e-100, 1e100], runs in the
log domain instead and absorbs again. Two n x m arrays are live: the cost,
and a scratch that holds -C/eps + shifts in a log-domain sweep, then K, and
at the end the returned plan. The stop test needs no plan: row i sums to
u_i (K v)_i, where K v is the next sweep's first mat-vec, and column j to
v_j (K^T u)_j, this sweep's second. A warm-start stage ends after at most 10
sweeps, once its violation is below 5e-3. The final stage over-relaxes its
scaling sweeps, u <- u exp(w log((a / K v) / u)) and the same for v
(Thibault et al. 2017, arXiv:1711.01851), and its log-domain sweeps alike,
f <- (1 - w)(f + eps log u) + w f': w is read from the rate of its first 10
plain sweeps as the optimum for that rate (Lehmann et al. 2020,
arXiv:2012.12562), and raised every 10 sweeps to what their rate implies; a
rate that reads a plateau gives w = 1. A relaxed scaling that would leave
[1e-100, 1e100] sends its sweep to the log domain. The plan is formed once,
from the potentials f + eps log u and g + eps log v that the stop test
accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._workers import run_tasks, workers

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

# A warm start's stage ends once its marginal violation is below this, or
# after 10 sweeps.
_STAGE_TOL = 5e-3

# A violation that falls by less than this factor per sweep is on a plateau:
# relaxing it from there lifts the violation instead.
_PLATEAU = 0.9999


def _as_cloud(x, name: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    # Every metric squares coordinate differences, which are at most twice
    # the largest coordinate; d of those squares must sum to a finite value.
    extent = float(np.max(np.abs(x)))
    if not 4.0 * x.shape[1] * extent * extent < np.inf:
        raise ValueError(f"{name} has coordinates up to {extent:g}, too large for squared "
                         f"distances to be finite")
    return x


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both clouds through :func:`_as_cloud`, named the first and the second
    cloud; they must have the same dimension."""
    x, y = _as_cloud(x, "the first cloud"), _as_cloud(y, "the second cloud")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"the two clouds need equal dimensions; got {x.shape[1]} vs "
                         f"{y.shape[1]}")
    return x, y


def _sq_dists(a: np.ndarray, b: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """(|a_i|^2 + |b_j|^2) + (-2 a_i).b_j, clamped at 0, into ``out``; ``work``
    is an array of the same shape that is overwritten."""
    np.add(np.sum(a * a, axis=1)[:, None], np.sum(b * b, axis=1)[None, :], out=out)
    np.matmul(a * -2.0, b.T, out=work)
    np.add(out, work, out=out)
    np.maximum(out, 0.0, out=out)


def _pair_kernel_sums(pairs, scales, n_workers: int) -> list[np.ndarray]:
    """For each ``(a, b)`` in ``pairs``, the total of exp(-d^2 / (2 s^2)) over
    all (i, j), one value per scale. When ``b is a`` only tiles on and above
    the diagonal are evaluated, each off-diagonal tile counts twice, and the
    diagonal's d^2 is exactly 0, so its kernel values are exactly 1.
    Each stripe of ``_TILE`` rows of an ``a`` is one task, and the stripes of
    all pairs run in one ``run_tasks`` call on ``n_workers`` threads. Worker w
    works in the w-th pair of tile buffers and mask, allocated here, on the
    calling thread. A stripe returns each tile's weighted sum per scale (0
    where it skips the scale), and they are added in the serial loop's order
    (pair, stripe, tile), so the sums do not depend on ``n_workers``.
    """
    neg_inv = [-1.0 / (2.0 * s * s) for s in scales]
    # Half the scale before it: 2 (s/2)^2 is exactly 2 s^2 / 4, so the kernel
    # is the previous one to the fourth power. Its exponent is exactly 4 times
    # the previous one's, so it is skipped whenever the previous scale is, and
    # otherwise k still holds the previous kernel.
    halves = [i > 0 and s * 2.0 == scales[i - 1] for i, s in enumerate(scales)]
    operands = []
    for a, b in pairs:
        # d^2 = |a|^2 + |b|^2 - 2 a.b as one product: [-2a, |a|^2, 1] . [b, 1, |b|^2].
        a_sq = np.sum(a * a, axis=1)
        lhs = np.column_stack([-2.0 * a, a_sq, np.ones(len(a))])
        b_sq = a_sq if b is a else np.sum(b * b, axis=1)
        operands.append((lhs, np.column_stack([b, np.ones(len(b)), b_sq]), b is a))
    tasks = [(p, lo) for p, (a, _) in enumerate(pairs) for lo in range(0, len(a), _TILE)]
    bufs = np.empty((n_workers, 2, _TILE * _TILE))
    # Per worker, a mask anded into a tile's bits: all ones where a lane's exp
    # is computed, 0 where it is exactly 0.0. Two ands take about a quarter of
    # the time of two masked copies (np.copyto with where=).
    keeps = np.empty((n_workers, _TILE * _TILE), dtype=np.int64)

    def stripe(i, w):
        p, lo = tasks[i]
        lhs, rhs, symmetric = operands[p]
        d2_buf, k_buf = bufs[w]
        lhs_tile = lhs[lo : lo + _TILE]
        tiles = range(lo if symmetric else 0, len(rhs), _TILE)
        values = np.zeros((len(tiles), len(scales)))
        # d^2 c may overflow to -inf, whose exp is the right 0. numpy's error
        # state is per thread, and worker threads do not inherit the caller's.
        with np.errstate(over="ignore"):
            for row, lo2 in zip(values, tiles):
                rhs_tile = rhs[lo2 : lo2 + _TILE]
                shape = (len(lhs_tile), len(rhs_tile))
                d2 = d2_buf[: shape[0] * shape[1]].reshape(shape)
                k = k_buf[: shape[0] * shape[1]].reshape(shape)
                keep = keeps[w, : shape[0] * shape[1]].reshape(shape)
                np.matmul(lhs_tile, rhs_tile.T, out=d2)
                # Clamped at 0 against cancellation; with no negative entry
                # the clamp would change nothing.
                d2_min = float(d2.min())
                if d2_min < 0.0:
                    np.maximum(d2, 0.0, out=d2)
                    d2_min = 0.0
                diagonal = symmetric and lo2 == lo
                if diagonal:
                    np.fill_diagonal(d2, 0.0)
                    d2_min = 0.0
                d2_max = float(d2.max())
                weight = 2.0 if symmetric and not diagonal else 1.0
                for si, c in enumerate(neg_inv):
                    if d2_min * c < -_EXP_UNDERFLOW:
                        continue
                    if halves[si]:
                        np.square(k, out=k)
                        np.square(k, out=k)
                    else:
                        np.multiply(d2, c, out=k)
                        if d2_max * c < -_EXP_UNDERFLOW:
                            # Lanes whose exp is exactly 0.0 are set, not
                            # computed: numpy's exp takes a slow path for them.
                            bits = k.view(np.int64)
                            np.less(k, -_EXP_UNDERFLOW, out=keep)
                            np.subtract(keep, 1, out=keep)
                            np.bitwise_and(bits, keep, out=bits)
                            np.exp(k, out=k)
                            np.bitwise_and(bits, keep, out=bits)
                        else:
                            np.exp(k, out=k)
                    row[si] = weight * float(k.sum())
        return values

    sums = [np.zeros(len(scales)) for _ in pairs]
    for (p, _), values in zip(tasks, run_tasks(len(tasks), n_workers, stripe)):
        for row in values:
            sums[p] += row
    return sums


def _mmd_workers(n: int, m: int) -> int:
    """Threads :func:`mmd` runs on for clouds of ``n`` and ``m`` points: its
    stripes are those of the smaller cloud twice (its own sum and the cross
    sum) and of the larger once."""
    small, large = sorted((n, m))
    return workers(2 * -(-small // _TILE) + -(-large // _TILE))


def mmd(x, y, scales=DEFAULT_MMD_SCALES) -> float:
    """Unbiased squared-MMD estimate averaged over RBF length scales.

    Within-sample terms average the off-diagonal kernel values, the cross term
    the full kernel matrix; the estimate may be negative. Requires at least
    two points per side, and at least one scale s with s, 2 s^2 and
    1 / (2 s^2) positive and finite.
    """
    x, y = _as_pair(x, y)
    n, m = len(x), len(y)
    if n < 2 or m < 2:
        raise ValueError(f"mmd needs at least 2 points per cloud; got {n} and {m}")
    # Canonical operand order makes mmd(x, y) == mmd(y, x) bit-exactly.
    if (m, y.tobytes()) < (n, x.tobytes()):
        x, y, n, m = y, x, m, n
    # Sorting along the first axis makes tiles local in space, so that tiles
    # of far-apart points underflow at small scales and are skipped.
    x = x[np.argsort(x[:, 0], kind="stable")]
    y = y[np.argsort(y[:, 0], kind="stable")]
    scales = tuple(float(s) for s in scales)
    if not scales:
        raise ValueError("MMD needs at least one length scale")
    for s in scales:
        two_s2 = 2.0 * s * s
        if not (0.0 < s < np.inf and 0.0 < two_s2 < np.inf and 1.0 / two_s2 < np.inf):
            raise ValueError(f"bad MMD scale {s!r}: s, 2 s^2 and 1 / (2 s^2) must be "
                             f"positive and finite")
    s_xx, s_yy, s_xy = _pair_kernel_sums([(x, x), (y, y), (x, y)], scales, _mmd_workers(n, m))
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
    log_sweeps: int  # sweeps of n_iters that ran in the log domain
    relaxation: float  # the final stage's last over-relaxation w; 1.0: never relaxed


def _scaling(weight: float, kv: np.ndarray):
    """``weight / kv``, or None when a quotient would leave [1e-100, 1e100].

    That is also None when ``kv`` has an entry that is 0 or not finite; the
    range is tested on ``kv`` before dividing, so no warning is raised.
    """
    if not (weight * _SCALING_MIN <= kv.min() and kv.max() <= weight * _SCALING_MAX):
        return None
    return weight / kv


def _relaxed(old: np.ndarray, plain: np.ndarray, w: float):
    """``old * (plain / old)^w``, in the log domain f <- (1 - w) f + w f'; or
    None when a scaling would leave [1e-100, 1e100]."""
    step = np.log(plain / old)
    step *= w
    with np.errstate(over="ignore"):  # an overflow to inf is out of range
        np.exp(step, out=step)
    step *= old
    if not (_SCALING_MIN <= step.min() and step.max() <= _SCALING_MAX):
        return None
    return step


def _rate(history: list) -> float:
    """The violation's factor per sweep over the last 5 sweeps of ``history``."""
    before, now = history[-6], history[-1]
    return (now / before) ** 0.2 if before > 0.0 else 1.0


def _best_w(rate: float) -> float:
    """The over-relaxation 2 / (1 + sqrt(1 - rate)) that is best for a plain
    Sinkhorn iteration of linear rate ``rate`` (Lehmann et al. 2020,
    arXiv:2012.12562), at most 1.9; 1 for a rate of 0.9999 or more, which
    reads a plateau, not a linear rate."""
    if not 0.0 <= rate < _PLATEAU:
        return 1.0
    return min(1.9, 2.0 / (1.0 + math.sqrt(1.0 - rate)))


def sinkhorn_w(
    x, y, eps: float = 0.1, max_iters: int = 5000, tol: float = 1e-6,
    warm_start: bool = True,
) -> SinkhornResult:
    """Sinkhorn on the squared-distance cost with uniform weights, in the
    stabilised scaling domain with log-domain sweeps where it must.

    Iterates until the worse of the two L1 marginal violations drops below
    ``tol``; the reported scalar is the plain transport cost <P, C> of the
    converged plan. ``warm_start`` anneals the regularization from a large
    value down to ``eps``, at most 10 sweeps per halving, each halving ending
    once its violation is below 5e-3 (deterministic, and essential for
    convergence when eps is far below the cost scale); the annealing sweeps
    count toward ``max_iters``. The sweeps at ``eps`` are over-relaxed by a
    w in [1, 1.9] derived from their own convergence rate, and return to
    w = 1 for good once the violation passes 10 times its value at the 10th
    of them; the result's ``relaxation`` is the last w. Raises
    ``ValueError`` when the largest cost over ``eps`` is not finite, and
    when the annealing stages alone could use up ``max_iters``.
    """
    if not 0.0 < eps < np.inf:  # also false for NaN
        raise ValueError("eps must be positive and finite")
    x, y = _as_pair(x, y)
    n, m = len(x), len(y)
    a_w, b_w = 1.0 / n, 1.0 / m
    log_a = np.full(n, np.log(a_w))
    log_b = np.full(m, np.log(b_w))
    cost = np.empty((n, m))
    work = np.empty((n, m))  # log-domain scratch, the kernel K, then the plan
    _sq_dists(x, y, cost, work)

    def half_sweep(shift, axis, e):
        # -e log sum exp(-C / e + shift) along ``axis``, stabilised by its max;
        # with shift = g / e + log b this is the f-update that makes rows sum
        # to a, with shift = f / e + log a the g-update for the columns.
        np.divide(cost, -e, out=work)
        np.add(work, shift, out=work)
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
        np.divide(cost, -e, out=work)
        np.add(work, (f / e + log_a)[:, None], out=work)
        np.add(work, g / e + log_b, out=work)
        np.minimum(work, 50.0, out=work)
        return np.exp(work, out=work)

    stages = []
    cost_scale = float(np.max(cost))
    if not cost_scale / eps < np.inf:
        raise ValueError(f"the largest cost {cost_scale:g} over eps = {eps:g} is not finite")
    # Below 2^-40 of the cost scale, f / eps rounds by more than the sweeps'
    # violation can resolve.
    unresolved = eps < 2.0**-40 * cost_scale
    if warm_start and eps < cost_scale / 4:
        e = cost_scale / 4
        while e > eps:
            stages.append(e)
            e = max(eps, e / 2)
        # The plan of a stage far above eps underflows to 0 at eps.
        if 10 * len(stages) >= max_iters:
            raise ValueError(f"eps = {eps:g} is far below costs up to {cost_scale:g}: the "
                             f"warm start's {len(stages)} stages of 10 sweeps would use up "
                             f"max_iters = {max_iters}")
    stages.append(eps)

    # The potentials are f + e log u and g + e log v: (f, g) are held in the
    # kernel K = plan_of(f, g, e), and a sweep on it is two mat-vecs,
    # u = a / (K v) and v = b / (K^T u). Each stage of a warm start absorbs
    # its potentials into K first, so its first sweep is a scaling sweep too
    # (in exact arithmetic, the log-domain sweep from (f, g)). A run of one
    # stage starts with a log-domain sweep, which absorbs the potentials into
    # K and resets u = v = 1; so does any sweep whose mat-vec or scaling
    # leaves the safe range.
    f, g = np.zeros(n), np.zeros(m)
    it = log_sweeps = 0
    violation = None
    converged = False
    # The final stage's relaxation, and its violation at its 10th sweep; None
    # once relaxation is off for good.
    w, base = 1.0, None
    for e in stages:
        u, v = np.ones(n), np.ones(m)
        final = e == eps
        stop = max_iters if final else min(it + 10, max_iters)
        history = []  # the stage's violations, one per sweep
        # a / (K v) for the next sweep; None: a log-domain sweep
        u_next = _scaling(a_w, plan_of(f, g, e).sum(axis=1)) if len(stages) > 1 else None
        f_next = None  # the next f-update, when the log-domain stop test made it
        while it < stop:
            # u and v for this sweep; None: a log-domain sweep
            v_new = None
            if w != 1.0 and u_next is not None:
                u_next = _relaxed(u, u_next, w)
            if u_next is not None:
                v_next = _scaling(b_w, work.T @ u_next)
                v_new = v_next if w == 1.0 or v_next is None else _relaxed(v, v_next, w)
            col_violation = 0.0
            if v_new is None:
                log_sweeps += 1
                f_plain = f_update(g + e * np.log(v), e) if f_next is None else f_next
                if w == 1.0:
                    f = f_plain
                    g = half_sweep((f / e + log_a)[:, None], 0, e)
                else:
                    f = (1.0 - w) * (f + e * np.log(u)) + w * f_plain
                    g_plain = half_sweep((f / e + log_a)[:, None], 0, e)
                    g = (1.0 - w) * (g + e * np.log(v)) + w * g_plain
                    # Column j of the plan sums to b_j exp((g_j - g'_j) / e),
                    # with g' the plain g-update; clamped like the rows' test.
                    col_excess = np.minimum((g - g_plain) / e, 50.0)
                    col_violation = float(b_w * np.sum(np.abs(1.0 - np.exp(col_excess))))
                plan_of(f, g, e)
                u, v = np.ones(n), np.ones(m)
            else:
                if w != 1.0:
                    # Column j of the plan sums to b_j v_j / v'_j, with v' the
                    # plain v-update; a plain sweep leaves this 0.
                    col_violation = float(b_w * np.sum(np.abs(1.0 - v_new / v_next)))
                u, v = u_next, v_new
            it += 1
            f_next = None
            u_next = _scaling(a_w, work @ v)
            # Row i of the plan sums to u_i (K v)_i = a_i u_i / u'_i, with u'
            # the next u-update.
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
            violation = max(violation, col_violation)
            history.append(violation)
            if violation < (tol if final else _STAGE_TOL):
                converged = final
                break
            if not final:
                continue
            # After 10 plain sweeps, w is set from their rate; every 10
            # sweeps after that it is raised to what their rate implies,
            # unless the violation passed 10 times its value at the 10th
            # sweep, which turns relaxation off for the rest of the run.
            k = len(history)
            if k == 10:
                w, base = _best_w(_rate(history)), violation
            elif base is not None and violation > 10.0 * base:
                w, base = 1.0, None
            elif base is not None and k % 10 == 0:
                # A relaxed sweep's rate r is 1 - w (1 - plain rate).
                w = max(w, _best_w(1.0 - (1.0 - _rate(history)) / w))
        f, g = f + e * np.log(u), g + e * np.log(v)
    plan = plan_of(f, g, eps)
    # An unresolved eps reports the returned plan's own violation, not converged.
    if unresolved:
        converged = False
    if violation is None or unresolved:
        violation = max(
            float(np.abs(plan.sum(axis=1) - a_w).sum()),
            float(np.abs(plan.sum(axis=0) - b_w).sum()),
        )
    np.multiply(plan, cost, out=cost)
    return SinkhornResult(
        value=float(cost.sum()),
        plan=plan,
        n_iters=it,
        marginal_violation=violation,
        converged=converged,
        log_sweeps=log_sweeps,
        relaxation=w,
    )


# ---------------------------------------------------------------------------
# Alignment metrics
# ---------------------------------------------------------------------------


def rmsd(pred, ref) -> float:
    """sqrt(mean ||ref_i - pred_i||^2) over index-aligned rows.

    Row order carries the alignment; this is deliberately not permutation
    invariant.
    """
    pred, ref = _as_pair(pred, ref)
    if pred.shape != ref.shape:
        raise ValueError(f"rmsd needs index-aligned clouds of equal shape; got {pred.shape} vs "
                         f"{ref.shape}")
    diff = ref - pred
    with np.errstate(over="ignore"):
        mean_sq = np.mean(np.sum(diff**2, axis=1))
    if mean_sq == np.inf:  # each row's square is finite (_as_cloud), their sum is not
        scale = np.max(np.abs(diff))
        return float(scale * np.sqrt(np.mean(np.sum((diff / scale) ** 2, axis=1))))
    return float(np.sqrt(mean_sq))


def ps_l2(pred, ref) -> float:
    """L2 distance between the mean shifts of ``pred`` and ``ref``.

    A control population would cancel in the difference of the two
    signatures, so this is ||mean(ref) - mean(pred)||.
    """
    pred, ref = _as_pair(pred, ref)
    return float(np.linalg.norm(ref.mean(axis=0) - pred.mean(axis=0)))
