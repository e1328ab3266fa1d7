"""Output checks, computed apart from the program.

Every check returns a list of problems (empty when the output is right). The
files are read with the parsers here, not with bridgekit's readers, and the
reference values come from numpy and scipy directly, or from properties the
method must have. Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

LOSS_TRACE_HEADER = "iter,total,regression,regularization,mean_m_sq"

# Level of the Kolmogorov-Smirnov test on the recovered Euler-Maruyama
# increments, and the largest |increment| accepted. With 51,200 standard
# normal draws P(max |z| > 7) is about 1e-7.
KS_ALPHA = 1e-6
MAX_ABS_INCREMENT = 7.0

_EPS = float(np.finfo(float).eps)


def cloud_header(d: int) -> str:
    return ",".join(f"x_{j}" for j in range(d))


def read_csv(path, header: str) -> np.ndarray:
    """Rows of a comma-separated file whose first line must equal ``header``."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def check_loss_trace(path, n_iters: int) -> list[str]:
    rows = read_csv(path, LOSS_TRACE_HEADER)
    if rows.shape != (n_iters, 5):
        return [f"loss trace has shape {rows.shape}, expected ({n_iters}, 5)"]
    problems = []
    if not np.array_equal(rows[:, 0], np.arange(n_iters)):
        problems.append("loss trace iterations are not 0 .. n_iters - 1")
    if not np.all(np.isfinite(rows[:, 1:])):
        problems.append("loss trace holds a non-finite value")
    elif not np.array_equal(rows[:, 1], rows[:, 2] + rows[:, 3]):
        problems.append("loss trace total differs from regression + penalty")
    return problems


def check_alignment(ends, x1, poses=1, min_arm=0.9, max_rmsd=None) -> list[str]:
    """Correct-arm fraction and endpoint RMSD of endpoints against moon targets.

    Row i of ``x1`` is the target of endpoint rows i*poses .. (i+1)*poses - 1.
    The first half of the moon pairs lies on one arm and the second half on the
    other, so the wrong-arm target of pair i is pair (i + n/2) mod n.
    """
    half = len(x1) // 2
    wrong = np.concatenate([np.arange(half, 2 * half), np.arange(0, half)])
    d_right = np.sqrt(np.sum((ends - np.repeat(x1, poses, axis=0)) ** 2, axis=1))
    d_wrong = np.sqrt(np.sum((ends - np.repeat(x1[wrong], poses, axis=0)) ** 2, axis=1))
    arm = float(np.mean(d_right < d_wrong))
    rmsd = float(np.sqrt(np.mean(d_right ** 2)))
    problems = []
    if not arm >= min_arm:
        problems.append(f"correct-arm fraction {arm:.3f} is below {min_arm}")
    if max_rmsd is not None and not rmsd < max_rmsd:
        problems.append(f"endpoint RMSD {rmsd:.4f} is not below {max_rmsd}")
    return problems


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def check_trajectories(traj_path, endpoints_path, starts: np.ndarray, steps: int):
    """Layout of the trajectory CSV, exact start states and exact endpoints.

    Returns (problems, states) with states of shape (n_traj, steps + 1, d), or
    None when the file cannot be laid out.
    """
    n, d = starts.shape
    header = "traj_id,step,t," + cloud_header(d)
    rows = read_csv(traj_path, header)
    if rows.shape != (n * (steps + 1), 3 + d):
        return [f"trajectory CSV has shape {rows.shape}, expected "
                f"({n * (steps + 1)}, {3 + d})"], None
    problems = []
    ids, ks = rows[:, 0], rows[:, 1]
    if not (np.array_equal(ids, np.repeat(np.arange(n), steps + 1))
            and np.array_equal(ks, np.tile(np.arange(steps + 1), n))):
        problems.append("trajectory rows are not ordered by (traj_id, step)")
    if not np.array_equal(rows[:, 2], ks / steps):
        problems.append("trajectory t column differs from step / steps")
    states = rows[:, 3:].reshape(n, steps + 1, d)
    if not bits_equal(states[:, 0], starts):
        problems.append("step-0 states differ from the starting points")
    if not bits_equal(read_csv(endpoints_path, cloud_header(d)), states[:, -1]):
        problems.append("endpoints CSV differs from the last trajectory step")
    return problems, states


def em_increments(states: np.ndarray, drift, g: float) -> np.ndarray:
    """z_k = (x_{k+1} - x_k - g^2 b(t_k, x_k) dt) / (g sqrt(dt)) on the grid
    t_k = k / steps; these are the standard-normal draws of the scheme."""
    steps = states.shape[1] - 1
    times = np.arange(steps + 1) / steps
    z = np.empty((states.shape[0], steps, states.shape[2]))
    for k in range(steps):
        dt = times[k + 1] - times[k]
        x = states[:, k]
        z[:, k] = (states[:, k + 1] - x - g * g * drift(times[k], x) * dt) / (g * math.sqrt(dt))
    return z


def check_increments(z: np.ndarray) -> list[str]:
    from scipy.stats import kstest

    problems = []
    flat = z.ravel()
    p_value = float(kstest(flat, "norm").pvalue)
    if not p_value >= KS_ALPHA:
        problems.append(f"increments are not standard normal: KS p = {p_value:.3g} "
                        f"< {KS_ALPHA:g} over {flat.size} draws")
    largest = float(np.max(np.abs(flat)))
    if not largest <= MAX_ABS_INCREMENT:
        problems.append(f"increment of size {largest:.3g} exceeds {MAX_ABS_INCREMENT}")
    return problems


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def parse_report(path) -> dict[str, float]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name, sep, value = line.strip().partition(" = ")
            if not sep:
                raise ValueError(f"{path}: report line {line!r} is not 'name = value'")
            values[name] = float(value)
    return values


def mmd_reference(x, y, scales, chunk=1000) -> float:
    """Unbiased multi-scale MMD^2 from scipy's direct squared distances."""
    from scipy.spatial.distance import cdist

    def kernel_sums(a, b):
        sums = np.zeros(len(scales))
        for lo in range(0, len(a), chunk):
            d2 = cdist(a[lo:lo + chunk], b, "sqeuclidean")
            for i, s in enumerate(scales):
                sums[i] += np.exp(-d2 / (2.0 * s * s)).sum()
        return sums

    n, m = len(x), len(y)
    within_x = (kernel_sums(x, x) - n) / (n * (n - 1))
    within_y = (kernel_sums(y, y) - m) / (m * (m - 1))
    cross = kernel_sums(x, y) / (n * m)
    return float(np.mean(within_x + within_y - 2.0 * cross))


def mmd_tolerance(x, y, scales) -> float:
    """Float64 rounding bound between two ways of computing the MMD.

    The program forms d^2 = |a|^2 + |b|^2 - 2 a.b, which loses up to about
    8 r^2 eps to cancellation (r = largest norm); the reference forms (a - b)^2
    directly. A change of delta in d^2 moves exp(-d^2 / 2 s^2) by at most
    delta / 2 s^2, and the estimate weights its three averages 1, 1 and 2.
    Summation order adds a few eps on averages of values in [0, 1].
    """
    r2 = max(float(np.max(np.sum(x * x, axis=1))), float(np.max(np.sum(y * y, axis=1))))
    per_entry = 8.0 * r2 * _EPS / (2.0 * min(scales) ** 2)
    return 4.0 * per_entry + 64.0 * _EPS


def check_close(name, value, reference, tol) -> list[str]:
    if abs(value - reference) <= tol:
        return []
    return [f"{name} = {value!r} differs from the reference {reference!r} by more than {tol:.3g}"]


def sinkhorn_bounds(x, y, eps: float, tol: float) -> tuple[float, float]:
    """Bounds on <P, C> for the entropic plan between equal-size uniform clouds.

    The exact assignment cost OT is a lower bound. The entropic plan minimises
    <P, C> + eps KL(P | a b^T); the optimal permutation plan has KL = log n and
    every plan KL >= 0, so <P, C> <= OT + eps log n. A plan whose row and
    column L1 violations are below ``tol`` lies within 4 tol (in L1) of a
    feasible plan, which moves <P, C> by at most 4 tol max C either way.
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    exact = float(cost[rows, cols].mean())
    slack = 4.0 * tol * float(cost.max())
    return exact - slack, exact + eps * math.log(len(x)) + slack
