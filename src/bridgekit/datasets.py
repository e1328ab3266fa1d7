"""Aligned-pair datasets and their synthetic generators.

An aligned dataset is a list of pairs (x0_i, x1_i) drawn jointly: row i of the
two sides belongs to the same underlying sample, and generators never shuffle
the sides independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

MOON_ROTATION_DEG = 233.0
MOON_RADIUS = 1.0
# Interlocking semicircle centers: upper arc opens downward, lower arc upward.
MOON_CENTER_A = (-0.5, -0.25)
MOON_CENTER_B = (0.5, 0.25)
MOON_DEFAULT_NOISE = 0.05

# T layout: bar width 51, stem height 55 (width/height ratio exactly 51/55),
# isotropic clouds at the two bar ends, the junction, and the stem foot.
T_BAR_WIDTH = 51.0
T_STEM_HEIGHT = 55.0
T_CENTERS = {
    "left": (-T_BAR_WIDTH / 2, 0.0),
    "right": (T_BAR_WIDTH / 2, 0.0),
    "top": (0.0, 0.0),
    "bottom": (0.0, -T_STEM_HEIGHT),
}
T_DEFAULT_NOISE = 2.0


@dataclass
class AlignedDataset:
    """Index-aligned sample pairs; ``x0[i]`` and ``x1[i]`` belong together."""

    x0: np.ndarray  # (N, d)
    x1: np.ndarray  # (N, d)
    split: Optional[str] = None

    def __post_init__(self):
        self.x0 = np.atleast_2d(np.asarray(self.x0, dtype=float))
        self.x1 = np.atleast_2d(np.asarray(self.x1, dtype=float))
        if self.x0.shape != self.x1.shape:
            raise DataError(
                f"aligned sides must have equal shape, got {self.x0.shape} vs {self.x1.shape}"
            )
        if len(self.x0) < 1:
            raise DataError("dataset needs at least one pair")
        if not (np.all(np.isfinite(self.x0)) and np.all(np.isfinite(self.x1))):
            raise DataError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.x0.shape[0]

    @property
    def d(self) -> int:
        return self.x0.shape[1]

    @property
    def pairs(self) -> np.ndarray:
        """(N, 2, d) view with axis 1 indexing (x0, x1)."""
        return np.stack([self.x0, self.x1], axis=1)


def _rotate_clockwise(points: np.ndarray, degrees: float) -> np.ndarray:
    a = math.radians(degrees)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    return points @ rot.T


def moon_arc_points(n_pairs: int) -> np.ndarray:
    """Noiseless two-moons layout, equally spaced along each semicircle."""
    n_a = (n_pairs + 1) // 2
    n_b = n_pairs - n_a
    theta_a = np.linspace(0.0, math.pi, n_a)
    arc_a = np.column_stack(
        [MOON_CENTER_A[0] + MOON_RADIUS * np.cos(theta_a),
         MOON_CENTER_A[1] + MOON_RADIUS * np.sin(theta_a)]
    )
    theta_b = np.linspace(math.pi, 2.0 * math.pi, max(n_b, 1))[:n_b]
    arc_b = np.column_stack(
        [MOON_CENTER_B[0] + MOON_RADIUS * np.cos(theta_b),
         MOON_CENTER_B[1] + MOON_RADIUS * np.sin(theta_b)]
    )
    return np.concatenate([arc_a, arc_b], axis=0)


def generate_moon(
    n_pairs: int, noise_std: float = MOON_DEFAULT_NOISE, rng: np.random.Generator | None = None
) -> AlignedDataset:
    """Two-moons targets; each source point is its target rotated clockwise
    by 233 degrees about the origin, both sides with independent noise."""
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")
    rng = rng if rng is not None else np.random.default_rng()
    base = moon_arc_points(n_pairs)
    x1 = base + noise_std * rng.standard_normal(base.shape)
    x0 = _rotate_clockwise(base, MOON_ROTATION_DEG) + noise_std * rng.standard_normal(base.shape)
    return AlignedDataset(x0=x0, x1=x1)


def generate_t(
    n_pairs: int, noise_std: float = T_DEFAULT_NOISE, rng: np.random.Generator | None = None
) -> AlignedDataset:
    """Four clouds on a T: sources in the left arm map to the right arm,
    sources at the junction map to the stem foot (half the pairs each)."""
    if n_pairs % 2 != 0:
        raise ValueError("n_pairs must be even: half horizontal, half vertical pairs")
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")
    rng = rng if rng is not None else np.random.default_rng()
    n_half = n_pairs // 2

    def cloud(center, n):
        return np.asarray(center) + noise_std * rng.standard_normal((n, 2))

    x0 = np.concatenate([cloud(T_CENTERS["left"], n_half), cloud(T_CENTERS["top"], n_half)])
    x1 = np.concatenate([cloud(T_CENTERS["right"], n_half), cloud(T_CENTERS["bottom"], n_half)])
    return AlignedDataset(x0=x0, x1=x1)


def generate_gauss_pairs(
    n_pairs: int, d: int, shift=None, rng: np.random.Generator | None = None
) -> AlignedDataset:
    """Sanity dataset: x0 ~ N(0, I_d), x1 = x0 + shift."""
    if n_pairs < 1:
        raise ValueError("need at least 1 pair")
    rng = rng if rng is not None else np.random.default_rng()
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    if shift.shape != (d,):
        raise ValueError(f"shift must have shape ({d},), got {shift.shape}")
    x0 = rng.standard_normal((n_pairs, d))
    return AlignedDataset(x0=x0, x1=x0 + shift)
