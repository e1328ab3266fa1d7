"""SVG rendering of 2-D trajectories and pair matchings.

Color roles (fixed): starting points are blue (#1f77b4), target points red
(#d62728), trajectories gray (#8a8a8a) drawn as one polyline each, matching
segments green (#2ca02c), axes dark gray (#333333). The canvas is a fixed
840x840 viewport; data coordinates are fitted with a 5% margin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .datasets import AlignedDataset
from .errors import DataError
from .sde import TrajectoryBatch

CANVAS = 840.0
MARGIN = 60.0

COLOR_START = "#1f77b4"
COLOR_TARGET = "#d62728"
COLOR_TRAJ = "#8a8a8a"
COLOR_MATCH = "#2ca02c"
COLOR_AXIS = "#333333"


def _fit(points: np.ndarray):
    """Map data coordinates into the canvas, preserving aspect ratio."""
    if points.size == 0:
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    else:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    scale = (CANVAS - 2 * MARGIN) / np.max(hi - lo)
    center = (lo + hi) / 2.0

    def to_px(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        px = (xy - center) * scale
        px[:, 1] *= -1.0  # SVG y runs downward
        return px + CANVAS / 2.0

    return to_px


def render_svg(
    trajectories: Optional[TrajectoryBatch] = None,
    pairs: Optional[AlignedDataset] = None,
) -> str:
    """Render trajectories and/or matchings; either argument may be None."""
    clouds = []
    if trajectories is not None:
        if trajectories.d != 2:
            raise DataError(f"plotting requires 2-D data, trajectories have d = {trajectories.d}")
        clouds.append(trajectories.states.reshape(-1, 2))
    if pairs is not None:
        if pairs.d != 2:
            raise DataError(f"plotting requires 2-D data, pairs have d = {pairs.d}")
        clouds.append(pairs.x0)
        clouds.append(pairs.x1)
    all_points = np.concatenate(clouds, axis=0) if clouds else np.empty((0, 2))
    to_px = _fit(all_points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect x="0" y="0" width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>',
        # Axes: a frame plus center lines.
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{CANVAS - 2 * MARGIN}" '
        f'height="{CANVAS - 2 * MARGIN}" fill="none" stroke="{COLOR_AXIS}" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{CANVAS / 2}" x2="{CANVAS - MARGIN}" y2="{CANVAS / 2}" '
        f'stroke="{COLOR_AXIS}" stroke-width="0.5" stroke-dasharray="4 4"/>',
        f'<line x1="{CANVAS / 2}" y1="{MARGIN}" x2="{CANVAS / 2}" y2="{CANVAS - MARGIN}" '
        f'stroke="{COLOR_AXIS}" stroke-width="0.5" stroke-dasharray="4 4"/>',
    ]

    if pairs is not None:
        p0 = to_px(pairs.x0)
        p1 = to_px(pairs.x1)
        for a, b in zip(p0, p1):
            parts.append(
                f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
                f'stroke="{COLOR_MATCH}" stroke-width="0.6" opacity="0.5"/>'
            )

    if trajectories is not None:
        for i in range(trajectories.n_traj):
            px = to_px(trajectories.states[i])
            pts = " ".join(f"{p[0]:.2f},{p[1]:.2f}" for p in px)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{COLOR_TRAJ}" '
                f'stroke-width="0.8" opacity="0.7"/>'
            )

    if pairs is not None:
        for px, color in ((p0, COLOR_START), (p1, COLOR_TARGET)):
            for a in px:
                parts.append(f'<circle cx="{a[0]:.2f}" cy="{a[1]:.2f}" r="2.5" fill="{color}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, trajectories=None, pairs=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(trajectories, pairs))
