import math
import re

import numpy as np
import pytest

from bridgekit import (
    AlignedDataset,
    generate_gauss_pairs,
    generate_moon,
    generate_t,
    read_cloud,
    read_pairs,
    write_cloud,
    write_pairs,
)
from bridgekit.datasets import (
    MOON_CENTER_A,
    MOON_CENTER_B,
    MOON_RADIUS,
    T_CENTERS,
    moon_arc_points,
)
from bridgekit.errors import DataError


# ---------------------------------------------------------------------------
# Moon
# ---------------------------------------------------------------------------


def test_moon_noiseless_rotation_preserves_radius():
    ds = generate_moon(50, noise_std=0.0, rng=np.random.default_rng(0))
    r0 = np.linalg.norm(ds.x0, axis=1)
    r1 = np.linalg.norm(ds.x1, axis=1)
    np.testing.assert_allclose(r0, r1, atol=1e-12)


def test_moon_noiseless_angular_offset_is_minus_233_degrees():
    ds = generate_moon(40, noise_std=0.0, rng=np.random.default_rng(1))
    ang0 = np.degrees(np.arctan2(ds.x0[:, 1], ds.x0[:, 0]))
    ang1 = np.degrees(np.arctan2(ds.x1[:, 1], ds.x1[:, 0]))
    offset = np.mod(ang0 - ang1, 360.0)
    np.testing.assert_allclose(offset, np.mod(-233.0, 360.0), atol=1e-9)


def test_moon_targets_lie_near_the_arcs():
    noise = 0.05
    n = 400
    ds = generate_moon(n, noise_std=noise, rng=np.random.default_rng(2))
    n_a = (n + 1) // 2
    centers = np.array([MOON_CENTER_A] * n_a + [MOON_CENTER_B] * (n - n_a))
    radial = np.linalg.norm(ds.x1 - centers, axis=1)
    assert np.max(np.abs(radial - MOON_RADIUS)) <= 4 * noise + 1e-12


def test_moon_alignment_integrity():
    # Noiseless: each source is exactly the rotated image of its own target.
    ds = generate_moon(30, noise_std=0.0, rng=np.random.default_rng(3))
    a = math.radians(233.0)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    np.testing.assert_allclose(ds.x0, ds.x1 @ rot.T, atol=1e-12)


def test_moon_equal_spacing():
    pts = moon_arc_points(11)
    arc_a = pts[:6]
    gaps = np.linalg.norm(np.diff(arc_a, axis=0), axis=1)
    np.testing.assert_allclose(gaps, gaps[0], rtol=1e-9)


def test_moon_needs_two_pairs():
    with pytest.raises(ValueError):
        generate_moon(1)


# ---------------------------------------------------------------------------
# T
# ---------------------------------------------------------------------------


def test_t_cloud_centers_and_alignment_groups():
    n = 400
    ds = generate_t(n, noise_std=2.0, rng=np.random.default_rng(4))
    half = n // 2
    tol = 4 * 2.0 / np.sqrt(half)
    np.testing.assert_allclose(ds.x0[:half].mean(axis=0), T_CENTERS["left"], atol=tol)
    np.testing.assert_allclose(ds.x1[:half].mean(axis=0), T_CENTERS["right"], atol=tol)
    np.testing.assert_allclose(ds.x0[half:].mean(axis=0), T_CENTERS["top"], atol=tol)
    np.testing.assert_allclose(ds.x1[half:].mean(axis=0), T_CENTERS["bottom"], atol=tol)
    # Declared geometry: width/height ratio is exactly 51/55.
    width = T_CENTERS["right"][0] - T_CENTERS["left"][0]
    height = T_CENTERS["top"][1] - T_CENTERS["bottom"][1]
    assert width / height == pytest.approx(51.0 / 55.0)


def test_t_noiseless_maps_left_to_right_center():
    ds = generate_t(10, noise_std=0.0, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(ds.x0[:5], np.tile(T_CENTERS["left"], (5, 1)))
    np.testing.assert_array_equal(ds.x1[:5], np.tile(T_CENTERS["right"], (5, 1)))


def segments_intersect(p1, p2, q1, q2):
    """Inclusive 2-D segment intersection via orientation tests."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and on_seg(p1, p2, q1))
        or (o2 == 0 and on_seg(p1, p2, q2))
        or (o3 == 0 and on_seg(q1, q2, p1))
        or (o4 == 0 and on_seg(q1, q2, p2))
    )


def test_t_noiseless_pair_segments_cross_at_junction():
    ds = generate_t(4, noise_std=0.0, rng=np.random.default_rng(6))
    horizontal = (ds.x0[0], ds.x1[0])
    vertical = (ds.x0[2], ds.x1[2])
    assert segments_intersect(*horizontal, *vertical)
    # The crossing happens at the junction (the top-cloud center).
    assert np.allclose(vertical[0], T_CENTERS["top"])


def test_t_rejects_odd_counts():
    with pytest.raises(ValueError):
        generate_t(7)


# ---------------------------------------------------------------------------
# Gaussian pairs
# ---------------------------------------------------------------------------


def test_gauss_pairs_zero_shift_is_identity():
    ds = generate_gauss_pairs(20, 3, rng=np.random.default_rng(7))
    assert np.array_equal(ds.x0, ds.x1)


def test_gauss_pairs_mean_shift_clt_bound():
    n = 4000
    shift = np.array([3.0, 4.0])
    ds = generate_gauss_pairs(n, 2, shift=shift, rng=np.random.default_rng(8))
    diff = ds.x1.mean(axis=0) - ds.x0.mean(axis=0)
    np.testing.assert_allclose(diff, shift, atol=4 / np.sqrt(n))


def test_gauss_pairs_rmsd_is_shift_norm():
    from bridgekit import rmsd

    shift = np.array([3.0, 4.0])
    ds = generate_gauss_pairs(100, 2, shift=shift, rng=np.random.default_rng(9))
    assert rmsd(ds.x0, ds.x1) == pytest.approx(5.0, abs=1e-12)


def test_gauss_pairs_shift_shape_check():
    with pytest.raises(ValueError):
        generate_gauss_pairs(5, 2, shift=np.zeros(3))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def test_pair_round_trip_is_exact(tmp_path):
    ds = generate_moon(25, rng=np.random.default_rng(10))
    path = tmp_path / "pairs.csv"
    write_pairs(path, ds)
    again = read_pairs(path)
    assert np.array_equal(ds.x0, again.x0)
    assert np.array_equal(ds.x1, again.x1)


def test_seeded_generation_reproducible_bytes(tmp_path):
    for name in ("a", "b"):
        ds = generate_moon(30, rng=np.random.default_rng(42))
        write_pairs(tmp_path / f"{name}.csv", ds)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_odd_column_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0_0,x0_1,x1_0\n1,2,3\n")
    with pytest.raises(DataError, match="even"):
        read_pairs(path)


def test_empty_pair_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_pairs(path)


def test_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x0_0,x1_0\n1,2\n3\n")
    with pytest.raises(DataError, match=r":3"):
        read_pairs(path)


def test_non_numeric_cell_reports_line_number(tmp_path):
    path = tmp_path / "nonnum.csv"
    path.write_text("x0_0,x1_0\n1,2\n3,zap\n")
    with pytest.raises(DataError, match=r":3.*zap"):
        read_pairs(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("reader, text", [
    (read_cloud, "x_0,x_1\n1,2\n3,{}\n5,6\n"),
    (read_pairs, "x0_0,x1_0\n1,2\n3,{}\n5,6\n"),
], ids=["cloud", "pairs"])
def test_non_finite_cell_reports_line_number(tmp_path, reader, text, cell):
    path = tmp_path / "bad.csv"
    path.write_text(text.format(cell))
    with pytest.raises(DataError, match=rf"bad\.csv:3: non-finite cell '{re.escape(cell)}'"):
        reader(path)


def test_cloud_round_trip(tmp_path):
    pts = np.random.default_rng(11).normal(size=(7, 3))
    path = tmp_path / "cloud.csv"
    write_cloud(path, pts)
    assert np.array_equal(read_cloud(path), pts)


def test_dataset_validation():
    with pytest.raises(DataError):
        AlignedDataset(x0=np.zeros((2, 2)), x1=np.zeros((3, 2)))
    with pytest.raises(DataError):
        AlignedDataset(x0=np.array([[np.inf]]), x1=np.array([[0.0]]))
    ds = AlignedDataset(x0=np.zeros((4, 3)), x1=np.ones((4, 3)))
    assert ds.pairs.shape == (4, 2, 3)
