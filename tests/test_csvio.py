import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgekit import (
    AlignedDataset,
    read_cloud,
    read_pairs,
    read_trajectories,
    write_cloud,
    write_pairs,
    write_trajectories,
)
from bridgekit.csvio import _cells
from bridgekit.errors import DataError
from bridgekit.sde import TimeGrid, TrajectoryBatch
from bridgekit.training import LossBreakdown, write_loss_trace

# Per reader: its header, a valid first data row, and a second row whose last
# cell is filled in by the test.
READERS = {
    "cloud": (read_cloud, "x_0,x_1", "1,2", "3,{}"),
    "pairs": (read_pairs, "x0_0,x1_0", "1,2", "3,{}"),
    "trajectories": (read_trajectories, "traj_id,step,t,x_0", "0,0,0,1", "0,1,1,{}"),
}

# Values the writers must print as format(v, ".17g") does, among them the
# edges of the range that the formatter prints in fixed notation itself.
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, 3.0, -2.0, 0.0,
           1e-4, 9.9999999999999991e-05, -1e16, 9999999999999998.0, 0.99999999999999994,
           1e15 + 0.5, 1 + 2**-17]


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("reader, text, message", [
    (read_cloud, "x_0\n\n1\n2\ninf\n", ":5: non-finite cell 'inf'"),
    (read_cloud, "\n\ny_0\n1\n", ":3: malformed point header 'y_0'"),
    (read_cloud, "x_0\n1\n  \n2\n", ":3: non-numeric cell '  '"),
    (read_pairs, "x0_0,x1_0\n1,2\n\n3\n", ":4: expected 2 cells, got 1"),
    (read_pairs, "x0_0,x1_0\n\n1,2\n\n3,1_0\n", ":5: non-numeric cell '1_0'"),
    (read_trajectories, "\ntraj_id,step,t,x_0\n0,0,0,1\n\n\n0,1,1,zap\n",
     ":6: non-numeric cell 'zap'"),
    (read_trajectories, "traj_id,step,t,x_0\n0,0,0,1\n\n0,0,0,2\n",
     r":4: duplicate row for trajectory 0 step 0 \(first at line 2\)"),
    (read_trajectories, "traj_id,step,t,x_0\n\n0,0,0,1\n0,1,1,2\n\n1,0,0,3\n1,1,0.5,4\n",
     ":7: t = 0.5 at step 1 differs from t = 1 at line 4"),
], ids=["cloud-non-finite", "cloud-header", "cloud-spaces-only", "pairs-ragged",
        "pairs-non-numeric", "trajectories-non-numeric", "trajectories-duplicate",
        "trajectories-t-disagrees"])
def test_line_numbers_are_physical(tmp_path, reader, text, message):
    # Empty lines are skipped but still counted; a line of spaces is a row.
    with pytest.raises(DataError, match=rf"bad\.csv{message}"):
        reader(_write(tmp_path, text))


def test_trajectories_missing_a_row_are_counted(tmp_path):
    # Trajectory 1 has no step 1: 2 trajectories x 2 steps need 4 rows, not 3.
    path = _write(tmp_path, "traj_id,step,t,x_0\n0,0,0,1\n0,1,1,2\n1,0,0,3\n")
    with pytest.raises(DataError, match=r"bad\.csv: 1 missing trajectory rows "
                                        r"\(2 trajectories x 2 steps expected\)"):
        read_trajectories(path)


@pytest.mark.parametrize("cell, problem", [("zap", "non-numeric"), ("inf", "non-finite")])
def test_bad_cell_past_the_first_rescan_block_is_found(tmp_path, cell, problem):
    # 17,000 good rows fill more than one re-scan block; two empty lines follow.
    rows = [f"{i},{i}" for i in range(17_000)] + ["", "", f"1,{cell}", "2,2"]
    path = _write(tmp_path, "x_0,x_1\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=rf"bad\.csv:17004: {problem} cell '{cell}'"):
        read_cloud(path)


@pytest.mark.parametrize("cell, problem", [
    ("1_0", "non-numeric"),
    ("١", "non-numeric"),  # ARABIC-INDIC DIGIT ONE, which float() accepts
    ("0x1p3", "non-numeric"),
    ("", "non-numeric"),
    ("inf", "non-finite"),
    ("nan", "non-finite"),
    ("1e999", "non-finite"),
])
@pytest.mark.parametrize("kind", READERS)
def test_every_reader_names_the_bad_cell(tmp_path, kind, cell, problem):
    reader, header, first, row = READERS[kind]
    path = _write(tmp_path, f"{header}\n{first}\n{row.format(cell)}\n")
    with pytest.raises(DataError, match=rf"bad\.csv:3: {problem} cell {re.escape(repr(cell))}"):
        reader(path)


@pytest.mark.parametrize("kind", READERS)
def test_readers_accept_padded_and_signed_numbers(tmp_path, kind):
    reader, header, first, row = READERS[kind]
    path = _write(tmp_path, f"{header}\n{first}\n{row.format(' +2.5E1 ')}\n")
    result = reader(path)
    if kind == "pairs":
        assert result.x1[1, 0] == 25.0
    elif kind == "trajectories":
        assert result.states[0, 1, 0] == 25.0
    else:
        assert result[1, 1] == 25.0


@pytest.mark.parametrize("kind", READERS)
def test_header_only_file_emits_no_warning(tmp_path, kind):
    reader, header, _, _ = READERS[kind]
    path = _write(tmp_path, header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "trajectories":
            assert reader(path).n_traj == 0
        else:
            with pytest.raises(DataError, match="no data rows"):
                reader(path)


def _per_cell_csv(header, rows):
    """Per-cell rendering the chunked writer must reproduce byte for byte."""
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n, d", [(4, 1), (5, 3), (17_000, 1)])
def test_pair_and_cloud_writers_match_per_cell_format(tmp_path, n, d):
    # The last case has 17,000 rows, more than one write chunk.
    values = np.random.default_rng(n).normal(size=(n, 2 * d))
    values.reshape(-1)[: len(SPECIAL)] = SPECIAL[: values.size]
    x0, x1 = values[:, :d], values[:, d:]
    names = [f"x0_{j}" for j in range(d)] + [f"x1_{j}" for j in range(d)]
    path = tmp_path / "pairs.csv"
    write_pairs(path, AlignedDataset(x0=x0, x1=x1))
    assert path.read_bytes() == _per_cell_csv(names, values)
    again = read_pairs(path)
    assert np.array_equal(again.x0, x0) and np.array_equal(again.x1, x1)

    path = tmp_path / "cloud.csv"
    write_cloud(path, values)
    assert path.read_bytes() == _per_cell_csv([f"x_{j}" for j in range(2 * d)], values)
    assert np.array_equal(read_cloud(path), values)


@pytest.mark.parametrize("n", [0, 3, 17_000])
def test_loss_trace_writer_matches_per_row_format(tmp_path, n):
    values = np.random.default_rng(n).normal(size=(n, 4))
    values.reshape(-1)[: len(SPECIAL)] = SPECIAL[: values.size]
    trace = [LossBreakdown(*row) for row in values.tolist()]
    path = tmp_path / "trace.csv"
    write_loss_trace(path, trace)
    lines = ["iter,total,regression,regularization,mean_m_sq"] + [
        f"{it},{b.total:.17g},{b.regression:.17g},{b.regularization:.17g},{b.mean_m_sq:.17g}"
        for it, b in enumerate(trace)
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _cell_texts(values):
    """The formatter's text of each value, without the zero padding and comma."""
    cells = _cells(np.asarray(values, dtype=float).reshape(-1, 1))
    return [row.tobytes().translate(None, b"\0")[:-1] for row in cells]


def _bits(value):
    return int(np.array(value).view(np.uint64))


# Powers of ten around and inside the fixed-notation range, with the doubles
# on either side (those below come closest to 17 digits that round up to the
# power); the range's edges; zeros, the smallest subnormal, the largest doubles.
EDGES = [x for k in range(-6, 18) for x in (np.nextafter(10.0**k, 0), 10.0**k,
                                            np.nextafter(10.0**k, np.inf))]
EDGES += [1e-4, 1e16, 0.99999999999999994, 9.9999999999999999e-5,
          0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def test_formatter_matches_format_17g_on_edge_values():
    values = EDGES + [-v for v in EDGES]
    assert _cell_texts(values) == [format(v, ".17g").encode() for v in values]


_FAST_BITS = st.integers(_bits(9e-5), _bits(2e16))  # positive doubles in value order
_SIGNED_FAST = st.tuples(st.booleans(), _FAST_BITS).map(lambda t: (t[0] << 63) | t[1])


# Seeded by a number, not a digest of this source, so an edit keeps the draws.
@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1) | _SIGNED_FAST | st.floats(width=64).map(_bits),
                min_size=1, max_size=200))
def test_formatter_matches_format_17g_on_any_float64(bits):
    # Arbitrary bit patterns are mostly far outside the fixed-notation range,
    # so draws are also taken from around it, and from hypothesis' floats.
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _cell_texts(values) == [format(v, ".17g").encode() for v in values.tolist()]


def test_trajectory_writer_memory_does_not_grow_with_the_row_count(tmp_path):
    # The writer formats blocks of rows, so its peak is set by the block size,
    # not by the file: 50,000 and 400,000 rows peak alike, under 2 MB.
    peaks = []
    for n_traj in (500, 4000):
        states = np.random.default_rng(n_traj).normal(size=(n_traj, 100, 2))
        batch = TrajectoryBatch(states=states, times=TimeGrid(99).times)
        tracemalloc.start()
        try:
            write_trajectories(tmp_path / "traj.csv", batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 2**20, peaks
    assert peaks[1] < 1.1 * peaks[0], peaks
