"""CSV files: the only code that knows their format (see "File formats" in the
README). A file is one header line, then one row of numbers per line.

Reading is one ``np.loadtxt`` pass followed by vector checks. Only when that
pass rejects the file, or a check fails, is the file scanned again to find the
physical ``file:line`` to report; the scan parses each line with the same
``loadtxt`` call, so the two passes agree on what a number is. Writers print
17 significant digits, so values read back bit for bit.
"""

from __future__ import annotations

import warnings
from itertools import islice

import numpy as np

from .datasets import AlignedDataset
from .errors import DataError
from .sde import TrajectoryBatch

_CHUNK = 1 << 14  # rows per %-format call or re-scan block, so memory stays bounded
_TRAJ_LEAD = ["traj_id", "step", "t"]


def _coords(prefix: str, d: int) -> list[str]:
    return [f"{prefix}_{j}" for j in range(d)]


def _parse(source, skiprows: int = 0) -> np.ndarray:
    """The one number parser, on a path or a list of lines. ``loadtxt`` reads
    a path in large blocks but a file object line by line, a third slower."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=skiprows,
                          encoding="utf-8")


def _is_number(cell: str) -> bool:
    try:
        return _parse([cell]).size == 1
    except ValueError:
        return False


def _data_lines(path, header_no: int):
    """(physical line number, text) of every non-empty line after the header."""
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, start=1):
            if no > header_no and line.rstrip("\n"):
                yield no, line.rstrip("\n")


def _header(path, what: str) -> tuple[int, list[str]]:
    """Line number and cells of the first non-empty line."""
    for no, text in _data_lines(path, 0):
        return no, text.strip().split(",")
    raise DataError(f"{path}: empty {what} file")


def _rescan(path, header_no: int, n_cells: int) -> DataError:
    """The error for the first data line the fast pass rejects. Lines are
    parsed in blocks, and only a block that fails is parsed line by line."""
    lines = _data_lines(path, header_no)
    while block := list(islice(lines, _CHUNK)):
        try:
            rows = _parse([text for _, text in block])
            if rows.shape[1] == n_cells and np.isfinite(rows).all():
                continue
        except ValueError:
            pass
        for no, text in block:
            n_got = text.count(",") + 1
            if n_got != n_cells:
                return DataError(f"{path}:{no}: expected {n_cells} cells, got {n_got}")
            try:
                parse_row(text, f"{path}:{no}")
            except ValueError as exc:
                return DataError(str(exc))
    return DataError(f"{path}: unreadable rows")


def parse_row(text: str, where: str) -> np.ndarray:
    """The numbers of one comma-separated line, in the readers' grammar.

    Raises ValueError, prefixed with ``where``, naming the first cell that is
    not a number or not finite.
    """
    cells = text.split(",")
    try:
        rows = _parse([text])
    except ValueError:
        rows = None
    if rows is None or len(rows) != 1:
        bad = next((c for c in cells if not _is_number(c)), text)
        raise ValueError(f"{where}: non-numeric cell {bad!r}")
    bad = np.flatnonzero(~np.isfinite(rows[0]))
    if bad.size:
        raise ValueError(f"{where}: non-finite cell {cells[bad[0]]!r}")
    return rows[0]


def _read(path, what: str, header_for, pattern: str) -> tuple[int, np.ndarray]:
    """Header line number and the finite rows, one column per header cell. The
    header must be ``header_for(its cell count)``; ``pattern`` describes it."""
    header_no, cols = _header(path, what)
    if cols != header_for(len(cols)):
        raise DataError(f"{path}:{header_no}: malformed {what} header "
                        f"{','.join(cols)!r} (expected {pattern})")
    try:
        rows = _parse(path, skiprows=header_no)
    except ValueError:
        rows = None
    if rows is None or (rows.size and rows.shape[1] != len(cols)) or not np.isfinite(rows).all():
        raise _rescan(path, header_no, len(cols))
    return header_no, rows.reshape(-1, len(cols))


def is_pair_file(path) -> bool:
    """True when the header names pair columns (``x0_*``), not a point cloud."""
    return _header(path, "CSV")[1][0].startswith("x0_")


def read_pairs(path) -> AlignedDataset:
    _, rows = _read(path, "pair", lambda n: _coords("x0", n // 2) + _coords("x1", n // 2),
                    "x0_0,...,x0_{d-1},x1_0,...,x1_{d-1}, an even count of columns")
    if not len(rows):
        raise DataError(f"{path}: no data rows")
    d = rows.shape[1] // 2
    return AlignedDataset(x0=rows[:, :d], x1=rows[:, d:])


def read_cloud(path) -> np.ndarray:
    _, rows = _read(path, "point", lambda n: _coords("x", n), "x_0,...,x_{d-1}")
    if not len(rows):
        raise DataError(f"{path}: no data rows")
    return rows


def read_trajectories(path) -> TrajectoryBatch:
    """Read a trajectory CSV. Every (traj_id, step) pair of a full grid must
    appear exactly once, and all rows of one step must carry the same t;
    violations raise :class:`DataError` with a ``file:line`` location."""
    header_no, arr = _read(path, "trajectory", lambda n: _TRAJ_LEAD + _coords("x", max(n - 3, 1)),
                           "traj_id,step,t,x_0,...,x_{d-1} with d >= 1")
    n_rows, d = len(arr), arr.shape[1] - 3
    if not n_rows:  # header only: a valid, empty batch
        return TrajectoryBatch(states=np.empty((0, 1, d)), times=np.zeros(1))

    def line(r):  # physical line of data row r, looked up only to report an error
        return next(islice(_data_lines(path, header_no), r, None))[0]

    # A full grid has ids and steps below the row count; larger ones leave gaps.
    idx = arr[:, :2]
    bad = np.flatnonzero(np.any((idx != np.floor(idx)) | (idx < 0) | (idx >= n_rows), axis=1))
    if bad.size:
        r = bad[0]
        raise DataError(f"{path}:{line(r)}: traj_id and step must be integers in [0, {n_rows}), "
                        f"got {idx[r, 0]:.17g}, {idx[r, 1]:.17g}")
    ids, steps = idx.astype(np.int64).T
    n_traj, n_times = int(ids.max()) + 1, int(steps.max()) + 1
    key = ids * n_times + steps
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        r = repeats.min()
        earlier = line(np.flatnonzero(key == key[r])[0])
        raise DataError(f"{path}:{line(r)}: duplicate row for trajectory {ids[r]} "
                        f"step {steps[r]} (first at line {earlier})")
    if n_rows != n_traj * n_times:
        raise DataError(f"{path}: {n_traj * n_times - n_rows} missing trajectory rows "
                        f"({n_traj} trajectories x {n_times} steps expected)")
    _, first = np.unique(steps, return_index=True)  # first row of every step
    times = arr[first, 2]
    bad = np.flatnonzero(arr[:, 2] != times[steps])
    if bad.size:
        r = bad[0]
        raise DataError(f"{path}:{line(r)}: t = {arr[r, 2]:.17g} at step {steps[r]} differs "
                        f"from t = {times[steps[r]]:.17g} at line {line(first[steps[r]])}")
    states = np.empty((n_traj, n_times, d))
    states[ids, steps] = arr[:, 3:]
    return TrajectoryBatch(states=states, times=times)


def write_csv(path, header: list[str], values: np.ndarray, lead=None) -> None:
    """Write ``header``, then each row of ``values`` as ``%.17g`` cells, after
    the text ``lead(lo, hi)`` returns for rows lo..hi-1 when ``lead`` is given."""
    n_rows, n_values = values.shape
    row_fmt = ",".join((["%s"] if lead else []) + ["%.17g"] * n_values) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CHUNK):
            hi = min(lo + _CHUNK, n_rows)
            block = values[lo:hi]
            if lead:
                block = np.empty((hi - lo, 1 + n_values), dtype=object)
                block[:, 0] = lead(lo, hi)
                block[:, 1:] = values[lo:hi]
            fh.write((row_fmt * (hi - lo)) % tuple(block.ravel().tolist()))


def write_pairs(path, dataset: AlignedDataset) -> None:
    write_csv(path, _coords("x0", dataset.d) + _coords("x1", dataset.d),
              np.hstack([dataset.x0, dataset.x1]))


def write_cloud(path, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    write_csv(path, _coords("x", points.shape[1]), points)


def write_trajectories(path, batch: TrajectoryBatch) -> None:
    """One row per (trajectory, step). Its ``traj_id,step,t`` text is joined
    from per-step strings made once, faster than three more number cells."""
    per_traj, d = batch.n_steps + 1, batch.d
    step_cells = [f"{k},{t:.17g}" for k, t in enumerate(batch.times.tolist())]

    def lead(lo, hi):
        ids, steps = np.divmod(np.arange(lo, hi), per_traj)
        return [f"{i},{step_cells[k]}" for i, k in zip(ids.tolist(), steps.tolist())]

    write_csv(path, _TRAJ_LEAD + _coords("x", d), batch.states.reshape(-1, d), lead)
