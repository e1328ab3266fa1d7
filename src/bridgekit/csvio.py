"""CSV files: the only code that knows their format (see "File formats" in the
README). A file is one header line, then one row of numbers per line.

Reading is one ``np.loadtxt`` pass followed by vector checks. Only when that
pass rejects the file, or a check fails, is the file scanned again to find the
physical ``file:line`` to report; the scan parses each line with the same
``loadtxt`` call, so the two passes agree on what a number is.

Writing is one formatter, ``_cells``: every cell is exactly the text of
``format(v, ".17g")``, 17 significant digits, so values read back bit for bit.
It works on whole blocks of float64 with numpy. Where ``%.17g`` prints fixed
notation (``1e-4 <= |v| < 1e16``, and zeros), the 17 digits are the correctly
rounded integer ``N = round(|v| * 10**(16 - e))`` with ``e = floor(log10|v|)``:
the product is taken exactly with Dekker's two-product against an exact
``10**k``, rounded half to even, and cut into 4-digit groups that a table
turns into ASCII. Other cells (tiny, huge, non-finite) take ``%.17g``
itself, one ``%`` per block.
"""

from __future__ import annotations

import warnings
from itertools import islice

import numpy as np

from .datasets import AlignedDataset
from .errors import DataError
from .sde import TrajectoryBatch

_RESCAN_ROWS = 1 << 14  # lines per re-scan block of a rejected file
_WRITE_ROWS = 2048  # rows per formatted block; sets the writer's memory
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
    while block := list(islice(lines, _RESCAN_ROWS)):
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


# A formatted cell is _CELL bytes: sign, the "0" of "0.", then a slot for the
# dot before each of the five 4-digit groups of the 20-digit field
# N * 10**(s % 4), s = e + 4, and the comma in the slot after the last group.
# The dot goes into slot s // 4. Bytes that print nothing are 0 and are
# dropped when the block is written.
_CELL = 28
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**k, exact for k <= 22
# The four ASCII digits of each 4-digit group g, as one uint32.
_ASCII = np.ascontiguousarray(48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T)
_ASCII = _ASCII.view(np.uint32).ravel()
# End of the last nonzero digit of group j (0-4) holding g, in digits from the
# field's start; 0 for g = 0. Indexed by 10_000 * j + g.
_LAST = np.full(10_000, 4, np.uint8)
for _step, _end in ((10, 3), (100, 2), (1000, 1), (10_000, 0)):
    _LAST[::_step] = _end
_LAST = ((_LAST + 4 * np.arange(5, dtype=np.uint8)[:, None]) * (_LAST > 0)).ravel()
_GROUP_BASE = 10_000 * np.arange(5)[:, None]


def _keep_masks() -> np.ndarray:
    """Byte masks of the five groups, indexed by 21 * s + end of the last
    nonzero digit. Digits before the dot (below 4 * (s // 4)) keep all but the
    field's 3 - s % 4 leading zeros; digits after it end at the last nonzero."""
    s, last = np.divmod(np.arange(20 * 21), 21)
    t = np.arange(20)
    dot = 4 * (s // 4)[:, None]
    keep = np.where(t < dot, t >= 3 - (s % 4)[:, None], t < last[:, None])
    return (255 * keep).astype(np.uint8).view(np.uint32)


_KEEP = _keep_masks()
# The six slots, indexed by 2 * (s // 4) + (any digit after the dot).
_SLOTS = np.zeros((10, 6), np.uint8)
_SLOTS[1::2, :5] = ord(".") * np.eye(5, dtype=np.uint8)
_SLOTS[:, 5] = ord(",")
# Sign and the "0" of a value below 1, indexed by 2 * sign bit + (|v| < 1).
_HEAD = np.array([[0, 0], [0, 48], [45, 0], [45, 48]], np.uint8).view(np.uint16).ravel()


def _split(x):
    """Dekker's split: a high half of 26 significant bits, and the exact rest."""
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray):
    """``a * 10**k`` exactly, as ``p + err`` (Dekker's two-product)."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _strided(cells: np.ndarray, dtype, offset: int, width: int = 0) -> np.ndarray:
    """A view of every cell's bytes from ``offset``: one ``dtype`` item, or
    ``width`` items 5 bytes apart."""
    shape, strides = (len(cells),), (cells.strides[0],)
    if width:
        shape, strides = shape + (width,), strides + (5,)
    return np.ndarray(shape, dtype, buffer=cells, offset=offset, strides=strides)


def _cells(values: np.ndarray) -> np.ndarray:
    """The cells of float64 rows ``values`` (rows, cols): uint8 (rows, cols * _CELL),
    each cell the bytes of ``format(v, ".17g")`` and a comma, padded with zeros."""
    rows, cols = values.shape
    v = values.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)  # %.17g prints these, and zeros, in fixed notation
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, err = _scaled(a, 16 - e)
    # log10 may be one off next to a power of ten; then p + err leaves [1e16, 1e17).
    off = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.int64)
    off -= (p < 1e16) | ((p == 1e16) & (err < 0))
    if off.any():
        i = np.flatnonzero(off)
        e[i] += off[i]
        p[i], err[i] = _scaled(a[i], 16 - e[i])
    # p >= 1e16 is an even integer, so rounding err half to even rounds p + err
    # so. No n reaches 10**17: each power of ten in range is a double or lies
    # below its nearest double, and the next double down is 1e-16 below it,
    # not within half a unit of the 17th digit.
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    zero = v == 0
    n[zero] = 0
    e[zero] = 0
    fast |= zero
    # The 20-digit field m = N * 10**r as five 4-digit groups, exact in float64.
    s = e + 4
    q, r = s >> 2, s & 3
    nh = n // 10**8
    scale = _POW10[r]
    low = (n - nh * 10**8) * scale
    carry = np.floor(low / 1e8)
    high = nh * scale + carry
    low -= carry * 1e8
    groups = np.empty((5, len(v)))
    np.floor(high / 1e8, out=groups[0])
    high -= groups[0] * 1e8
    np.floor(high / 1e4, out=groups[1])
    groups[2] = high - groups[1] * 1e4
    np.floor(low / 1e4, out=groups[3])
    groups[4] = low - groups[3] * 1e4
    g = groups.astype(np.intp)
    last = np.take(_LAST, g + _GROUP_BASE).max(axis=0)

    cells = np.empty((len(v), _CELL), np.uint8)
    _strided(cells, np.uint16, 0)[...] = np.take(_HEAD, 2 * np.signbit(v) + (q == 0))
    _strided(cells, np.uint8, 2, 6)[...] = np.take(_SLOTS, 2 * q + (last > 4 * q), axis=0)
    digits = np.take(_ASCII, g).T & np.take(_KEEP, 21 * s + last, axis=0)
    _strided(cells, np.uint32, 3, 5)[...] = digits
    slow = np.flatnonzero(~fast)
    if slow.size:  # %.17g is at most 24 bytes; pad each to _CELL - 1 with zeros
        texts = (f"%-{_CELL - 1}.17g" * slow.size % tuple(v[slow].tolist())).replace(" ", "\0")
        cells[slow, : _CELL - 1] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, _CELL - 1)
    return cells.reshape(rows, cols * _CELL)


def _packed(cells: np.ndarray) -> np.ndarray:
    """``cells`` without the byte columns that are 0 in every row. Applied to
    the lead tables, it cuts a row of a 2-d trajectory file from 140 to 86
    bytes before ``translate``, and the write's time by about 15%."""
    return cells[:, cells.any(axis=0)]


def write_csv(path, header, values: np.ndarray, lead=None) -> None:
    """Write ``header``, then each row of ``values`` as ``format(v, ".17g")``
    cells, after the byte columns in the list ``lead(lo, hi)`` returns for rows
    lo..hi-1 when ``lead`` is given (zero bytes are dropped). A ``header`` of
    None appends the rows to the file instead."""
    with open(path, "ab" if header is None else "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, len(values), _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, len(values))
            text = _cells(values[lo:hi])
            if lead:
                text = np.hstack(lead(lo, hi) + [text])
            text[:, -1] = ord("\n")  # each row's last comma
            fh.write(text.tobytes().translate(None, b"\0"))


def write_pairs(path, dataset: AlignedDataset) -> None:
    write_csv(path, _coords("x0", dataset.d) + _coords("x1", dataset.d),
              np.hstack([dataset.x0, dataset.x1]))


def write_cloud(path, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    write_csv(path, _coords("x", points.shape[1]), points)


def write_trajectories(path, batch: TrajectoryBatch, first_id: int = 0) -> None:
    """One row per (trajectory, step); trajectory i of ``batch`` has id
    ``first_id + i``. With ``first_id`` 0 the file starts with the header;
    otherwise the rows are appended to ``path``, which should end with
    trajectory ``first_id - 1``, so that a batch written in consecutive parts
    gives the bytes of one call. The ``traj_id,step,t`` text is taken from a
    table of the steps, made once, and one of the block's ids."""
    per_traj, d = batch.n_steps + 1, batch.d
    step_cells = _packed(_cells(np.column_stack([np.arange(per_traj), batch.times])))

    def lead(lo, hi):
        ids, steps = np.divmod(np.arange(lo, hi) + first_id * per_traj, per_traj)
        id_cells = _packed(_cells(np.arange(ids[0], ids[-1] + 1, dtype=float)[:, None]))
        return [np.take(id_cells, ids - ids[0], axis=0), np.take(step_cells, steps, axis=0)]

    header = None if first_id else _TRAJ_LEAD + _coords("x", d)
    write_csv(path, header, batch.states.reshape(-1, d), lead)
