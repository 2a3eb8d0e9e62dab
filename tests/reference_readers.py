"""The per-row CSV readers of welfarebounds.cli before they read whole columns.

Kept verbatim as the reference for test_readers.py, with four exceptions: a
line the csv module cannot read raises ParseError; ingest_csv no longer
counts a good's rows, so GoodSample raises InvalidSample for a good with
fewer than three, the one home of that rule; a non-finite price,
quantity or (on a row not rejected) instrument is not a number to
ingest_csv, so the fault names the file and row; and read_intervals_csv
returns the (good_id, method, interval, status) rows that `ci` writes, in
file order, since an Interval carries no status.  The column readers must
return the same values, or raise the same exception with the same message,
on every file.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from welfarebounds.errors import ConfigError, DataError, InvalidQuery, InvalidSample, ParseError, SchemaError
from welfarebounds.regress import GoodSample, Interval
from welfarebounds.welfare import WelfareQuery


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers; '#' comment lines skipped.

    The file is UTF-8, with or without a leading byte-order mark; a byte
    that does not decode, and a line the csv module cannot read (a cell
    longer than csv.field_size_limit(), or before Python 3.11 a NUL), raise
    ParseError naming the file and row.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after any byte-order mark
        bad = exc.object
        lineno = bad.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: row {lineno}: byte 0x{bad[exc.start]:02x} is not UTF-8") from None
    out = []
    for lineno, raw in enumerate(io.StringIO(text, newline=""), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        try:
            parsed = next(csv.reader([raw]))
        except csv.Error as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
        out.append((lineno, [cell.strip() for cell in parsed]))
    return out


def _cell_float(path: str, cell: str, lineno: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"{path}: row {lineno}: column {col!r} value {cell!r} is not a number") from None


def _data_float(path: str, cell: str, lineno: int, col: str) -> float:
    """A data file's number: finite, else the cell is not a number."""
    value = _cell_float(path, cell, lineno, col)
    if not math.isfinite(value):
        raise ParseError(f"{path}: row {lineno}: column {col!r} value {cell!r} is not a number")
    return value


def _check_columns(path: str, names: list[str], required) -> None:
    for col in required:
        if col not in names:
            raise SchemaError(f"{path}: missing required column {col!r}")


def _read_table(path: str, required=()) -> tuple[list[str], dict[str, int], list]:
    """Lower-cased header names, their column index, and the data rows.

    Every data row must have one cell per header name, else ParseError.
    """
    rows = _read_rows(path)
    if not rows:
        raise SchemaError(f"{path}: no header row found")
    names = [h.lower() for h in rows[0][1]]
    _check_columns(path, names, required)
    for lineno, cells in rows[1:]:
        if len(cells) != len(names):
            raise ParseError(f"{path}: row {lineno}: expected {len(names)} cells, got {len(cells)}")
    return names, {name: names.index(name) for name in names}, rows[1:]


def ingest_csv(path: str, reject_log: list | None = None) -> list[GoodSample]:
    """Group data rows by good_id into GoodSamples, preserving file order.

    Required columns: good_id, price, quantity; optional: instrument.  Rows
    with nonpositive price or quantity are rejected and their line numbers
    appended to reject_log; GoodSample raises InvalidSample for a good left
    with fewer than 3 rows, and a file left with none raises it too.
    """
    names, idx, rows = _read_table(path, ("good_id", "price", "quantity"))
    has_z = "instrument" in names
    groups: dict[str, dict[str, list[float]]] = {}
    for lineno, cells in rows:
        gid = cells[idx["good_id"]]
        if not gid:
            raise ParseError(f"{path}: row {lineno}: empty good_id")
        price = _data_float(path, cells[idx["price"]], lineno, "price")
        quantity = _data_float(path, cells[idx["quantity"]], lineno, "quantity")
        if price <= 0 or quantity <= 0:
            if reject_log is not None:
                reject_log.append((lineno, "nonpositive price or quantity"))
            continue
        group = groups.setdefault(gid, {"price": [], "quantity": [], "instrument": []})
        group["price"].append(price)
        group["quantity"].append(quantity)
        if has_z:
            group["instrument"].append(
                _data_float(path, cells[idx["instrument"]], lineno, "instrument")
            )
    samples = []
    for gid, cols in groups.items():
        samples.append(
            GoodSample(
                price=np.asarray(cols["price"]),
                quantity=np.asarray(cols["quantity"]),
                instrument=np.asarray(cols["instrument"]) if has_z else None,
                good_id=gid,
            )
        )
    if not samples:
        raise InvalidSample(f"{path}: no usable data rows")
    return samples


def read_intervals_csv(path: str, mode: str | None) -> list[tuple[str, str, Interval, str]]:
    """The (good_id, method, interval, status) rows of a cmd_ci output file, optionally one method only.

    EMPTY and FAILED:<ErrorName> rows hold empty intervals.  A row that is
    no valid Interval (lower above upper, a non-finite endpoint, a level
    outside [0, 1]) raises ParseError naming the file and row.
    """
    _, idx, rows = _read_table(path, ("good_id", "method", "lower", "upper", "level", "status"))
    out: dict[str, tuple[str, str, Interval, str]] = {}
    for lineno, cells in rows:
        method = cells[idx["method"]]
        if mode is not None and method != mode:
            continue
        gid = cells[idx["good_id"]]
        if gid in out:
            raise ConfigError(
                f"{path}: several rows for good {gid!r}; pass --mode to pick one method"
            )
        level = _cell_float(path, cells[idx["level"]], lineno, "level")
        status = cells[idx["status"]]
        try:
            if status == "EMPTY" or status.startswith("FAILED:"):
                interval = Interval.make_empty(level)
            else:
                lower = _cell_float(path, cells[idx["lower"]], lineno, "lower")
                upper = _cell_float(path, cells[idx["upper"]], lineno, "upper")
                interval = Interval(lower, upper, level)
        except ParseError:
            raise
        except DataError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
        out[gid] = (gid, method, interval, status)
    if not out:
        raise DataError(f"{path}: no interval rows matched mode {mode!r}")
    return list(out.values())


def _query_value(path: str, cell: str, lineno: int, col: str, kind: str) -> float:
    """A delta (finite, >= 0) or ystar (finite, > 0) cell of a query file."""
    value = _cell_float(path, cell, lineno, col)
    if kind == "delta":
        ok, need = value >= 0, "finite and nonnegative"
    else:
        ok, need = value > 0, "finite and positive"
    if not (ok and math.isfinite(value)):
        raise InvalidQuery(f"{path}: row {lineno}: {kind} in column {col!r} is {cell!r}; it must be {need}")
    return value


def read_query_csv(path: str, good_ids: list[str]) -> tuple[list[str], WelfareQuery]:
    """Individual ids and their N x K (delta, ystar) query, in long or wide layout.

    Long: columns id, good_id, delta, ystar with one row per (individual,
    good); a repeated pair raises InvalidQuery naming both rows, and so does
    an unknown good_id (naming its row) or an individual missing a good.
    Wide: columns id then K (delta, ystar) pairs in the good order of the
    data/intervals file, read by position; a column named delta_<g> or
    ystar_<g> for a known good g where the order puts another column raises
    SchemaError, and a repeated id raises InvalidQuery naming both rows.
    An empty id, a negative or non-finite delta, a nonpositive or non-finite
    ystar, or a delta * ystar that overflows raises InvalidQuery naming the
    file and row.
    """
    names, idx, rows = _read_table(path)
    K = len(good_ids)
    values: list[float] = []  # delta, ystar per good, good by good, row by row
    lines: list[int] = []  # the file row of each (delta, ystar) pair
    if "good_id" in names:
        _check_columns(path, names, ("id", "delta", "ystar"))
        per: dict[str, dict[str, tuple[float, float, int]]] = {}
        for lineno, cells in rows:
            ind = cells[idx["id"]]
            gid = cells[idx["good_id"]]
            if not ind:
                raise InvalidQuery(f"{path}: row {lineno}: empty individual id")
            if gid not in good_ids:
                raise InvalidQuery(f"{path}: row {lineno}: unknown good_id {gid!r}")
            entries = per.setdefault(ind, {})
            if gid in entries:
                raise InvalidQuery(
                    f"{path}: rows {entries[gid][2]} and {lineno}: individual {ind!r}"
                    f" lists good {gid!r} twice"
                )
            entries[gid] = (
                _query_value(path, cells[idx["delta"]], lineno, "delta", "delta"),
                _query_value(path, cells[idx["ystar"]], lineno, "ystar", "ystar"),
                lineno,
            )
        for ind, entries in per.items():
            missing = [g for g in good_ids if g not in entries]
            if missing:
                raise InvalidQuery(f"{path}: individual {ind!r}: missing goods {missing}")
            for g in good_ids:
                values += entries[g][:2]
                lines.append(entries[g][2])
        ids = list(per)
    else:
        if names[0] != "id" or len(names) != 1 + 2 * K:
            raise SchemaError(
                f"{path}: wide layout needs columns id plus {K} (delta, ystar) pairs"
            )
        wanted = [f"{kind}_{g}".lower() for g in good_ids for kind in ("delta", "ystar")]
        known = set(wanted)
        for j, (name, want) in enumerate(zip(names[1:], wanted), start=2):
            if name != want and name in known:
                raise SchemaError(f"{path}: column {j} is {name!r} where the good order puts {want!r}")
        first_row: dict[str, int] = {}
        for lineno, cells in rows:
            ind = cells[0]
            if not ind:
                raise InvalidQuery(f"{path}: row {lineno}: empty individual id")
            if ind in first_row:
                raise InvalidQuery(
                    f"{path}: rows {first_row[ind]} and {lineno}: individual {ind!r}"
                    " is listed twice"
                )
            first_row[ind] = lineno
            values += [
                _query_value(path, cell, lineno, names[j + 1], ("delta", "ystar")[j % 2])
                for j, cell in enumerate(cells[1:])
            ]
            lines += [lineno] * K
        ids = list(first_row)
    pairs = np.array(values).reshape(len(ids), K, 2)
    with np.errstate(over="ignore"):
        overflows = np.flatnonzero(~np.isfinite(pairs[..., 0] * pairs[..., 1]))
    if overflows.size:
        first = int(overflows[0])
        raise InvalidQuery(f"{path}: row {lines[first]}: delta times ystar for good"
                           f" {good_ids[first % K]!r} overflows; it must be finite")
    return ids, WelfareQuery(pairs[..., 0], pairs[..., 1])
