"""Command-line surface: ingest CSVs, build intervals, bound welfare, run studies.

Commands: ci, welfare, simulate, mc, diagnose.  Each command's subparser is
the one declaration of its parameters; a --config file of `key = value`
lines sets that subparser's defaults, a key being the flag's name without
its dashes, and flags on the command line win.  All randomness flows from a
single --seed flag (mandatory for simulate/mc).  Exit codes: 0 success,
2 config error, 3 data error, 4 numerical error or an allocation too large
for memory (one `MemoryError: <message>` line); empty confidence sets
produce EMPTY rows instead of failures, and a data or numerical error in one
good becomes that good's FAILED:<ErrorName> row while the other goods are
still written (the exit code is then that of the first failure).  Output
files are plain CSV with one leading '#' comment line naming units and
levels; given the same config and seed they are byte-identical across runs.
Each profile file's name percent-encodes `%`, `/`, `\\` and NUL in the good
id.  Theta's lower edge is the constant welfare.POSITIVITY_FLOOR; no flag sets it.

A command loads only the layers it runs: this module imports the readers'
and the welfare solvers' modules, and the functions that run a grid or a
Monte Carlo study import confset, xicor, simulate (and so _fanout)
themselves, so `welfare --intervals` loads none of them.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import io
import math
import os
import sys
from itertools import repeat

# One BLAS thread per process, set before numpy loads OpenBLAS.  The CLI's
# parallelism is _fanout's processes: a BLAS pool in each would oversubscribe
# the CPUs, and above ~10 000 rows OpenBLAS splits a dot product over its
# threads, so the least-squares bits would depend on the CPU count.  Set
# outright: a user's value above 1 would bring that dependence back.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InvalidQuery,
    InvalidSample,
    NumericalError,
    ParseError,
    SchemaError,
    WelfareBoundsError,
)
from .regress import GoodSample, Interval
from .welfare import POSITIVITY_FLOOR, ConstraintSet, WelfareQuery, bounds_box, value_faults

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Default cap of the xi-only search space when no least-squares interval
# bounds it; the default of --grid-hi.
DEFAULT_GRID_HI = 6.0

# Spawn-path purpose code of the --jitter noise (disjoint from confset.good_seed's and simulate's).
_SEED_JITTER = 8

# Percent-encoding that turns a good id into a file-name part, one to one.
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\\": "%5C", "\0": "%00"})


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _cells(column) -> list[str]:
    """_fmt of every entry of an output column; a float array in bulk."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return ["" if v != v else "%.12g" % v for v in column.tolist()]
    return [_fmt(x) for x in column]


class _Table:
    """A CSV file's lower-cased header names and its data cells.

    lines[i] is data row i's 1-based line in the file; cells holds the
    stripped cells row after row, len(names) per row.
    """

    def __init__(self, names: list[str], lines: list[int], cells: list[str]):
        self.names, self.lines, self.cells = names, lines, cells

    def column(self, name: str) -> list[str]:
        """The cells of the first column called `name`, row by row."""
        return self.cells[self.names.index(name) :: len(self.names)]

    def cell(self, i: int, j: int) -> str:
        """Data row i's cell in column j."""
        return self.cells[i * len(self.names) + j]

    def rows(self):
        """(line, cells) of each data row, in file order."""
        w = len(self.names)
        return ((line, self.cells[i * w : i * w + w]) for i, line in enumerate(self.lines))


def _records(path: str, raws, lines) -> list:
    """Each raw line (with its line break) parsed by the csv module as one record.

    A quoted cell that runs past its line's end ends there.  lines[i] is
    raws[i]'s line in the file.  The first line the csv module cannot read
    (a cell longer than csv.field_size_limit(), or before Python 3.11 a
    NUL) raises ParseError naming the file and the line.
    """
    records = []
    for lineno, raw in zip(lines, raws):
        try:
            records.append(next(csv.reader([raw])))
        except csv.Error as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    return records


def _read_table(path: str, required=()) -> _Table:
    """The file's header names and data cells, read in one pass.

    The file is UTF-8, with or without a leading byte-order mark; a byte
    that does not decode raises ParseError naming the file and row.  Lines
    end at \\n, \\r\\n or \\r; blank lines and '#' comment lines are skipped,
    and each other line is one CSV record whose cells are stripped.  A
    missing required column raises SchemaError, and a line the csv module
    cannot read or a data row without one cell per header name ParseError.
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
    raws = io.StringIO(text, newline="").readlines()
    stripped = list(map(str.strip, raws))
    lines = range(1, len(raws) + 1)
    if "#" in text or not all(stripped):
        lines = [lineno for lineno, line in zip(lines, stripped) if line and line[0] != "#"]
        raws = [raws[lineno - 1] for lineno in lines]
    if not raws:
        raise SchemaError(f"{path}: no header row found")
    if '"' in text or "\0" in text or max(map(len, raws)) > csv.field_size_limit():
        records = _records(path, raws, lines)
        counts = list(map(len, records))
        cells = [cell.strip() for record in records for cell in record]
    else:
        # Without quotes, NULs or over-long lines a record is its line split
        # at the commas; a line break ends up in the line's last cell and is
        # stripped with it.
        counts = [commas + 1 for commas in map(str.count, raws, [","] * len(raws))]
        cells = list(map(str.strip, ",".join(raws).split(",")))
    names = [h.lower() for h in cells[: counts[0]]]
    _check_columns(path, names, required)
    w = len(names)
    if counts.count(w) != len(counts):
        i = next(i for i, count in enumerate(counts) if count != w)
        raise ParseError(f"{path}: row {lines[i]}: expected {w} cells, got {counts[i]}")
    return _Table(names, list(lines[1:]), cells[w:])


def _not_a_number(path: str, lineno: int, col: str, cell: str) -> ParseError:
    return ParseError(f"{path}: row {lineno}: column {col!r} value {cell!r} is not a number")


def _cell_float(path: str, cell: str, lineno: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise _not_a_number(path, lineno, col, cell) from None


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _numbers(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """float() of every cell, and the mask of the cells it rejects, which read NaN.

    The cells are read one by one only when reading them all at once raised.
    """
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells)), np.zeros(len(cells), dtype=bool)
    except ValueError:
        parsed = np.array(list(map(_float_or_none, cells)), dtype=object)
        return parsed.astype(float), np.equal(parsed, None)


def _number_rule(path: str, table: _Table, j: int, bad: np.ndarray):
    """The rule (mask, fault) of column j: a cell that is not a number, as `bad` flags it."""
    return bad, lambda i: _not_a_number(path, table.lines[i], table.names[j], table.cell(i, j))


def _check_columns(path: str, names: list[str], required) -> None:
    for col in required:
        if col not in names:
            raise SchemaError(f"{path}: missing required column {col!r}")


def _raise_first(rules) -> None:
    """Raise the first fault in a table's data rows, if there is one.

    rules lists (mask, fault) in the rule order: mask flags the rows that
    break the rule and fault(i) is the exception for row i.  The first
    fault is at the first row in file order that a mask flags, under the
    first rule that flags it.
    """
    if any(mask.any() for mask, _ in rules):
        flags = np.stack([mask for mask, _ in rules], axis=1)
        i = int(flags.any(axis=1).argmax())
        raise rules[int(flags[i].argmax())][1](i)


def ingest_csv(path: str, reject_log: list | None = None) -> list[GoodSample]:
    """Group data rows by good_id into GoodSamples, preserving file order.

    Required columns: good_id, price, quantity; optional: instrument.  Rows
    with nonpositive price or quantity are rejected and their line numbers
    appended to reject_log; GoodSample raises InvalidSample for a good left
    with fewer than 3 rows, and a file left with none raises it too.  A
    faulty row raises ParseError naming the file and row; of several, the
    first row in file order, with its first fault in this order: an empty
    good_id, a price that is not a number, a quantity that is not a number,
    and, on a row not rejected, an instrument that is not a number.  A
    non-finite value (nan, inf, -inf) is not a number here.
    """
    table = _read_table(path, ("good_id", "price", "quantity"))
    names = table.names
    has_z = "instrument" in names
    gids = table.column("good_id")
    # a cell that does not parse reads NaN, so ~isfinite flags it too
    price = _numbers(table.column("price"))[0]
    quantity = _numbers(table.column("quantity"))[0]
    reject = (price <= 0) | (quantity <= 0)
    rules = [
        (np.fromiter(map(len, gids), dtype=np.intp, count=len(gids)) == 0,
         lambda i: ParseError(f"{path}: row {table.lines[i]}: empty good_id")),
        _number_rule(path, table, names.index("price"), ~np.isfinite(price)),
        _number_rule(path, table, names.index("quantity"), ~np.isfinite(quantity)),
    ]
    if has_z:
        z = _numbers(table.column("instrument"))[0]
        # a rejected row's instrument is not checked
        rules.append(_number_rule(path, table, names.index("instrument"), ~np.isfinite(z) & ~reject))
    _raise_first(rules)
    if reject_log is not None:
        reject_log += [(table.lines[i], "nonpositive price or quantity") for i in np.flatnonzero(reject).tolist()]
    kept = np.flatnonzero(~reject)
    price, quantity = price[kept], quantity[kept]
    z = z[kept] if has_z else None
    # goods in order of first appearance among the kept rows
    kept_gids = list(map(gids.__getitem__, kept.tolist()))
    code = {gid: i for i, gid in enumerate(dict.fromkeys(kept_gids))}
    codes = np.fromiter(map(code.__getitem__, kept_gids), dtype=np.intp, count=len(kept))
    by_good = np.argsort(codes, kind="stable")
    if not code:
        raise InvalidSample(f"{path}: no usable data rows")
    ends = np.cumsum(np.bincount(codes))[:-1]
    return [
        GoodSample(price[rows], quantity[rows], z[rows] if has_z else None, gid)
        for gid, rows in zip(code, np.split(by_good, ends))
    ]


def read_intervals_csv(path: str, mode: str | None) -> list[tuple[str, str, Interval, str]]:
    """The (good_id, method, interval, status) rows of a cmd_ci output file, optionally one method only.

    Rows come in file order, the shape _good_intervals returns.  EMPTY and
    FAILED:<ErrorName> rows hold empty intervals.  A second row for a good
    raises ConfigError, and a row that is no valid Interval (lower above
    upper, a non-finite endpoint, a level outside [0, 1]) ParseError naming
    the file and row, with Interval's DataError message.
    """
    table = _read_table(path, ("good_id", "method", "lower", "upper", "level", "status"))
    idx = {name: table.names.index(name) for name in table.names}
    rows: dict[str, tuple[str, str, Interval, str]] = {}
    for lineno, cells in table.rows():
        method = cells[idx["method"]]
        if mode is not None and method != mode:
            continue
        gid = cells[idx["good_id"]]
        if gid in rows:
            raise ConfigError(
                f"{path}: several rows for good {gid!r}; pass --mode to pick one method"
            )
        level = _cell_float(path, cells[idx["level"]], lineno, "level")
        status = cells[idx["status"]]
        empty = status == "EMPTY" or status.startswith("FAILED:")
        lower, upper = (math.nan if empty else _cell_float(path, cells[idx[c]], lineno, c) for c in ("lower", "upper"))
        try:
            rows[gid] = (gid, method, Interval(lower, upper, level, empty=empty), status)
        except DataError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no interval rows matched mode {mode!r}")
    return list(rows.values())


def _range_rule(path: str, table: _Table, j: int, kind: str, bad: np.ndarray, need: str):
    """The rule (mask, fault) of query column j, a delta or ystar column: a
    value that is not `need`, as value_faults' mask `bad` flags it."""
    return bad, lambda i: InvalidQuery(
        f"{path}: row {table.lines[i]}: {kind} in column {table.names[j]!r} is {table.cell(i, j)!r}; it must be {need}"
    )


def read_query_csv(path: str, good_ids: list[str]) -> tuple[list[str], WelfareQuery]:
    """Individual ids and their N x K (delta, ystar) query, in long or wide layout.

    Long: columns id, good_id, delta, ystar with one row per (individual,
    good).  Wide: columns id then K (delta, ystar) pairs in the good order
    of the data/intervals file, read by position; a column named delta_<g>
    or ystar_<g> for a known good g where the order puts another column
    raises SchemaError.  A value that is not a number raises ParseError and
    every other fault InvalidQuery, naming the file and row (both rows for
    a repeat).  Of several faulty rows the first in file order is named,
    with its first fault in this order.  Long: an empty id, an unknown
    good_id, a repeated (id, good_id) pair, then for delta and then ystar a
    value that is not a number and one out of range (by WelfareQuery's value
    rules, welfare.value_faults); after all rows, an individual missing a
    good, then a delta * ystar that overflows.  Wide:
    an empty id, a repeated id, then each value column from left to right,
    not a number and then out of range; after all rows, an overflow.
    """
    table = _read_table(path)
    names, K = table.names, len(good_ids)
    long = "good_id" in names
    if long:
        _check_columns(path, names, ("id", "delta", "ystar"))
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
    inds = table.column("id")
    # individuals in order of first appearance
    who = {ind: i for i, ind in enumerate(dict.fromkeys(inds))}
    person = np.fromiter(map(who.__getitem__, inds), dtype=np.intp, count=len(inds))
    rules = [(person == who.get("", -1), lambda i: InvalidQuery(f"{path}: row {table.lines[i]}: empty individual id"))]
    if long:
        gids = table.column("good_id")
        good = {g: k for k, g in enumerate(good_ids)}
        goods = np.fromiter(map(good.get, gids, repeat(-1)), dtype=np.intp, count=len(gids))
        rules.append((goods < 0, lambda i: InvalidQuery(f"{path}: row {table.lines[i]}: unknown good_id {gids[i]!r}")))
        # an unknown good's row takes good 0's slot: its own fault comes
        # first, and any repeat that slot makes lies after it
        slot = person * K + np.maximum(goods, 0)
        cols = [names.index("delta"), names.index("ystar")]
        (delta, delta_bad), (ystar, ystar_bad) = (_numbers(table.cells[j :: len(names)]) for j in cols)
        values, unparsed = np.stack([delta, ystar], axis=1), np.stack([delta_bad, ystar_bad], axis=1)
    else:
        slot = person
        cols = range(1, 1 + 2 * K)
        # the value cells row by row, read at once
        cells = table.cells.copy()
        del cells[:: len(names)]
        values, unparsed = (a.reshape(len(inds), 2 * K) for a in _numbers(cells))
    filled = np.bincount(slot, minlength=len(who) * K)
    repeated = filled[slot] > 1
    if repeated.any():
        # the first row of each slot is no repeat
        repeated[np.unique(slot, return_index=True)[1]] = False
    rules.append((repeated, lambda i: InvalidQuery(
        f"{path}: rows {table.lines[int((slot == slot[i]).argmax())]} and {table.lines[i]}: individual {inds[i]!r} "
        + (f"lists good {gids[i]!r} twice" if long else "is listed twice"))))
    # each row's (delta, ystar) pairs, one per good the row holds
    faults = value_faults(values[:, 0::2], values[:, 1::2])
    for c, j in enumerate(cols):
        rules.append(_number_rule(path, table, j, unparsed[:, c]))
        bad, need = faults[c % 2]
        rules.append(_range_rule(path, table, j, ("delta", "ystar")[c % 2], bad[:, c // 2], need))
    _raise_first(rules)
    ids = list(who)
    overflow, need = faults[2]
    if long:
        lacking = filled.reshape(len(ids), K) == 0
        if lacking.any():
            i = int(np.flatnonzero(lacking.any(axis=1))[0])
            missing = [good_ids[k] for k in np.flatnonzero(lacking[i])]
            raise InvalidQuery(f"{path}: individual {ids[i]!r}: missing goods {missing}")
        # the row of each (individual, good) slot: every slot is filled once
        order = np.argsort(slot)
        pairs, lines, overflows = values[order], np.asarray(table.lines)[order], overflow[order, 0]
    else:
        pairs, lines, overflows = values, np.repeat(table.lines, K), overflow.ravel()
    if overflows.any():
        # the first in individual and then good order
        first = int(overflows.argmax())
        raise InvalidQuery(f"{path}: row {lines[first]}: delta times ystar for good"
                           f" {good_ids[first % K]!r} overflows; it must be {need}")
    pairs = pairs.reshape(len(ids), K, 2)
    return ids, WelfareQuery(pairs[..., 0], pairs[..., 1])


def _write_csv(path: str, comment: str, header: list[str], columns) -> None:
    """Write one output file from its columns, one per header name, then print `wrote <path>`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns)))
    print(f"wrote {path}")


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required for this command")
    return value


def _load_samples(cfg: argparse.Namespace, flag: str = "--data") -> list[GoodSample]:
    """Check --alpha and --jitter, ingest the data file, smooth instruments if --jitter, report rejected rows.

    Every command that reads the two flags calls this, and a bad value fails before the data read."""
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {cfg.alpha}", ("alpha",))
    if cfg.jitter < 0:
        raise ConfigError(f"jitter must be nonnegative, got {cfg.jitter}", ("jitter",))
    if cfg.jitter > 0 and cfg.seed is None:
        raise ConfigError("--jitter requires --seed for reproducible noise")
    reject_log: list = []
    samples = ingest_csv(_require(cfg.data, flag), reject_log)
    if cfg.jitter > 0:
        if any(s.instrument is None for s in samples):
            raise ConfigError("--jitter requires an instrument column")
        from .confset import child_seed, smooth_instrument

        samples = [
            GoodSample(
                s.price,
                s.quantity,
                smooth_instrument(s.instrument, cfg.jitter, child_seed(cfg.seed, _SEED_JITTER, i)),
                s.good_id,
            )
            for i, s in enumerate(samples)
        ]
    for lineno, reason in reject_log:
        print(f"rejected row {lineno}: {reason}", file=sys.stderr)
    return samples


def _exit_code(exc: BaseException) -> int:
    """The documented exit code for an error that ends a command or fails a good."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    return EXIT_NUMERIC


def _failed(good_id: str, exc: BaseException) -> tuple[int, str]:
    """Print the stderr line of a data or numerical error that fails one good.

    The line names the good once.  Returns (the error's exit code,
    "FAILED:<ErrorName>"); any other error ends the command and is raised.
    """
    if not isinstance(exc, (DataError, NumericalError)):
        raise exc
    name, message = type(exc).__name__, str(exc)
    if not message.startswith(f"{good_id}: "):
        message = f"{good_id}: {message}"
    print(f"{name}: {message}", file=sys.stderr)
    return _exit_code(exc), f"FAILED:{name}"


def _good_intervals(cfg: argparse.Namespace, modes, data_flag: str = "--data"):
    """Each good's interval in each mode over the grid flags' grid, by confset.good_intervals.

    Returns (rows, profiles, code).  rows are (good_id, mode, interval,
    status) in file order, the shape read_intervals_csv returns; status is
    OK, EMPTY, or FAILED:<ErrorName> when a data or numerical error hit that
    (good, mode), whose interval is then empty, and whose stderr line (see
    _failed) is printed in file order; any other error is raised after the
    lines of the goods before it.  profiles maps a good id to its xi-mode
    grid profile.  code is the exit code of the first failure, or EXIT_OK.
    An xi interval that ends at --grid-hi, or at a --grid-lo above
    POSITIVITY_FLOOR, gets a GridEdge stderr line in file order: the set
    may extend past the grid; so does an empty xi interval, whose set may
    lie wholly beyond it.  The grid is built before the data file
    (`data_flag`) is read: a bad one fails first.
    """
    from .confset import GridSpec, good_intervals

    grid = GridSpec(cfg.grid_lo, cfg.grid_hi, cfg.grid_nodes)
    samples = _load_samples(cfg, data_flag)
    rows = []
    profiles: dict = {}
    code = EXIT_OK
    for out in good_intervals(samples, cfg.alpha, modes, grid, cfg.seed if cfg.seed is not None else 0):
        gid, m, iv = out.good_id, out.mode, out.interval
        if out.error is not None:
            failed_code, status = _failed(gid, out.error)
            code = code or failed_code
            rows.append((gid, m, iv, status))
            continue
        if out.profile is not None:
            profiles[gid] = out.profile
        if m == "xi" and iv.empty:
            print(f"GridEdge: {gid}: no xi node of [--grid-lo {_fmt(grid.lo)}, --grid-hi {_fmt(grid.hi)}]"
                  " was accepted; the set may lie beyond the grid", file=sys.stderr)
        for flag, edge, hit in (("--grid-lo", grid.lo, iv.lower == grid.lo > POSITIVITY_FLOOR),
                                ("--grid-hi", grid.hi, iv.upper == grid.hi)):
            if hit and m == "xi":
                print(f"GridEdge: {gid}: xi interval reaches {flag} {_fmt(edge)}; the set may extend beyond it",
                      file=sys.stderr)
        rows.append((gid, m, iv, "EMPTY" if iv.empty else "OK"))
    return rows, profiles, code


def _exact(x: float) -> str:
    """x at round-trip precision (repr), which float() reads back bit for bit; NaN is empty."""
    return "" if x != x else repr(float(x))


def cmd_ci(cfg: argparse.Namespace) -> int:
    """Per-good intervals in the requested mode(s) plus grid-profile dumps."""
    modes = ("xi", "ls", "intersect") if cfg.mode == "all" else (cfg.mode,)
    rows, profiles, code = _good_intervals(cfg, modes)
    _write_csv(
        f"{cfg.out}_intervals.csv",
        f"theta confidence intervals in nominal price units; joint alpha = {_fmt(cfg.alpha)};"
        " 'level' is the per-good confidence level",
        ["good_id", "method", "lower", "upper", "level", "status"],
        zip(*([gid, m, _exact(iv.lower), _exact(iv.upper), _exact(iv.level), status]
              for gid, m, iv, status in rows)),
    )
    for gid, prof in profiles.items():
        _write_csv(
            f"{cfg.out}_profile_{gid.translate(_FILE_NAME_ESCAPES)}.csv",
            "normalized rank-dependence statistic by theta (nominal price units);"
            f" critical value = {_fmt(prof.critical)}",
            ["theta", "stat"],
            [prof.thetas, prof.stats],
        )
    return code


def cmd_welfare(cfg: argparse.Namespace) -> int:
    """Per-individual welfare-loss bounds over the box from --intervals, or from --data as cmd_ci computes it."""
    if cfg.intervals is not None:
        rows, code = read_intervals_csv(cfg.intervals, None if cfg.mode == "all" else cfg.mode), EXIT_OK
    elif cfg.mode == "all":
        raise ConfigError("pick one --mode (xi, ls, or intersect) when computing from raw data")
    else:
        rows, _, code = _good_intervals(cfg, (cfg.mode,), "--data or --intervals")
    ids, query = read_query_csv(_require(cfg.query, "--query"), [gid for gid, _, _, _ in rows])
    constraints = ConstraintSet([iv for _, _, iv, _ in rows], sum_to=cfg.sum_to)
    wb = bounds_box(constraints, query)
    failed = any(good_status.startswith("FAILED:") for *_, good_status in rows)
    status = "FAILED" if failed else "EMPTY" if constraints.empty else "OK"
    n = len(ids)
    # ascending by the upper bound; a stable sort keeps ties, and an empty
    # set's all-NaN bounds, in file order
    order = sorted(range(n), key=wb.wl_max.tolist().__getitem__)
    _write_csv(
        f"{cfg.out}_welfare.csv",
        "welfare-loss bounds per individual in units of the numeraire;"
        " 'level' is the joint box level",
        ["rank", "id", "wl_min", "wl_max", "level", "status"],
        [range(1, n + 1), [ids[i] for i in order], wb.wl_min[order], wb.wl_max[order], np.full(n, wb.level),
         [status] * n],
    )
    return code


def _parse_theta(text: str) -> np.ndarray:
    """The --theta list's floats; DgpConfig checks their count and range."""
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"bad --theta list {text!r}: {exc}", ("theta",)) from exc


def cmd_simulate(cfg: argparse.Namespace) -> int:
    """Write one synthetic draw as an ingestible CSV."""
    from .simulate import DgpConfig, draw_sample

    seed = _require(cfg.seed, "--seed")
    config = DgpConfig(
        theta=_parse_theta(cfg.theta), n=cfg.n, seed=seed, endogeneity=cfg.endogeneity
    )
    samples = draw_sample(config)
    _write_csv(
        f"{cfg.out}_data.csv",
        "synthetic demand draws; price and instrument in nominal units",
        ["good_id", "price", "quantity", "instrument"],
        [[s.good_id for s in samples for _ in range(s.n)]]
        + [np.concatenate([getattr(s, col) for s in samples]) for col in ("price", "quantity", "z")],
    )
    return EXIT_OK


def cmd_mc(cfg: argparse.Namespace) -> int:
    """Run a Monte Carlo study and write its report tables."""
    from .simulate import MC_ALPHA, mc_table1, mc_table2

    seed = _require(cfg.seed, "--seed")
    if cfg.table == 1:
        report = mc_table1(cfg.reps, seed)
    else:
        report = mc_table2(cfg.k, cfg.reps, seed)
    _write_csv(
        f"{cfg.out}_mc_intervals.csv",
        "average interval endpoints (theta, nominal price units) over"
        f" {report.reps} replications; joint alpha = {_fmt(MC_ALPHA)}",
        ["n", "good_id", "theta_true", "avg_lower", "avg_upper", "avg_length", "coverage", "n_empty"],
        zip(*(
            [r.n, r.good_id, r.theta_true, r.avg_lower, r.avg_upper, r.avg_length, r.coverage, r.n_empty]
            for r in report.intervals
        )),
    )
    wl_rows = [[r.n, r.label, r.value] for r in report.welfare]
    wl_rows += [[n, "joint_coverage", v] for n, v in sorted(report.joint_coverage.items())]
    _write_csv(
        f"{cfg.out}_mc_welfare.csv",
        f"welfare-loss figures in units of the numeraire; joint alpha = {_fmt(MC_ALPHA)};"
        f" true loss = {_fmt(report.true_welfare_loss)}",
        ["n", "label", "value"],
        zip(*wl_rows),
    )
    print(report.interval_table())
    print(report.welfare_table())
    for stage, seconds in report.timings.items():
        print(f"timing {stage}: {seconds:.2f}s")
    for what, count in report.skipped.items():
        print(f"skipped {what}: {count}")
    return EXIT_OK


def cmd_diagnose(cfg: argparse.Namespace) -> int:
    """Classify each good's confidence-set shape from its endpoint statistics.

    A FAILED:<ErrorName> row still carries the critical value (alpha alone sets it).
    """
    from .confset import good_seed, shape_diagnostic
    from .xicor import critical_value

    samples = _load_samples(cfg)
    seed = cfg.seed if cfg.seed is not None else 0
    critical = critical_value(cfg.alpha)
    rows = []
    code = EXIT_OK
    for i, s in enumerate(samples):
        try:
            diag = shape_diagnostic(s, cfg.alpha, good_seed(seed, i))
        except (DataError, NumericalError) as exc:
            failed_code, status = _failed(s.good_id, exc)
            code = code or failed_code
            rows.append([s.good_id, None, None, critical, status])
            continue
        rows.append([s.good_id, diag.stat_at_zero, diag.stat_at_inf, critical, diag.case_id])
    _write_csv(
        f"{cfg.out}_diagnostics.csv",
        f"confidence-set shape diagnostics at alpha = {_fmt(cfg.alpha)};"
        " stats are sqrt(n) * xi (dimensionless)",
        ["good_id", "stat_at_zero", "stat_at_inf", "critical", "case_id"],
        zip(*rows),
    )
    return code


_COMMANDS = {
    "ci": cmd_ci,
    "welfare": cmd_welfare,
    "simulate": cmd_simulate,
    "mc": cmd_mc,
    "diagnose": cmd_diagnose,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name.

    Each subparser is the one declaration of its command's parameters: the
    flag, its type, choices and default, and (without the dashes) its
    config key and attribute name.
    """
    parser = argparse.ArgumentParser(
        prog="welfarebounds",
        description="Confidence bounds on individual-level welfare loss from demand data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="out", help="output path stem")

    def add_data(p):
        p.add_argument("--alpha", type=float, default=0.05,
                       help="joint error level (welfare --intervals takes the file's levels)")
        p.add_argument("--data", help="input CSV (good_id,price,quantity[,instrument])")
        p.add_argument("--jitter", type=float, default=0.0, help="instrument smoothing half-width")

    def add_intervals(p):
        p.add_argument("--grid-nodes", type=int, default=5000)
        p.add_argument("--grid-lo", type=float, default=POSITIVITY_FLOOR)
        p.add_argument("--grid-hi", type=float, default=DEFAULT_GRID_HI)
        p.add_argument("--mode", choices=["xi", "ls", "intersect", "all"], default="all")

    p_ci = sub.add_parser("ci", help="per-good confidence intervals")
    for add in (add_common, add_data, add_intervals):
        add(p_ci)

    p_w = sub.add_parser("welfare", help="per-individual welfare-loss bounds")
    for add in (add_common, add_data, add_intervals):
        add(p_w)
    p_w.add_argument("--intervals", help="intervals CSV written by `ci`")
    p_w.add_argument("--query", help="per-individual (delta, ystar) CSV")
    p_w.add_argument("--sum-to", type=float)

    p_s = sub.add_parser("simulate", help="write a synthetic demand CSV")
    add_common(p_s)
    p_s.add_argument("--theta", default="0.2,0.3,0.5", help="comma-separated true theta values")
    p_s.add_argument("--n", type=int, default=1000)
    p_s.add_argument("--endogeneity", type=float)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo study")
    add_common(p_mc)
    p_mc.add_argument("--table", type=int, choices=[1, 2], default=1,
                      help="1 = three-good study, 2 = many-goods study (needs --k)")
    p_mc.add_argument("--reps", type=int, default=500)
    p_mc.add_argument("--k", type=int, default=10)

    p_d = sub.add_parser("diagnose", help="confidence-set shape diagnostics")
    add_common(p_d)
    add_data(p_d)

    return parser, sub.choices


def _read_config(path: str, command: str, subparsers: dict[str, argparse.ArgumentParser]) -> dict:
    """Set the defaults of `command`'s subparser from a `key = value` file.

    '#' starts a comment; a key is a flag name without its dashes, written
    with dashes or underscores.  Each value is converted with its flag's
    type and checked against its choices; `none` or an empty value is None
    where the default is None.  A malformed line, an unknown key, a key the
    command does not read and a bad value are ConfigErrors naming the file
    and line.  Returns {key: (line, value)} for the keys the file sets.
    """
    actions = {a.dest: a for a in subparsers[command]._actions}
    known = {a.dest for p in subparsers.values() for a in p._actions} - {"help", "config"}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    defaults = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in actions:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is not read by {command!r}")
        action = actions[key]
        if action.default is None and text.lower() in ("", "none"):
            value = None
        else:
            try:
                value = (action.type or str)(text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} is not one of"
                                  f" {', '.join(map(str, action.choices))}")
        defaults[key] = (lineno, value)
    subparsers[command].set_defaults(**{key: value for key, (_, value) in defaults.items()})
    return defaults


def validate(cfg: argparse.Namespace, actions) -> None:
    """The check every command makes first: no float flag is non-finite.

    Every other range rule is the owning type's or function's (the seed's is
    xicor.seed_sequence, where a command reads --seed), or _load_samples'
    for alpha and jitter.
    """
    for action in actions:
        value = getattr(cfg, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{action.dest.replace('_', '-')} must be finite, got {value}", (action.dest,))


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    origin = {}  # the `<file>:<line>` of each parameter whose value the config file set
    try:
        if args.config is not None:
            from_file = _read_config(args.config, args.command, subparsers)
            args = parser.parse_args(argv)
            # a value is the file's unless a flag on the command line set another
            origin = {
                key: f"{args.config}:{lineno}"
                for key, (lineno, value) in from_file.items()
                if getattr(args, key) is value or getattr(args, key) == value
            }
        validate(args, subparsers[args.command]._actions)
        return _COMMANDS[args.command](args)
    except (WelfareBoundsError, OSError, MemoryError) as exc:
        kind = next((k for k in (OSError, MemoryError) if isinstance(exc, k)), type(exc))
        # a ConfigError starts with the origin of the first of its parameters the file set
        where = next((origin[p] for p in getattr(exc, "params", ()) if p in origin), None)
        print(f"{kind.__name__}: {where}: {exc}" if where else f"{kind.__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _traced() -> bool:
    """A trace or profile function, or (Python 3.12+) a sys.monitoring tool, is set."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def run() -> None:
    """The process entry of the `welfarebounds` script and `python -m welfarebounds.cli`.

    sys.exit(main()), but the process ends at os._exit once the exit
    handlers have run, skipping the interpreter's teardown (a final garbage
    collection and the clearing of every module: some 20 ms with numpy
    loaded).  The files a command writes are closed by then; stdout and
    stderr are flushed first.  The handler is registered before the command
    starts, so it runs after every handler registered during the command
    and after Python has joined any non-daemon thread; handlers registered
    before it (site's, say) do not run.  The interpreter's own exit is kept
    while a tracer or profiler is set, since coverage saves its data in such
    a handler, and when a flush fails, so Python reports it as it would
    (exit 120).
    """
    code = None

    def end() -> None:
        if not isinstance(code, int) or _traced():
            return
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except Exception:
            return  # the interpreter's exit flushes again and reports the failure
        os._exit(code)

    atexit.register(end)
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    sys.exit(code)


if __name__ == "__main__":
    run()
