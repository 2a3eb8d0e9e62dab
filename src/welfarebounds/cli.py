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
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from .confset import (
    DEFAULT_GRID_HI,
    GridSpec,
    bonferroni_share,
    child_seed,
    cs_combined,
    shape_diagnostic,
    smooth_instrument,
)
from .errors import (
    ConfigError,
    DataError,
    InvalidQuery,
    NumericalError,
    ParseError,
    SchemaError,
    TooFewObservations,
    WelfareBoundsError,
)
from .regress import GoodSample, Interval
from .simulate import MC_ALPHA, DgpConfig, draw_sample, mc_table1, mc_table2
from .welfare import POSITIVITY_FLOOR, ConstraintSet, WelfareQuery, bounds_box
from .xicor import critical_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Spawn-path purpose codes for CLI-derived seeds (disjoint from simulate's).
_SEED_CS = 9
_SEED_JITTER = 8
_SEED_DIAG = 7

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

    def rows(self):
        """(line, cells) of each data row, in file order."""
        w = len(self.names)
        return ((line, self.cells[i * w : i * w + w]) for i, line in enumerate(self.lines))


def _records(raws) -> list:
    """Each raw line (with its line break) parsed by the csv module as one record."""
    try:
        records = list(csv.reader(raws))
    except csv.Error:
        records = []
    if len(records) != len(raws):
        # A quoted cell ran past its line's end (or the run raised): each
        # line is a record of its own, ended where the line ends.
        records = [next(csv.reader([raw])) for raw in raws]
    return records


def _read_table(path: str, required=()) -> _Table:
    """The file's header names and data cells, read in one pass.

    The file is UTF-8, with or without a leading byte-order mark; a byte
    that does not decode raises ParseError naming the file and row.  Lines
    end at \\n, \\r\\n or \\r; blank lines and '#' comment lines are skipped,
    and each other line is one CSV record whose cells are stripped.  A
    missing required column raises SchemaError, and a data row without one
    cell per header name ParseError.
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
        records = _records(raws)
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


def _cell_float(path: str, cell: str, lineno: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"{path}: row {lineno}: column {col!r} value {cell!r} is not a number") from None


def _floats(cells) -> np.ndarray:
    """float() of every cell (Python's syntax); ValueError if one is no number."""
    return np.fromiter(map(float, cells), dtype=float)


def _check_columns(path: str, names: list[str], required) -> None:
    for col in required:
        if col not in names:
            raise SchemaError(f"{path}: missing required column {col!r}")


def _first_row_error(table: _Table, check_row, exc: Exception):
    """Raise what check_row(line, cells) raises at the first row it rejects, in file order.

    The readers convert and check whole columns; when that fails with exc,
    this finds the row and its message.  Re-raises exc if no row fails.
    """
    for lineno, cells in table.rows():
        check_row(lineno, cells)
    raise exc


def ingest_csv(path: str, reject_log: list | None = None) -> list[GoodSample]:
    """Group data rows by good_id into GoodSamples, preserving file order.

    Required columns: good_id, price, quantity; optional: instrument.  Rows
    with nonpositive price or quantity are rejected and their line numbers
    appended to reject_log; a good left with fewer than 3 rows raises
    TooFewObservations.
    """
    table = _read_table(path, ("good_id", "price", "quantity"))
    names = table.names
    has_z = "instrument" in names
    gids = table.column("good_id")
    try:
        if "" in gids:
            raise ValueError("empty good_id")
        price = _floats(table.column("price"))
        quantity = _floats(table.column("quantity"))
        reject = (price <= 0) | (quantity <= 0)
        kept = np.flatnonzero(~reject).tolist()
        # a rejected row's instrument is not read
        z = _floats(map(table.column("instrument").__getitem__, kept)) if has_z else None
    except ValueError as exc:

        def check_row(lineno, cells):
            if not cells[names.index("good_id")]:
                raise ParseError(f"{path}: row {lineno}: empty good_id")
            p = _cell_float(path, cells[names.index("price")], lineno, "price")
            q = _cell_float(path, cells[names.index("quantity")], lineno, "quantity")
            if has_z and not (p <= 0 or q <= 0):
                _cell_float(path, cells[names.index("instrument")], lineno, "instrument")

        _first_row_error(table, check_row, exc)
    if reject_log is not None:
        reject_log += [(table.lines[i], "nonpositive price or quantity") for i in np.flatnonzero(reject).tolist()]
    price, quantity = price[kept], quantity[kept]
    # goods in order of first appearance among the kept rows
    kept_gids = list(map(gids.__getitem__, kept))
    code = {gid: i for i, gid in enumerate(dict.fromkeys(kept_gids))}
    codes = np.fromiter(map(code.__getitem__, kept_gids), dtype=np.intp, count=len(kept))
    by_good = np.argsort(codes, kind="stable")
    samples = []
    stop = 0
    for gid, count in zip(code, np.bincount(codes, minlength=len(code)).tolist()):
        if count < 3:
            raise TooFewObservations(f"good {gid!r}: only {count} usable rows (need at least 3)")
        rows, stop = by_good[stop : stop + count], stop + count
        samples.append(
            GoodSample(
                price=price[rows],
                quantity=quantity[rows],
                instrument=z[rows] if has_z else None,
                good_id=gid,
            )
        )
    if not samples:
        raise TooFewObservations(f"{path}: no usable data rows")
    return samples


def read_intervals_csv(path: str, mode: str | None) -> dict[str, Interval]:
    """Per-good intervals from a cmd_ci output file, optionally one method only.

    EMPTY rows become empty intervals; FAILED:<ErrorName> rows become empty
    intervals tagged with source FAILED.  A row that is no valid Interval
    (lower above upper, a non-finite endpoint, a level outside [0, 1]) raises
    ParseError naming the file and row.
    """
    table = _read_table(path, ("good_id", "method", "lower", "upper", "level", "status"))
    idx = {name: table.names.index(name) for name in table.names}
    out: dict[str, Interval] = {}
    for lineno, cells in table.rows():
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
        source = "FAILED" if status.startswith("FAILED:") else method.upper()
        try:
            if status == "EMPTY" or source == "FAILED":
                out[gid] = Interval.make_empty(level, source)
            else:
                lower = _cell_float(path, cells[idx["lower"]], lineno, "lower")
                upper = _cell_float(path, cells[idx["upper"]], lineno, "upper")
                out[gid] = Interval(lower, upper, level, source)
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    if not out:
        raise DataError(f"{path}: no interval rows matched mode {mode!r}")
    return out


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


def _query_values(delta_cells, ystar_cells) -> tuple[np.ndarray, np.ndarray]:
    """The delta and ystar columns as floats; ValueError unless each is valid (see _query_value)."""
    delta, ystar = _floats(delta_cells), _floats(ystar_cells)
    if not (np.isfinite(delta).all() and (delta >= 0).all() and np.isfinite(ystar).all() and (ystar > 0).all()):
        raise ValueError("a delta or ystar value is out of range")
    return delta, ystar


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
    table = _read_table(path)
    names, K = table.names, len(good_ids)

    def check_id(ind, lineno):
        if not ind:
            raise InvalidQuery(f"{path}: row {lineno}: empty individual id")

    if "good_id" in names:
        _check_columns(path, names, ("id", "delta", "ystar"))
        inds, gids = table.column("id"), table.column("good_id")
        good = {g: k for k, g in enumerate(good_ids)}
        # individuals in order of first appearance
        who = {ind: i for i, ind in enumerate(dict.fromkeys(inds))}
        try:
            if "" in inds:
                raise ValueError("empty individual id")
            slot = np.fromiter(map(who.__getitem__, inds), dtype=np.intp, count=len(inds)) * K
            slot += np.fromiter(map(good.__getitem__, gids), dtype=np.intp, count=len(gids))
            filled = np.bincount(slot, minlength=len(who) * K)
            if filled.max(initial=0) > 1:
                raise ValueError("a repeated (individual, good) pair")
            delta, ystar = _query_values(table.column("delta"), table.column("ystar"))
        except (KeyError, ValueError) as exc:
            seen: dict[tuple[str, str], int] = {}
            at = {name: names.index(name) for name in ("id", "good_id", "delta", "ystar")}

            def check_row(lineno, cells):
                ind, gid = cells[at["id"]], cells[at["good_id"]]
                check_id(ind, lineno)
                if gid not in good:
                    raise InvalidQuery(f"{path}: row {lineno}: unknown good_id {gid!r}")
                if (ind, gid) in seen:
                    raise InvalidQuery(
                        f"{path}: rows {seen[ind, gid]} and {lineno}: individual {ind!r}"
                        f" lists good {gid!r} twice"
                    )
                seen[ind, gid] = lineno
                for kind in ("delta", "ystar"):
                    _query_value(path, cells[at[kind]], lineno, kind, kind)

            _first_row_error(table, check_row, exc)
        ids = list(who)
        lacking = filled.reshape(len(ids), K) == 0
        if lacking.any():
            i = int(np.flatnonzero(lacking.any(axis=1))[0])
            missing = [good_ids[k] for k in np.flatnonzero(lacking[i])]
            raise InvalidQuery(f"{path}: individual {ids[i]!r}: missing goods {missing}")
        pairs = np.empty((slot.size, 2))
        pairs[slot, 0], pairs[slot, 1] = delta, ystar
        lines = np.empty(slot.size, dtype=np.intp)
        lines[slot] = table.lines
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
        ids = table.cells[:: len(names)]
        values = table.cells.copy()
        del values[:: len(names)]
        try:
            if "" in ids or len(set(ids)) != len(ids):
                raise ValueError("an empty or repeated individual id")
            delta, ystar = _query_values(values[::2], values[1::2])
        except ValueError as exc:
            first_row: dict[str, int] = {}

            def check_row(lineno, cells):
                ind = cells[0]
                check_id(ind, lineno)
                if ind in first_row:
                    raise InvalidQuery(
                        f"{path}: rows {first_row[ind]} and {lineno}: individual {ind!r}"
                        " is listed twice"
                    )
                first_row[ind] = lineno
                for j, cell in enumerate(cells[1:]):
                    _query_value(path, cell, lineno, names[j + 1], ("delta", "ystar")[j % 2])

            _first_row_error(table, check_row, exc)
        pairs = np.stack([delta, ystar], axis=1)
        lines = np.repeat(table.lines, K)
    pairs = pairs.reshape(len(ids), K, 2)
    with np.errstate(over="ignore"):
        overflows = np.flatnonzero(~np.isfinite(pairs[..., 0] * pairs[..., 1]))
    if overflows.size:
        first = int(overflows[0])
        raise InvalidQuery(f"{path}: row {lines[first]}: delta times ystar for good"
                           f" {good_ids[first % K]!r} overflows; it must be finite")
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
    """Ingest the data file, smooth instruments if --jitter, report rejected rows."""
    reject_log: list = []
    samples = ingest_csv(_require(cfg.data, flag), reject_log)
    if cfg.jitter > 0:
        if cfg.seed is None:
            raise ConfigError("--jitter requires --seed for reproducible noise")
        if any(s.instrument is None for s in samples):
            raise ConfigError("--jitter requires an instrument column")
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


def _isolated(good_id: str, compute, *args):
    """compute(*args) for one good; a data or numerical error fails that good alone.

    Returns (result, EXIT_OK, None), or (None, the error's exit code,
    "FAILED:<ErrorName>") after one stderr line naming the good once.
    """
    try:
        return compute(*args), EXIT_OK, None
    except (DataError, NumericalError) as exc:
        name, message = type(exc).__name__, str(exc)
        if not message.startswith(f"{good_id}: "):
            message = f"{good_id}: {message}"
        print(f"{name}: {message}", file=sys.stderr)
        return None, _exit_code(exc), f"FAILED:{name}"


def _good_intervals(samples: list[GoodSample], cfg: argparse.Namespace, modes):
    """Each good's interval in each mode, at the Bonferroni share alpha/K.

    Returns (rows, profiles, code).  rows are (good_id, mode, interval,
    status) in file order; status is OK, EMPTY, or FAILED:<ErrorName> when a
    data or numerical error hit that (good, mode) (see _isolated), whose
    interval is empty with source FAILED.  profiles maps a good id to its
    xi-mode grid profile.  code is the exit code of the first failure, or
    EXIT_OK.  A mode that fits least squares with --ls tsls
    needs an instrument for every good, else SchemaError before any work.
    """
    needs_ls = any(m != "xi" for m in modes)
    if needs_ls and cfg.ls == "tsls" and any(s.instrument is None for s in samples):
        raise SchemaError("column 'instrument' is required for TSLS")
    share = bonferroni_share(cfg.alpha, len(samples))
    seed = cfg.seed if cfg.seed is not None else 0
    grid = GridSpec(cfg.grid_lo, cfg.grid_hi, cfg.grid_nodes)
    rows = []
    profiles: dict = {}
    code = EXIT_OK
    for i, s in enumerate(samples):
        s_seed = child_seed(seed, _SEED_CS, i)
        for m in modes:
            result, failed_code, status = _isolated(
                s.good_id, cs_combined, s, share, m, grid, s_seed, cfg.ls
            )
            code = code or failed_code
            iv, profile = result or (Interval.make_empty(1.0 - share, "FAILED"), None)
            status = status or ("EMPTY" if iv.empty else "OK")
            if profile is not None:
                profiles[s.good_id] = profile
            rows.append((s.good_id, m, iv, status))
    return rows, profiles, code


def cmd_ci(cfg: argparse.Namespace) -> int:
    """Per-good intervals in the requested mode(s) plus grid-profile dumps."""
    samples = _load_samples(cfg)
    modes = ("xi", "ls", "intersect") if cfg.mode == "all" else (cfg.mode,)
    rows, profiles, code = _good_intervals(samples, cfg, modes)
    _write_csv(
        f"{cfg.out}_intervals.csv",
        f"theta confidence intervals in nominal price units; joint alpha = {_fmt(cfg.alpha)};"
        " 'level' is the per-good confidence level",
        ["good_id", "method", "lower", "upper", "level", "status"],
        zip(*([gid, m, iv.lower, iv.upper, iv.level, status] for gid, m, iv, status in rows)),
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


def _box_from_config(cfg: argparse.Namespace) -> tuple[list[str], list[Interval], int]:
    """Good ids, the box, and the exit code of the first per-good failure."""
    if cfg.intervals is not None:
        mode = None if cfg.mode == "all" else cfg.mode
        box_map = read_intervals_csv(cfg.intervals, mode)
        return list(box_map.keys()), list(box_map.values()), EXIT_OK
    samples = _load_samples(cfg, "--data or --intervals")
    if cfg.mode == "all":
        raise ConfigError("pick one --mode (xi, ls, or intersect) when computing from raw data")
    rows, _, code = _good_intervals(samples, cfg, (cfg.mode,))
    return [gid for gid, _, _, _ in rows], [iv for _, _, iv, _ in rows], code


def cmd_welfare(cfg: argparse.Namespace) -> int:
    """Per-individual welfare-loss bounds, sorted ascending by the upper bound."""
    good_ids, box, code = _box_from_config(cfg)
    ids, query = read_query_csv(_require(cfg.query, "--query"), good_ids)
    constraints = ConstraintSet(box, sum_to=cfg.sum_to)
    n = len(ids)
    if constraints.empty:
        status = "FAILED" if any(iv.source == "FAILED" for iv in box) else "EMPTY"
        order, wl_min, wl_max, level = range(n), np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    else:
        wb = bounds_box(constraints, query)
        status = "OK"
        # ascending by the upper bound; a stable sort keeps ties in file order
        order = sorted(range(n), key=wb.wl_max.tolist().__getitem__)
        wl_min, wl_max, level = wb.wl_min[order], wb.wl_max[order], np.full(n, wb.level)
    _write_csv(
        f"{cfg.out}_welfare.csv",
        "welfare-loss bounds per individual in units of the numeraire;"
        " 'level' is the joint box level",
        ["rank", "id", "wl_min", "wl_max", "level", "status"],
        [range(1, n + 1), [ids[i] for i in order], wl_min, wl_max, level, [status] * n],
    )
    return code


def _parse_theta(text: str) -> np.ndarray:
    try:
        theta = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"bad --theta list {text!r}: {exc}") from exc
    if theta.size == 0:
        raise ConfigError("--theta must list at least one value")
    if not np.all((theta > 0) & (theta <= 1)):
        raise ConfigError(f"--theta entries must lie in (0, 1], got {text!r}")
    return theta


def cmd_simulate(cfg: argparse.Namespace) -> int:
    """Write one synthetic draw as an ingestible CSV."""
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
        + [np.concatenate([getattr(s, col) for s in samples]) for col in ("price", "quantity", "instrument")],
    )
    return EXIT_OK


def cmd_mc(cfg: argparse.Namespace) -> int:
    """Run a Monte Carlo study and write its report tables."""
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
    samples = _load_samples(cfg)
    seed = cfg.seed if cfg.seed is not None else 0
    critical = critical_value(cfg.alpha)
    rows = []
    code = EXIT_OK
    for i, s in enumerate(samples):
        diag, failed_code, status = _isolated(
            s.good_id, shape_diagnostic, s, cfg.alpha, child_seed(seed, _SEED_DIAG, i)
        )
        code = code or failed_code
        if diag is None:
            rows.append([s.good_id, None, None, critical, status])
        else:
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
        p.add_argument("--ls", choices=["auto", "ols", "tsls"], default="auto")

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
        try:
            if action.default is None and text.lower() in ("", "none"):
                value = None
            else:
                value = (action.type or str)(text)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"{value!r} is not one of {', '.join(map(str, action.choices))}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        defaults[key] = (lineno, value)
    subparsers[command].set_defaults(**{key: value for key, (_, value) in defaults.items()})
    return defaults


def validate(cfg: argparse.Namespace, actions, origin: dict) -> None:
    """The range checks argparse does not make, on the parameters the command has.

    origin maps a parameter whose value a config file set to its
    `<file>:<line>`, which then starts the error's message.
    """

    def fail(message: str, *dests: str):
        where = next((origin[d] for d in dests if d in origin), None)
        raise ConfigError(f"{where}: {message}" if where else message)

    for action in actions:
        value = getattr(cfg, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            fail(f"{action.dest.replace('_', '-')} must be finite, got {value}", action.dest)
    if "alpha" in cfg and not 0.0 < cfg.alpha < 1.0:
        fail(f"alpha must lie strictly in (0, 1), got {cfg.alpha}", "alpha")
    if cfg.seed is not None and cfg.seed < 0:
        fail(f"seed must be nonnegative, got {cfg.seed}", "seed")
    if "grid_nodes" in cfg:
        if cfg.grid_nodes < 2:
            fail(f"grid-nodes must be at least 2, got {cfg.grid_nodes}", "grid_nodes")
        if cfg.grid_lo < 0:
            fail(f"grid-lo must be nonnegative, got {cfg.grid_lo}", "grid_lo")
        if not cfg.grid_hi > cfg.grid_lo:
            fail(f"grid-hi ({cfg.grid_hi}) must exceed grid-lo ({cfg.grid_lo})", "grid_hi", "grid_lo")
    if "jitter" in cfg and cfg.jitter < 0:
        fail(f"jitter must be nonnegative, got {cfg.jitter}", "jitter")
    if "reps" in cfg:
        if cfg.reps < 1:
            fail(f"reps must be at least 1, got {cfg.reps}", "reps")
        if cfg.k < 1:
            fail(f"k must be at least 1, got {cfg.k}", "k")
    if "n" in cfg and cfg.n < 3:
        fail(f"n must be at least 3, got {cfg.n}", "n")


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        origin = {}
        if args.config is not None:
            from_file = _read_config(args.config, args.command, subparsers)
            args = parser.parse_args(argv)
            # a value is the file's unless a flag on the command line set another
            origin = {
                key: f"{args.config}:{lineno}"
                for key, (lineno, value) in from_file.items()
                if getattr(args, key) is value or getattr(args, key) == value
            }
        validate(args, subparsers[args.command]._actions, origin)
        return _COMMANDS[args.command](args)
    except (WelfareBoundsError, OSError, MemoryError) as exc:
        kind = next((k for k in (OSError, MemoryError) if isinstance(exc, k)), type(exc))
        print(f"{kind.__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
