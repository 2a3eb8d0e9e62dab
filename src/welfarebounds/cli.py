"""Command-line surface: ingest CSVs, build intervals, bound welfare, run studies.

Commands: ci, welfare, simulate, mc, diagnose.  All randomness flows from a
single --seed flag (mandatory for simulate/mc).  Exit codes: 0 success,
2 config error, 3 data error, 4 numerical error or an allocation too large
for memory (one `MemoryError: <message>` line); empty confidence sets
produce EMPTY rows instead of failures, and a data or numerical error in one
good becomes that good's FAILED:<ErrorName> row while the other goods are
still written (the exit code is then that of the first failure).  Output
files are plain CSV with one leading '#' comment line naming units and
levels; given the same config and seed they are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, fields

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


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


@dataclass
class RunConfig:
    """Flat bag of run parameters; also read from `key = value` text files."""

    alpha: float = 0.05
    grid_nodes: int = 5000
    grid_lo: float = POSITIVITY_FLOOR
    grid_hi: float = DEFAULT_GRID_HI
    mode: str = "all"
    seed: int | None = None
    jitter: float = 0.0
    sum_to: float | None = None
    floor: float = POSITIVITY_FLOOR
    out: str = "out"
    data: str | None = None
    intervals: str | None = None
    query: str | None = None
    table: int = 1
    reps: int = 500
    k_goods: int = 10
    n_obs: int = 1000
    theta: str = "0.2,0.3,0.5"
    endogeneity: float | None = None
    ls_fit: str = "auto"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name.replace('_', '-')} must be finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.grid_nodes < 2:
            raise ConfigError(f"grid-nodes must be at least 2, got {self.grid_nodes}")
        if self.grid_lo < 0:
            raise ConfigError(f"grid-lo must be nonnegative, got {self.grid_lo}")
        if not self.grid_hi > self.grid_lo:
            raise ConfigError(
                f"grid-hi ({self.grid_hi}) must exceed grid-lo ({self.grid_lo})"
            )
        if self.mode not in ("xi", "ls", "intersect", "all"):
            raise ConfigError(f"mode must be xi, ls, intersect, or all, got {self.mode!r}")
        if self.jitter < 0:
            raise ConfigError(f"jitter must be nonnegative, got {self.jitter}")
        if self.floor <= 0:
            raise ConfigError(f"floor must be positive, got {self.floor}")
        if self.table not in (1, 2):
            raise ConfigError(f"table must be 1 or 2, got {self.table}")
        if self.reps < 1:
            raise ConfigError(f"reps must be at least 1, got {self.reps}")
        if self.k_goods < 1:
            raise ConfigError(f"k must be at least 1, got {self.k_goods}")
        if self.n_obs < 3:
            raise ConfigError(f"n must be at least 3, got {self.n_obs}")
        if self.ls_fit not in ("auto", "ols", "tsls"):
            raise ConfigError(f"ls must be auto, ols, or tsls, got {self.ls_fit!r}")

    @classmethod
    def from_file(cls, path: str, command: str | None = None, reads=()) -> "RunConfig":
        """A config from `key = value` lines ('#' comments, dashes or underscores).

        With `command`, a key outside `reads` (the keys that command reads)
        is a ConfigError, as an unknown or malformed key always is.
        """
        converters = {f.name: _converter(f.type) for f in fields(cls)}
        cfg = cls()
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in converters:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if command is not None and key not in reads:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is not read by {command!r}")
            try:
                setattr(cfg, key, converters[key](value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return cfg


def _converter(annotation: str):
    """Parser for a RunConfig field from its annotation string, e.g. 'float | None'."""
    base = annotation.removesuffix(" | None")
    conv = {"int": int, "float": float, "str": str}[base]
    if base == annotation:
        return conv
    return lambda text: None if text.lower() in ("", "none") else conv(text)


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers; '#' comment lines skipped.

    The file is UTF-8, with or without a leading byte-order mark; a byte
    that does not decode raises ParseError naming the file and row.
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
        parsed = next(csv.reader([raw]))
        out.append((lineno, [cell.strip() for cell in parsed]))
    return out


def _cell_float(cell: str, lineno: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"row {lineno}: column {col!r} value {cell!r} is not a number") from None


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
    appended to reject_log; a good left with fewer than 3 rows raises
    TooFewObservations.
    """
    names, idx, rows = _read_table(path, ("good_id", "price", "quantity"))
    has_z = "instrument" in names
    groups: dict[str, dict[str, list[float]]] = {}
    for lineno, cells in rows:
        gid = cells[idx["good_id"]]
        if not gid:
            raise ParseError(f"row {lineno}: empty good_id")
        price = _cell_float(cells[idx["price"]], lineno, "price")
        quantity = _cell_float(cells[idx["quantity"]], lineno, "quantity")
        if price <= 0 or quantity <= 0:
            if reject_log is not None:
                reject_log.append((lineno, "nonpositive price or quantity"))
            continue
        group = groups.setdefault(gid, {"price": [], "quantity": [], "instrument": []})
        group["price"].append(price)
        group["quantity"].append(quantity)
        if has_z:
            group["instrument"].append(
                _cell_float(cells[idx["instrument"]], lineno, "instrument")
            )
    samples = []
    for gid, cols in groups.items():
        if len(cols["price"]) < 3:
            raise TooFewObservations(
                f"good {gid!r}: only {len(cols['price'])} usable rows (need at least 3)"
            )
        samples.append(
            GoodSample(
                price=np.asarray(cols["price"]),
                quantity=np.asarray(cols["quantity"]),
                instrument=np.asarray(cols["instrument"]) if has_z else None,
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
    _, idx, rows = _read_table(path, ("good_id", "method", "lower", "upper", "level", "status"))
    out: dict[str, Interval] = {}
    for lineno, cells in rows:
        method = cells[idx["method"]]
        if mode is not None and method != mode:
            continue
        gid = cells[idx["good_id"]]
        if gid in out:
            raise ConfigError(
                f"{path}: several rows for good {gid!r}; pass --mode to pick one method"
            )
        level = _cell_float(cells[idx["level"]], lineno, "level")
        status = cells[idx["status"]]
        source = "FAILED" if status.startswith("FAILED:") else method.upper()
        try:
            if status == "EMPTY" or source == "FAILED":
                out[gid] = Interval.make_empty(level, source)
            else:
                lower = _cell_float(cells[idx["lower"]], lineno, "lower")
                upper = _cell_float(cells[idx["upper"]], lineno, "upper")
                out[gid] = Interval(lower, upper, level, source)
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    if not out:
        raise DataError(f"{path}: no interval rows matched mode {mode!r}")
    return out


def _query_value(path: str, cell: str, lineno: int, col: str, kind: str) -> float:
    """A delta (finite, >= 0) or ystar (finite, > 0) cell of a query file."""
    value = _cell_float(cell, lineno, col)
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
    data/intervals file; a repeated id raises InvalidQuery naming both rows.
    An empty id, a negative or non-finite delta, or a nonpositive or
    non-finite ystar raises InvalidQuery naming the file and row.
    """
    names, idx, rows = _read_table(path)
    K = len(good_ids)
    values: list[float] = []  # delta, ystar per good, good by good, row by row
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
        ids = list(per)
    else:
        if names[0] != "id" or len(names) != 1 + 2 * K:
            raise SchemaError(
                f"{path}: wide layout needs columns id plus {K} (delta, ystar) pairs"
            )
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
        ids = list(first_row)
    pairs = np.array(values).reshape(len(ids), K, 2)
    return ids, WelfareQuery(pairs[..., 0], pairs[..., 1])


def _write_csv(path: str, comment: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required for this command")
    return value


def _load_samples(cfg: RunConfig, flag: str = "--data") -> list[GoodSample]:
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


def _good_intervals(samples: list[GoodSample], cfg: RunConfig, modes):
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
    if needs_ls and cfg.ls_fit == "tsls" and any(s.instrument is None for s in samples):
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
                s.good_id, cs_combined, s, share, m, grid, s_seed, cfg.floor, cfg.ls_fit
            )
            code = code or failed_code
            iv, profile = result or (Interval.make_empty(1.0 - share, "FAILED"), None)
            status = status or ("EMPTY" if iv.empty else "OK")
            if profile is not None:
                profiles[s.good_id] = profile
            rows.append((s.good_id, m, iv, status))
    return rows, profiles, code


def cmd_ci(cfg: RunConfig) -> int:
    """Per-good intervals in the requested mode(s) plus grid-profile dumps."""
    cfg.validate()
    samples = _load_samples(cfg)
    modes = ("xi", "ls", "intersect") if cfg.mode == "all" else (cfg.mode,)
    rows, profiles, code = _good_intervals(samples, cfg, modes)
    out_path = f"{cfg.out}_intervals.csv"
    _write_csv(
        out_path,
        f"theta confidence intervals in nominal price units; joint alpha = {_fmt(cfg.alpha)};"
        " 'level' is the per-good confidence level",
        ["good_id", "method", "lower", "upper", "level", "status"],
        ([gid, m, iv.lower, iv.upper, iv.level, status] for gid, m, iv, status in rows),
    )
    print(f"wrote {out_path}")
    for gid, prof in profiles.items():
        prof_path = f"{cfg.out}_profile_{gid}.csv"
        _write_csv(
            prof_path,
            "normalized rank-dependence statistic by theta (nominal price units);"
            f" critical value = {_fmt(prof.critical)}",
            ["theta", "stat"],
            zip(prof.thetas, prof.stats),
        )
        print(f"wrote {prof_path}")
    return code


def _box_from_config(cfg: RunConfig) -> tuple[list[str], list[Interval], int]:
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


def cmd_welfare(cfg: RunConfig) -> int:
    """Per-individual welfare-loss bounds, sorted ascending by the upper bound."""
    cfg.validate()
    good_ids, box, code = _box_from_config(cfg)
    ids, query = read_query_csv(_require(cfg.query, "--query"), good_ids)
    constraints = ConstraintSet(tuple(box), sum_to=cfg.sum_to, positivity_floor=cfg.floor)
    if constraints.empty:
        status = "FAILED" if any(iv.source == "FAILED" for iv in box) else "EMPTY"
        results = [[ind, None, None, None, status] for ind in ids]
    else:
        wb = bounds_box(constraints, query)
        bounds = zip(wb.wl_min.tolist(), wb.wl_max.tolist())
        results = [[ind, lo, hi, wb.level, "OK"] for ind, (lo, hi) in zip(ids, bounds)]
    results.sort(key=lambda r: (r[4] != "OK", r[2] if r[2] is not None else 0.0))
    rows = [[rank + 1] + r for rank, r in enumerate(results)]
    out_path = f"{cfg.out}_welfare.csv"
    _write_csv(
        out_path,
        "welfare-loss bounds per individual in units of the numeraire;"
        " 'level' is the joint box level",
        ["rank", "id", "wl_min", "wl_max", "level", "status"],
        rows,
    )
    print(f"wrote {out_path}")
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


def cmd_simulate(cfg: RunConfig) -> int:
    """Write one synthetic draw as an ingestible CSV."""
    cfg.validate()
    seed = _require(cfg.seed, "--seed")
    config = DgpConfig(
        theta=_parse_theta(cfg.theta), n=cfg.n_obs, seed=seed, endogeneity=cfg.endogeneity
    )
    samples = draw_sample(config)
    rows = []
    for s in samples:
        for i in range(s.n):
            rows.append([s.good_id, s.price[i], s.quantity[i], s.instrument[i]])
    out_path = f"{cfg.out}_data.csv"
    _write_csv(
        out_path,
        "synthetic demand draws; price and instrument in nominal units",
        ["good_id", "price", "quantity", "instrument"],
        rows,
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    """Run a Monte Carlo study and write its report tables."""
    cfg.validate()
    seed = _require(cfg.seed, "--seed")
    if cfg.table == 1:
        report = mc_table1(cfg.reps, seed)
    else:
        report = mc_table2(cfg.k_goods, cfg.reps, seed)
    iv_path = f"{cfg.out}_mc_intervals.csv"
    _write_csv(
        iv_path,
        "average interval endpoints (theta, nominal price units) over"
        f" {report.reps} replications; joint alpha = {_fmt(MC_ALPHA)}",
        ["n", "good_id", "theta_true", "avg_lower", "avg_upper", "avg_length", "coverage", "n_empty"],
        [
            [r.n, r.good_id, r.theta_true, r.avg_lower, r.avg_upper, r.avg_length, r.coverage, r.n_empty]
            for r in report.intervals
        ],
    )
    wl_path = f"{cfg.out}_mc_welfare.csv"
    wl_rows = [[r.n, r.label, r.value] for r in report.welfare]
    wl_rows += [[n, "joint_coverage", v] for n, v in sorted(report.joint_coverage.items())]
    _write_csv(
        wl_path,
        f"welfare-loss figures in units of the numeraire; joint alpha = {_fmt(MC_ALPHA)};"
        f" true loss = {_fmt(report.true_welfare_loss)}",
        ["n", "label", "value"],
        wl_rows,
    )
    print(f"wrote {iv_path}")
    print(f"wrote {wl_path}")
    print(report.interval_table())
    print(report.welfare_table())
    for stage, seconds in report.timings.items():
        print(f"timing {stage}: {seconds:.2f}s")
    for what, count in report.skipped.items():
        print(f"skipped {what}: {count}")
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig) -> int:
    """Classify each good's confidence-set shape from its endpoint statistics.

    A FAILED:<ErrorName> row still carries the critical value (alpha alone sets it).
    """
    cfg.validate()
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
    out_path = f"{cfg.out}_diagnostics.csv"
    _write_csv(
        out_path,
        f"confidence-set shape diagnostics at alpha = {_fmt(cfg.alpha)};"
        " stats are sqrt(n) * xi (dimensionless)",
        ["good_id", "stat_at_zero", "stat_at_inf", "critical", "case_id"],
        rows,
    )
    print(f"wrote {out_path}")
    return code


_COMMANDS = {
    "ci": cmd_ci,
    "welfare": cmd_welfare,
    "simulate": cmd_simulate,
    "mc": cmd_mc,
    "diagnose": cmd_diagnose,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name."""
    parser = argparse.ArgumentParser(
        prog="welfarebounds",
        description="Confidence bounds on individual-level welfare loss from demand data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    def add_common(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=S)
        p.add_argument("--out", default=S, help="output path stem")

    def add_grid(p):
        p.add_argument("--grid-nodes", type=int, default=S, dest="grid_nodes")
        p.add_argument("--grid-lo", type=float, default=S, dest="grid_lo")
        p.add_argument("--grid-hi", type=float, default=S, dest="grid_hi")
        p.add_argument("--floor", type=float, default=S)

    p_ci = sub.add_parser("ci", help="per-good confidence intervals")
    add_common(p_ci)
    add_grid(p_ci)
    p_ci.add_argument("--alpha", type=float, default=S, help="joint error level")
    p_ci.add_argument("--data", default=S, help="input CSV (good_id,price,quantity[,instrument])")
    p_ci.add_argument("--mode", choices=["xi", "ls", "intersect", "all"], default=S)
    p_ci.add_argument("--jitter", type=float, default=S, help="instrument smoothing half-width")
    p_ci.add_argument("--ls", choices=["auto", "ols", "tsls"], default=S, dest="ls_fit")

    p_w = sub.add_parser("welfare", help="per-individual welfare-loss bounds")
    add_common(p_w)
    add_grid(p_w)
    p_w.add_argument("--alpha", type=float, default=S,
                     help="joint error level with --data; --intervals takes the file's levels")
    p_w.add_argument("--data", default=S)
    p_w.add_argument("--intervals", default=S, help="intervals CSV written by `ci`")
    p_w.add_argument("--query", default=S, help="per-individual (delta, ystar) CSV")
    p_w.add_argument("--mode", choices=["xi", "ls", "intersect", "all"], default=S)
    p_w.add_argument("--jitter", type=float, default=S)
    p_w.add_argument("--sum-to", type=float, default=S, dest="sum_to")
    p_w.add_argument("--ls", choices=["auto", "ols", "tsls"], default=S, dest="ls_fit")

    p_s = sub.add_parser("simulate", help="write a synthetic demand CSV")
    add_common(p_s)
    p_s.add_argument("--theta", default=S, help="comma-separated true theta values")
    p_s.add_argument("--n", type=int, default=S, dest="n_obs")
    p_s.add_argument("--endogeneity", type=float, default=S)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo study")
    add_common(p_mc)
    p_mc.add_argument("--table", type=int, choices=[1, 2], default=S,
                      help="1 = three-good study, 2 = many-goods study (needs --k)")
    p_mc.add_argument("--reps", type=int, default=S)
    p_mc.add_argument("--k", type=int, default=S, dest="k_goods")

    p_d = sub.add_parser("diagnose", help="confidence-set shape diagnostics")
    add_common(p_d)
    p_d.add_argument("--alpha", type=float, default=S)
    p_d.add_argument("--data", default=S)
    p_d.add_argument("--jitter", type=float, default=S)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the keys a command reads are the dests of its subparser
            reads = {a.dest for a in subparsers[args.command]._actions}
            cfg = RunConfig.from_file(args.config, args.command, reads)
        else:
            cfg = RunConfig()
        for key, value in vars(args).items():
            if key in ("command", "config"):
                continue
            setattr(cfg, key, value)
        return _COMMANDS[args.command](cfg)
    except (WelfareBoundsError, OSError, MemoryError) as exc:
        kind = next((k for k in (OSError, MemoryError) if isinstance(exc, k)), type(exc))
        print(f"{kind.__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
