"""The column readers of welfarebounds.cli against the per-row readers they replaced.

reference_readers.py holds the per-row readers verbatim.  On generated data,
query (long and wide) and intervals files, with the quirks real files have,
both must return the same values or raise the same exception with the same
message.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_readers as ref
from welfarebounds import cli

# Cells every numeric column accepts, padded, quoted or written oddly.
VALID = ["1", "2.5", "0.75", "3", "10", "0.5", "7e-1", "1.5e3", " 4 ", "\t7\t", "1_0", '"2"']
# Cells that parse to values a reader rejects, that do not parse, that hold
# quotes the csv module reads differently from a plain split, or a NUL.
ODD = [" nan", "inf", "-inf", "1e400", "1e200", "1e-320", "-1", "0", "-0", "abc", "", "2",
       '"1,5"', '"x""y"', 'a"b', '"3', "1\x00", "h1", "a", "EMPTY", "FAILED:ParseError"]
GOODS = ["a", "b", '"a,b"', " b "]
PEOPLE = ["h1", "h2", '"h,3"', " h4 "]
SKIPPED = ["", "   ", "# a note", "  # x,y", "#", "\t"]


def _header(names: list):
    """names in some order, case and padding; now and then the first is missing."""
    styled = st.permutations(names).flatmap(
        lambda order: st.lists(st.sampled_from(["", "upper", "pad"]), min_size=len(order), max_size=len(order)).map(
            lambda styles: [n.upper() if s == "upper" else f" {n} " if s == "pad" else n for n, s in zip(order, styles)]
        )
    )
    return styled.flatmap(lambda names: st.sampled_from([names] * 5 + [names[1:]]))


@st.composite
def csv_file(draw, header: list, records: list) -> bytes:
    """`header` and one row per record (a dict keyed by column name), spoiled now and then.

    A row may get an odd cell, lose or gain a cell, or appear twice; blank
    and comment lines fall anywhere; lines end in \\n, \\r\\n or \\r; there
    may be a byte-order mark, no final line break, or a byte that is not
    UTF-8.
    """
    rows = [header]
    for record in records:
        row = [record.get(name.strip().lower(), "1") for name in header]
        spoil = draw(st.sampled_from(["none"] * 16 + ["odd", "short", "long", "twice"]))
        if spoil == "odd" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD))
        rows += [row[:-1] if spoil == "short" else row + ["1"] if spoil == "long" else row]
        rows += [row] if spoil == "twice" else []
    lines = []
    for row in rows:
        while draw(st.integers(0, 7)) == 7:
            lines.append(draw(st.sampled_from(SKIPPED)))
        lines.append(",".join(row))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 15)) == 15:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(read, path, *args):
    try:
        return "ok", read(path, *args)
    except Exception as exc:  # the reference's exception, whatever it is, is the contract
        return type(exc).__name__, str(exc)


def _write(tmp_path_factory, data: bytes) -> str:
    path = tmp_path_factory.mktemp("readers") / "in.csv"
    path.write_bytes(data)
    return str(path)


@st.composite
def data_file(draw) -> bytes:
    """Two to four rows for each of one to three goods, in any order."""
    records = [
        {"good_id": g, **{col: draw(st.sampled_from(VALID)) for col in ("price", "quantity", "instrument")}}
        for g in draw(st.lists(st.sampled_from(GOODS), min_size=1, max_size=3, unique=True))
        for _ in range(draw(st.integers(2, 4)))
    ]
    names = draw(st.sampled_from([["good_id", "price", "quantity", "instrument"], ["good_id", "price", "quantity"]]))
    return draw(csv_file(draw(_header(names)), draw(st.permutations(records))))


@settings(max_examples=150, deadline=None)
@given(data=data_file())
@example(data=b"good_id,price,quantity\na,1,2\na,2,1\na,3,1\nb,-1,2\n")
@example(data=b'good_id,price,quantity\n"a,b",1,2\r\n"a,b",2,"1\r\n"a,b",3,1\n')
@example(data=b"good_id,price,quantity,instrument\na,1,2,1\na,0,1,y\na,3,1,1\na,2,2,2\n")
@example(data=b"good_id,price,quantity,instrument\na,1,2,x\na,0,1,y\na,3,1,1\n")
@example(data=b"good_id,price,quantity\na,1,x\na,y,1\n")
@example(data=b"good_id,price,quantity,instrument\na,1,2,1\na,nan,1,2\na,3,1,inf\na,2,2,2\n")
@example(data=b"good_id,price,quantity,instrument\na,1,2,1\na,2,1,inf\na,3,1,2\na,nan,2,2\n")
def test_ingest_matches_the_per_row_reader(tmp_path_factory, data):
    path = _write(tmp_path_factory, data)
    got_log, ref_log = [], []
    got, want = _outcome(cli.ingest_csv, path, got_log), _outcome(ref.ingest_csv, path, ref_log)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    assert got_log == ref_log
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert a.good_id == b.good_id
        for field in ("price", "quantity", "instrument"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y)


def _same_query(got, want):
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    (ids, q), (ref_ids, ref_q) = got[1], want[1]
    assert ids == ref_ids
    for x, y in ((q.delta, ref_q.delta), (q.y_star, ref_q.y_star)):
        assert x.shape == y.shape and np.array_equal(x, y)


GOOD_ORDERS = st.sampled_from([["a", "b"], ["b", "a"], ["a"], ["a,b", "b"]])


@st.composite
def long_query(draw, good_ids) -> bytes:
    """One row per (individual, good) for up to three individuals, in any order."""
    people = draw(st.lists(st.sampled_from(PEOPLE), max_size=3, unique=True))
    records = [
        {"id": ind, "good_id": f'"{g}"' if "," in g else g,
         "delta": draw(st.sampled_from(VALID + ["0"])), "ystar": draw(st.sampled_from(VALID))}
        for ind in people
        for g in good_ids
    ]
    header = draw(_header(["id", "good_id", "delta", "ystar"]))
    return draw(csv_file(header, draw(st.permutations(records))))


@settings(max_examples=150, deadline=None)
@given(case=GOOD_ORDERS.flatmap(lambda good_ids: st.tuples(st.just(good_ids), long_query(good_ids))))
@example(case=(["a", "b"], b"id,good_id,delta,ystar\nh1,a,1,2\nh1,b,1,2\nh2,b,1,2\nh2,a,1e200,1e200\n"))
@example(case=(["a", "b"], b"id,good_id,delta,ystar\nh1,a,1,2\nh2,a,1,2\nh1,a,3,2\nh2,b,1,2\n"))
@example(case=(["a", "b"], b"id,good_id,delta,ystar\nh1,a,1,2\nh2,b,1,2\nh1,b,1,2\n"))
@example(case=(["a", "b"], b"id,good_id,delta,ystar\nh1,a,1,2\nh1,c,1,2\n"))
@example(case=(["a", "b"], b"id,good_id,delta,ystar\nh1,a,1,2\nh1,a,-1,2\nh2,c,1,2\n"))
def test_long_query_matches_the_per_row_reader(tmp_path_factory, case):
    good_ids, data = case
    path = _write(tmp_path_factory, data)
    _same_query(_outcome(cli.read_query_csv, path, good_ids), _outcome(ref.read_query_csv, path, good_ids))


@st.composite
def wide_query(draw, good_ids) -> bytes:
    """One row per individual, the columns in the good order or not."""
    names = ["id"] + [f"{kind}_{g}" for g in good_ids for kind in ("delta", "ystar")]
    header = draw(st.sampled_from([names] * 4 + [names[:1] + names[1:][::-1], [n.upper() for n in names], names[:-1]]))
    records = [
        {"id": ind, **{name: draw(st.sampled_from(VALID)) for name in names[1:]}}
        for ind in draw(st.lists(st.sampled_from(PEOPLE), max_size=3, unique=True))
    ]
    return draw(csv_file([f'"{n}"' if "," in n else n for n in header], records))


@settings(max_examples=150, deadline=None)
@given(case=GOOD_ORDERS.flatmap(lambda good_ids: st.tuples(st.just(good_ids), wide_query(good_ids))))
@example(case=(["a"], b"id,delta_a,ystar_a\nh1,1,2\nh2,1e200,1e300\n"))
@example(case=(["a"], b"id,delta_a,ystar_a\nh1,1,2\nh1,1,2\n"))
@example(case=(["a"], b"id,delta_a,ystar_a\nh1,1,x\nh2,-1,2\n"))
def test_wide_query_matches_the_per_row_reader(tmp_path_factory, case):
    good_ids, data = case
    path = _write(tmp_path_factory, data)
    _same_query(_outcome(cli.read_query_csv, path, good_ids), _outcome(ref.read_query_csv, path, good_ids))


@st.composite
def intervals_file(draw) -> bytes:
    """Rows for one to three goods, in one or several methods."""
    methods = draw(st.sampled_from([["xi"], ["ls"], ["xi", "ls", "intersect"]]))
    records = [
        {"good_id": g, "method": m, "lower": draw(st.sampled_from(["0.1", "0.2", " 0.3"])),
         "upper": draw(st.sampled_from(["0.4", "0.5", '"0.6"'])), "level": draw(st.sampled_from(["0.95", "0.9", "1"])),
         "status": draw(st.sampled_from(["OK"] * 4 + ["EMPTY", "FAILED:DataError"]))}
        for g in draw(st.lists(st.sampled_from(GOODS), min_size=1, max_size=3, unique=True))
        for m in methods
    ]
    header = draw(_header(["good_id", "method", "lower", "upper", "level", "status"]))
    return draw(csv_file(header, draw(st.permutations(records))))


@settings(max_examples=100, deadline=None)
@given(data=intervals_file(), mode=st.sampled_from([None, None, "xi", "ls"]))
@example(data=b"good_id,method,lower,upper,level,status\na,xi,0.2,0.4,0.95,OK\nb,ls,0.4,0.2,0.9,OK\n", mode=None)
def test_intervals_match_the_per_row_reader(tmp_path_factory, data, mode):
    path = _write(tmp_path_factory, data)
    got, want = _outcome(cli.read_intervals_csv, path, mode), _outcome(ref.read_intervals_csv, path, mode)
    assert (got[0], repr(got[1])) == (want[0], repr(want[1]))
