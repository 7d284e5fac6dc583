"""Randomized checks of the maintained index structures.

The index server's Type I absent-pk sets, the Type II pk -> key maps and
the providers' NULL sets and share columns are kept up to date on every
write instead of being derived per call. Each is checked here against
the definition it replaces, computed by brute force from the primary
data (bitmaps, sorted entries) or, for the providers, from the plaintext
rows shared afresh, after random insert/update/remove sequences, a
save/load round trip, a recovery and a tamper; query answers are checked
against the plaintext evaluator.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import Column, Schema, Warehouse
from fvss.errors import EmptyInput, UnknownRecordPosition
from fvss.index import TypeOneIndex, TypeTwoIndex
from fvss.query import execute, parse
from fvss.sharing import encode_chunks, group_from_bitmap, share_value, typed_key

from .oracles import PlainWarehouse, type1_set

OPS = ("=", "!=", "<>", "<", "<=", ">", ">=", "between", "in")


def _holds(k, op, operand) -> bool:
    if op == "between":
        return operand[0] <= k <= operand[1]
    if op == "in":
        return k in operand
    return {
        "=": k == operand, "!=": k != operand, "<>": k != operand,
        "<": k < operand, "<=": k <= operand, ">": k > operand, ">=": k >= operand,
    }[op]


def _scan_aggregate(entries, fn, pks):
    """The whole-list definition: filter the sorted entries, then read the
    count, the ends or the lower middle."""
    filtered = [(k, pk) for k, pk in entries if pk in pks]
    if fn == "count":
        return len(filtered)
    if not filtered:
        raise EmptyInput(fn)
    return {"max": filtered[-1], "min": filtered[0],
            "median": filtered[(len(filtered) - 1) // 2]}[fn][1]


def check_type_two(idx, table, attr, probes, filters):
    entries = idx.entries(table, attr)
    assert entries == sorted(entries)
    assert idx.value_map(table, attr) == {pk: k for k, pk in entries}
    assert len(idx.value_map(table, attr)) == len(entries)  # one key per pk
    for op in OPS:
        for a, b in probes:
            operand = {"between": (a, b), "in": (a, b)}.get(op, a)
            want = {pk for k, pk in entries if _holds(k, op, operand)}
            assert idx.lookup(table, attr, op, operand) == want, (op, operand)
    for fn in ("count", "min", "max", "median"):
        wants = []
        for pks in filters:
            try:
                want = _scan_aggregate(entries, fn, pks)
            except EmptyInput:
                with pytest.raises(EmptyInput):
                    idx.aggregate(table, attr, fn, pks)
                want = None
            else:
                assert idx.aggregate(table, attr, fn, pks) == want, fn
            wants.append(want)
        # all filters at once, None where one has no indexed record
        assert idx.aggregates(table, attr, fn, filters) == wants, fn


def check_pseudo_sums(type1, table, pks, n, p):
    halves = [{pk for pk in pks if pk % 2}, {pk for pk in pks if not pk % 2}, set()]
    for i in range(1, n + 1):
        want = sum(pk for pk in pks if type1.bitmap(table, pk)[i - 1] == "0") % p
        assert type1.pseudo_sum(table, pks, i, p) == want
        assert type1.pseudo_sums(table, halves, i, p) == [
            sum(pk for pk in half if type1.bitmap(table, pk)[i - 1] == "0") % p
            for half in halves
        ]


def shares_oracle(wh, table, rows):
    """provider -> attr -> pk -> the share it must hold (an int, a chunk
    tuple for a string, None for a NULL), for every pk whose bitmap names
    it: each row value shared afresh, chunk by chunk, at the storage group
    of its bitmap."""
    km = wh.km
    want = {i: {c.name: {} for c in wh.schemas[table].data_columns()} for i in wh.csps}
    for pk, row in rows.items():
        group = group_from_bitmap(wh.type1.bitmap(table, pk))
        for col in wh.schemas[table].data_columns():
            chunks = encode_chunks(row[col.name], col.kind, scale=col.scale, bias=wh.bias, p=km.p)
            for i in group.sg:
                if chunks is None:
                    want[i][col.name][pk] = None
                elif col.kind == "string":
                    want[i][col.name][pk] = tuple(share_value(c, pk, group, km)[i] for c in chunks)
                else:
                    want[i][col.name][pk] = share_value(chunks, pk, group, km)[i]
    return want


def check_null_sets(wh, table, want, filters):
    """null_pks answers exactly the held pks whose row value is NULL."""
    everything = set(wh.type1.pks(table)) | {0, -1}
    for i, csp in wh.csps.items():
        for attr, held in want[i].items():
            nulls = {pk for pk, chunks in held.items() if chunks is None}
            for pks in filters + [everything]:
                assert csp.null_pks(table, attr, pks) == nulls & pks, (i, attr)


def check_share_columns(wh, table, want, filters):
    """Each provider returns exactly the chunks of the oracle for the pks
    it holds, refuses the others, and share_sum adds up its shares of a
    number's non-NULL values over a filter, as share_sums does over each
    of several filters in one request."""
    p = wh.km.p
    for i, csp in wh.csps.items():
        for attr, held in want[i].items():
            for pk in wh.type1.pks(table):
                if pk in held:
                    assert csp.fetch_share(table, pk, attr) == held[pk], (i, attr, pk)
                else:
                    with pytest.raises(UnknownRecordPosition):
                        csp.fetch_share(table, pk, attr)
            if wh.schemas[table].column(attr).kind == "string":
                continue   # no query sums a string's shares
            totals = []
            for pks in filters:
                total = sum(c for pk, c in held.items() if c is not None and pk in pks)
                assert csp.share_sum(table, attr, pks) == total % p, (i, attr)
                totals.append(total % p)
            assert csp.share_sums(table, attr, filters) == totals, (i, attr)


# the index structures on their own

keys_int = st.integers(-6, 6)
index_ops = st.lists(
    st.tuples(st.sampled_from(("insert", "insert", "remove")), st.integers(1, 30), keys_int),
    max_size=80,
)
pk_filters = st.lists(st.sets(st.integers(0, 32), max_size=20), min_size=1, max_size=4)


@given(index_ops, st.lists(st.tuples(keys_int, keys_int), min_size=1, max_size=4),
       pk_filters, st.booleans())
@settings(max_examples=150)
def test_type_two_matches_entry_scan(ops, probes, filters, as_text):
    def key(k):
        return f"k{k:+d}" if as_text else k

    idx = TypeTwoIndex()
    idx.register("t", "a")
    for kind, pk, k in ops:
        if kind == "insert":
            idx.insert("t", "a", key(k), pk)
        else:
            idx.remove("t", "a", pk)
    probes = [(key(a), key(b)) for a, b in probes]
    check_type_two(idx, "t", "a", probes, filters + [set(idx.value_map("t", "a"))])


bitmaps = st.lists(st.sampled_from("01"), min_size=5, max_size=5).map("".join)


@given(st.lists(st.tuples(st.integers(1, 40), bitmaps), max_size=80),
       st.sets(st.integers(1, 40)))
@settings(max_examples=150)
def test_pseudo_sum_matches_bitmap_scan(sets, wanted):
    idx = TypeOneIndex()
    idx.create_table("t")
    for pk, bitmap in sets:  # a pk drawn twice has its bitmap re-set
        type1_set(idx, "t", pk, bitmap)
    known = set(idx.entries["t"])
    for pks in (known, known & wanted):
        check_pseudo_sums(idx, "t", pks, 5, 97)


# the same structures inside a warehouse, through updates, save/load and recovery

TABLE = Schema("r", (
    Column("id", "key"),
    Column("v", "int"),
    Column("w", "int"),
    Column("s", "string"),
))
INDEXED = ("v", "s")
QUERIES = (
    "SELECT id, AVG(w), MAX(v), COUNT(s) FROM r WHERE id BETWEEN {a} AND {b} GROUP BY id",
    "SELECT MEDIAN(v), MEDIAN(s), SUM(w), COUNT(w) FROM r WHERE v >= {c}",
    "SELECT s, MEDIAN(v), SUM(w) FROM r WHERE v != {c} GROUP BY s",
    "SELECT MEDIAN(v), MIN(s), MAX(s) FROM r WHERE s IN ('a', 'c')",
)

row_writes = st.lists(
    st.fixed_dictionaries({
        "id": st.integers(1, 24),
        "v": st.one_of(st.none(), st.integers(-9, 9)),
        "w": st.one_of(st.none(), st.integers(0, 50)),
        "s": st.one_of(st.none(), st.sampled_from("abc")),
    }),
    min_size=1, max_size=40,
)


def check_warehouse(wh, rows, probes, filters):
    """Every maintained structure of wh against its brute-force definition,
    and the query answers against the plaintext evaluator."""
    pks = wh.type1.pks("r")
    assert sorted(pks) == sorted(rows)
    for attr in INDEXED:
        col = TABLE.column(attr)
        assert wh.type2.value_map("r", attr) == {
            pk: typed_key(row[attr], col.kind, col.scale) for pk, row in rows.items() if row[attr] is not None
        }
        attr_probes = list(probes) if attr == "v" else [("a", "b"), ("b", "c")]
        check_type_two(wh.type2, "r", attr, attr_probes, filters + [set(pks)])
    check_pseudo_sums(wh.type1, "r", set(pks), wh.km.n, wh.km.p)
    want = shares_oracle(wh, "r", rows)
    check_null_sets(wh, "r", want, filters)
    check_share_columns(wh, "r", want, filters + [set(pks)])
    oracle = PlainWarehouse()
    oracle.add_table(TABLE, list(rows.values()))
    for a, b in probes:
        for shape in QUERIES:
            text = shape.format(a=min(pks) + abs(a), b=min(pks) + abs(a) + abs(b), c=abs(a))
            assert execute(wh, text)[1] == oracle.query(parse(text)), text


def _load(root, km):
    return Warehouse.load(root, km, [(TABLE, INDEXED, ())], w=3)


@given(row_writes, st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                            min_size=1, max_size=2),
       pk_filters, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_warehouse_indexes_through_updates_save_load_and_recovery(
        km_big, writes, probes, filters, target):
    wh = Warehouse(km_big, w=3)
    wh.create_table(TABLE, index_attrs=INDEXED)
    rows = {}
    for row in writes:  # a repeated id is an in-place update
        wh.insert("r", row)
        rows[row["id"]] = row
    check_warehouse(wh, rows, probes, filters)
    with tempfile.TemporaryDirectory() as root:
        wh.save(root)
        back = _load(root, km_big)
    check_warehouse(back, rows, probes, filters)
    back.recover_csp_shares(target)
    check_warehouse(back, rows, probes, filters)
    victim = next((pk for pk in back.type1.pks("r") if rows[pk]["w"] is not None
                   and back.type1.bitmap("r", pk)[target - 1] == "1"), None)
    if victim is not None:
        back.inject_tamper(target, "r", victim, "w", delta=5)
        want = shares_oracle(back, "r", rows)
        want[target]["w"][victim] = (want[target]["w"][victim] + 5) % km_big.p
        check_share_columns(back, "r", want, filters)
        check_null_sets(back, "r", want, filters)
