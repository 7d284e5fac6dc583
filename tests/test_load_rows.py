"""The batched write path: `Warehouse.load_rows` and `insert`.

A seeded store is built through every kind of write (new rows, a key
repeated inside one batch, a batch mixing new and stored keys, single
inserts, NULLs, a string column, a derived column, a cube build and a
refresh) and every file `Warehouse.save` writes is pinned by digest. A
batch whose k-th row raises must leave exactly the store its first k-1
rows make.
"""

import datetime
import hashlib
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

import fvss.store as store_module
from fvss import DEFAULT_BIAS, Column, DerivedColumn, Schema, Warehouse
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_refresh
from fvss.errors import CspUnavailable, NotEnoughAliveCsps, OutOfRange, SchemaMismatch
from fvss.provider import CspStore
from fvss.query import execute
from fvss.sharing import encode_chunks, typed_key

PRODUCT = Schema("Product", (
    Column("ProdNo", "key"),
    Column("pname", "string"),
    Column("category", "string"),
))
SALES = Schema("Sales", (
    Column("SaleNo", "key"),
    Column("ProdNo", "fk", fk_table="Product"),
    Column("yearid", "int"),
    Column("monthid", "int"),
    Column("price", "real", scale=2),
    Column("qty", "int"),
    Column("memo", "string"),
))
SQUARE = DerivedColumn("Sales", "price_sq", "square", "price", scale=4)
CUBE = CubeSpec(
    "by_month", "Sales",
    (CubeHierarchy(("yearid", "monthid")),),
    (CubeMeasure("sum", "price"), CubeMeasure("count"), CubeMeasure("avg", "price"),
     CubeMeasure("max", "qty")),
)


def _warehouse(km, bias):
    wh = Warehouse(km, w=3, weights=(1, 2, 1, 1, 3), bias=bias)
    wh.create_table(PRODUCT, index_attrs=("category",))
    wh.create_table(SALES, index_attrs=("yearid", "monthid", "price", "qty"),
                    derived=(SQUARE,))
    return wh


def _sales(rng, first, n):
    return [
        {
            "SaleNo": pk,
            "ProdNo": rng.randint(1, 8),
            "yearid": rng.choice((2012, 2013, 2014)),
            "monthid": rng.randint(1, 4),
            "price": Fraction(rng.randint(1, 99999), 100),
            "qty": None if rng.random() < 0.15 else rng.randint(1, 30),
            "memo": rng.choice((None, "gift", "late", "ok")),
        }
        for pk in range(first, first + n)
    ]


def _build(km, bias):
    """Every kind of write the store supports, in a fixed order."""
    rng = random.Random(5150)
    wh = _warehouse(km, bias)
    wh.load_rows("Product", [
        {"ProdNo": pk, "pname": f"item{pk}", "category": rng.choice(("a", "b", "c"))}
        for pk in range(1, 9)
    ])
    first = _sales(rng, 1, 40)
    # a key repeated inside one batch: the later row updates the earlier one
    repeat = dict(first[5], price=Fraction(12345, 100), qty=None, memo="again")
    assert wh.load_rows("Sales", first[:20] + [repeat] + first[20:]) == 41
    # a batch mixing new keys with stored ones
    mixed = _sales(rng, 41, 10)
    for pk in (3, 17, 41):
        mixed.insert(pk % 7, dict(_sales(rng, pk, 1)[0]))
    assert wh.load_rows("Sales", mixed) == 13
    wh.insert("Sales", dict(_sales(rng, 7, 1)[0], qty=None))
    wh.insert("Sales", _sales(rng, 51, 1)[0])
    cube_build(wh, CUBE)
    fresh = _sales(rng, 52, 12)
    wh.load_rows("Sales", fresh)
    cube_refresh(wh, CUBE, [r["SaleNo"] for r in fresh])
    return wh


def saved_digest(wh, root) -> str:
    """sha256 over the relative path and the bytes of every saved file."""
    wh.save(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# first captured against the code before the batched write path, which
# shared and appended one record at a time, and kept through the
# column-at-a-time write path; re-captured once when cube refreshes began
# to mask every rewritten cell with a fresh zero-sharing, which changed
# only the cube table's .shares and .sigtree, the table layer above them
# (_tables.sigtree) and each provider's byte counters (state); and
# re-captured once more when providers stopped counting stored bytes,
# which dropped the bytes_stored line of each provider's state file and
# changed no other file; and re-captured when systematic placement replaced
# the weighted draw, which moved new records to other storage groups: the
# Type II .idx files and index/tables stayed byte-identical, and
# type1.bitmap, each provider's .shares, .sigtree, _tables.sigtree and
# state (bytes read back) changed, the cube table's too, as its cells fold
# in per-provider share sums; and re-captured when signature trees began
# to be saved as their leaves only: every .sigtree and _tables.sigtree
# file became its old header and level-0 lines, and no other file changed
GOLDEN_SAVED = "3fe86bc002dd7f9ea13ac791e4586a41c6e8186120409add34666f424c98cf60"


def test_golden_saved_store_digest(tmp_path, km_big):
    assert saved_digest(_build(km_big, DEFAULT_BIAS), tmp_path) == GOLDEN_SAVED


STRING_CUBE = CubeSpec(
    "by_category", "Sales",
    (CubeHierarchy(("category",), "Product", "ProdNo"), CubeHierarchy(("yearid",))),
    (CubeMeasure("min", "price"), CubeMeasure("min", "memo"), CubeMeasure("sum", "qty"),
     CubeMeasure("count")),
)


def _build_string_cube(km, bias):
    """A cube keyed by a multi-byte string dimension, built and then
    refreshed with facts that lower MIN cells, reach new cells and leave
    NULL measures."""
    rng = random.Random(2323)
    wh = Warehouse(km, w=3, weights=(1, 2, 1, 1, 3), bias=bias)
    wh.create_table(PRODUCT, index_attrs=("category",))
    wh.create_table(SALES, index_attrs=("yearid", "price", "memo"))
    categories = ("garden", "tools & hardware", "ñandú", "x")
    wh.load_rows("Product", [
        {"ProdNo": pk, "pname": f"item{pk}", "category": categories[pk % 3]}
        for pk in range(1, 9)
    ] + [{"ProdNo": 9, "pname": "late", "category": categories[3]}])
    first = [dict(row, ProdNo=rng.randint(1, 8)) for row in _sales(rng, 1, 30)]
    wh.load_rows("Sales", first)
    cube_build(wh, STRING_CUBE)
    fresh = _sales(rng, 31, 10)
    fresh[0].update(price=Fraction(1, 100), memo="aa")
    fresh[1].update(ProdNo=9, qty=None, memo=None)
    wh.load_rows("Sales", fresh)
    cube_refresh(wh, STRING_CUBE, [r["SaleNo"] for r in fresh])
    return wh


# captured against the code that shared cube cells one value at a time;
# string dimension chunks past the first and re-shared string MIN cells
# are keyed by their chunk index. Re-captured when systematic placement
# replaced the weighted draw: the Type II .idx files and index/tables
# stayed byte-identical, and the placement-dependent files (type1.bitmap,
# .shares, .sigtree, _tables.sigtree, state) changed. Re-captured when
# signature trees began to be saved as their leaves only: each .sigtree
# and _tables.sigtree file kept its header and level-0 lines, and every
# other file stayed byte-identical
GOLDEN_STRING_CUBE = "513a525261414b49afa71338a555430bfebf06d522725945d7c6c646e2678f2d"


def test_golden_string_dimension_cube_digest(tmp_path, km_big):
    assert saved_digest(_build_string_cube(km_big, DEFAULT_BIAS), tmp_path) \
        == GOLDEN_STRING_CUBE


# a batch that fails part way


def _bad_rows():
    """Rows that raise while they are shared, before any provider write."""
    return [
        ("price too large", {"price": Fraction(10**30)}, OutOfRange),
        ("unknown column", {"colour": "red"}, SchemaMismatch),
        # no chunks to store: refused, where it once broke the first provider
        ("empty string", {"memo": ""}, OutOfRange),
        # int() once truncated the first and raised a bare TypeError on the second
        ("key not whole", {"SaleNo": 1.5}, SchemaMismatch),
        ("fk None", {"ProdNo": None}, SchemaMismatch),
        # a key or fk outside 8 unsigned bytes once half-wrote a provider
        ("key negative", {"SaleNo": -3}, OutOfRange),
        ("fk too large", {"ProdNo": 1 << 64}, OutOfRange),
        # int() once truncated it to 2, and SUM(qty) answered quietly wrong
        ("int not whole", {"qty": 2.7}, SchemaMismatch),
    ]


@pytest.mark.parametrize("append_rows", [4, 500])
@pytest.mark.parametrize("k", [1, 2, 5, 7, 11, 13])
@pytest.mark.parametrize("what,patch,error", _bad_rows())
def test_failed_row_leaves_the_rows_before_it(tmp_path, km_big, monkeypatch, append_rows,
                                               k, what, patch, error):
    """Row k raises: the store holds exactly rows 1..k-1, stored ones
    included, and the rows after it are not loaded. Row 5 repeats a key
    of the same batch, rows 10 and 11 are stored keys."""
    rng = random.Random(k)
    rows = _sales(rng, 6, 8)                           # new keys, after 1..5
    rows.insert(4, dict(rows[1], qty=None))            # a key repeated in the batch
    rows += _sales(rng, 3, 2) + _sales(rng, 20, 3)     # stored keys, then new ones
    bad = dict(rows[k - 1], **patch)
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)

    def loaded(batch):
        wh = _warehouse(km_big, DEFAULT_BIAS)
        wh.load_rows("Sales", _sales(random.Random(0), 1, 5))
        if batch is not None:
            with pytest.raises(error):
                wh.load_rows("Sales", batch)
        return wh

    failed = loaded(rows[:k - 1] + [bad] + rows[k:])
    expected = _warehouse(km_big, DEFAULT_BIAS)
    expected.load_rows("Sales", _sales(random.Random(0), 1, 5))
    expected.load_rows("Sales", rows[:k - 1])
    assert saved_digest(failed, tmp_path / "failed") \
        == saved_digest(expected, tmp_path / "expected")


@pytest.mark.parametrize("append_rows", [4, 500])
def test_quotient_by_zero_leaves_the_rows_before_it(tmp_path, km_big, monkeypatch,
                                                     append_rows):
    """A derived quotient whose divisor is 0 raises OutOfRange naming the
    table, the column and the pk, and the rows before it stay stored."""
    unit = DerivedColumn("Sales", "unit", "quotient", "price", "qty", scale=2)
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)

    def warehouse():
        wh = Warehouse(km_big, w=3, weights=(1, 2, 1, 1, 3), bias=DEFAULT_BIAS)
        wh.create_table(PRODUCT)
        wh.create_table(SALES, derived=(unit,))
        return wh

    rows = _sales(random.Random(3), 1, 9)
    rows[6]["qty"] = 0
    failed, expected = warehouse(), warehouse()
    with pytest.raises(OutOfRange, match=r"^Sales\.unit of pk 7: qty is 0$"):
        failed.load_rows("Sales", rows)
    assert failed.type1.pks("Sales") == [1, 2, 3, 4, 5, 6]
    expected.load_rows("Sales", rows[:6])
    assert saved_digest(failed, tmp_path / "failed") \
        == saved_digest(expected, tmp_path / "expected")


@pytest.mark.parametrize("append_rows", [1, 2, 3, 500])
def test_a_new_key_with_too_few_providers_alive_stores_the_rows_before_it(
        tmp_path, km_big, monkeypatch, append_rows):
    """load_rows reads which providers are alive as each new key arrives.
    With fewer than n-t+2 of them, that key raises NotEnoughAliveCsps as
    it arrives and the rows after it are not loaded. The providers fail
    while the stored keys before it are read: those whose batch was
    written stay rewritten, and those still held are not written, since
    every storage group (3 of 5 providers) now has a failed member. That
    flush's CspUnavailable is chained to the row's error, not raised in
    its place."""
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)
    start = _sales(random.Random(0), 1, 5)
    updates = [dict(row, qty=99, memo="upd") for row in start[1:5]]
    written = updates[:len(updates) // append_rows * append_rows]
    wh = _warehouse(km_big, DEFAULT_BIAS)
    wh.load_rows("Sales", start)

    def rows():
        yield from updates
        for i in (1, 2, 3):
            wh.inject_failure(i)
        yield from _sales(random.Random(1), 6, 3)
        yield dict(start[0], qty=77)

    with pytest.raises(NotEnoughAliveCsps, match=r"^need 3 alive CSPs, have 2$") as raised:
        wh.load_rows("Sales", rows())
    if written == updates:
        assert raised.value.__cause__ is None
    else:
        assert isinstance(raised.value.__cause__, CspUnavailable)
    for i in (1, 2, 3):
        wh.heal(i)
    expected = _warehouse(km_big, DEFAULT_BIAS)
    expected.load_rows("Sales", start)
    expected.load_rows("Sales", written)
    assert wh.type1.pks("Sales") == [1, 2, 3, 4, 5]
    assert saved_digest(wh, tmp_path / "failed") == saved_digest(expected, tmp_path / "expected")


def test_held_new_keys_are_not_stored_when_too_few_providers_are_left(tmp_path, km_big):
    """Each new key checks the providers alive as it arrives, not only a
    batch's first: when they drop below n-t+2 after new row 6 was read,
    new row 7 raises NotEnoughAliveCsps as it arrives and row 8 is never
    read. The held row 6 cannot be placed at the flush either, so the
    store is what it was before the call."""
    wh = _warehouse(km_big, DEFAULT_BIAS)
    wh.load_rows("Sales", _sales(random.Random(0), 1, 5))
    before = saved_digest(wh, tmp_path / "before")
    new = _sales(random.Random(1), 6, 3)
    read = []

    def rows():
        for row in new:
            read.append(row["SaleNo"])
            yield row
            if row["SaleNo"] == 6:
                for i in (1, 2, 3):
                    wh.inject_failure(i)

    with pytest.raises(NotEnoughAliveCsps, match=r"^need 3 alive CSPs, have 2$") as raised:
        wh.load_rows("Sales", rows())
    assert read == [6, 7]
    assert isinstance(raised.value.__cause__, NotEnoughAliveCsps)
    for i in (1, 2, 3):
        wh.heal(i)
    assert wh.type1.pks("Sales") == [1, 2, 3, 4, 5]
    assert saved_digest(wh, tmp_path / "after") == before


# which error a failing batch raises: the first failing row's, in arrival
# order, and within a row the first of its checks (derived, empty string,
# key, unknown column, fks, values); an error the arrival of a later row
# raises (a stored key with a failed member, too few providers alive, a
# key that is not whole, the iterator's own) never wins over it

MESSAGES = {"price too large": r"^real value", "unknown column": r"^unknown columns",
            "empty string": r"^Sales\.memo: an empty string", "fk None": r"^Sales\.ProdNo ",
            "fk too large": r"^Sales\.ProdNo "}
ENCODE_ERRORS = {what: (patch, error) for what, patch, error in _bad_rows() if what in MESSAGES}


def _loaded(km, rows):
    wh = _warehouse(km, DEFAULT_BIAS)
    wh.load_rows("Sales", _sales(random.Random(0), 1, 5))
    if rows is not None:
        wh.load_rows("Sales", rows)
    return wh


@pytest.mark.parametrize("append_rows", [1, 4, 500])
@pytest.mark.parametrize("first,second", [
    ("price too large", "unknown column"),
    ("unknown column", "empty string"),
    ("fk None", "fk too large"),
    ("empty string", "fk None"),
])
def test_the_first_of_two_bad_rows_raises(tmp_path, km_big, monkeypatch, append_rows,
                                          first, second):
    """Rows 3 and 6 fail with errors of different types: row 3's is
    raised, and the store holds rows 1 and 2."""
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)
    rows = _sales(random.Random(2), 6, 8)
    patch, error = ENCODE_ERRORS[first]
    rows[2].update(patch)
    rows[5].update(ENCODE_ERRORS[second][0])
    wh = _loaded(km_big, None)
    with pytest.raises(error, match=MESSAGES[first]):
        wh.load_rows("Sales", rows)
    assert wh.type1.pks("Sales") == [1, 2, 3, 4, 5, 6, 7]
    assert saved_digest(wh, tmp_path / "failed") \
        == saved_digest(_loaded(km_big, rows[:2]), tmp_path / "expected")


@pytest.mark.parametrize("append_rows", [1, 4, 500])
@pytest.mark.parametrize("arrival", ["failed member", "too few alive", "key not whole",
                                     "iterator raises"])
@pytest.mark.parametrize("what", sorted(ENCODE_ERRORS))
def test_a_bad_row_wins_over_a_later_arrival_error(tmp_path, km_big, monkeypatch,
                                                   append_rows, arrival, what):
    """A bad row followed by a row whose arrival raises: the bad row's
    error is raised and the store holds the rows before it. A provider
    that stores pk 2 is failed before the load, so the rows before the
    bad one are new keys and stored keys whose members are all alive;
    when too few providers are alive, the failures come after the bad
    row, so no row is before it."""
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)
    wh = _loaded(km_big, None)
    member = wh.type1.bitmap("Sales", 2).index("1") + 1
    wh.inject_failure(member)
    patch, error = ENCODE_ERRORS[what]
    alive = [pk for pk in (1, 3, 4, 5) if wh.type1.bitmap("Sales", pk)[member - 1] == "0"]
    before = [] if arrival == "too few alive" else (
        _sales(random.Random(3), 6, 3) + [dict(row, qty=42) for row in
                                          _sales(random.Random(4), alive[0], 1)])
    bad = dict(_sales(random.Random(5), 9, 1)[0], **patch)

    def rows():
        yield from before
        yield bad
        if arrival == "failed member":
            yield dict(_sales(random.Random(6), 2, 1)[0], qty=7)
        elif arrival == "too few alive":
            for i in sorted(set(wh.csps) - {member})[:2]:
                wh.inject_failure(i)
            yield _sales(random.Random(6), 10, 1)[0]
        elif arrival == "key not whole":
            yield dict(_sales(random.Random(6), 10, 1)[0], SaleNo=10.5)
        else:
            raise RuntimeError("the rows ran dry")
        yield _sales(random.Random(7), 11, 1)[0]

    with pytest.raises(error, match=MESSAGES[what]):
        wh.load_rows("Sales", rows())
    for i in wh.csps:
        wh.heal(i)
    expected = _loaded(km_big, None)
    expected.inject_failure(member)
    expected.load_rows("Sales", before)
    expected.heal(member)
    assert saved_digest(wh, tmp_path / "failed") == saved_digest(expected, tmp_path / "expected")


@pytest.mark.parametrize("append_rows", [1, 4, 500])
def test_a_quotient_by_zero_wins_over_its_rows_key(tmp_path, km_big, monkeypatch,
                                                   append_rows):
    """A row whose derived quotient divides by 0 and whose key is not a
    whole number raises the quotient's OutOfRange, which names the key as
    given; the rows before it stay stored."""
    unit = DerivedColumn("Sales", "unit", "quotient", "price", "qty", scale=2)
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)

    def warehouse():
        wh = Warehouse(km_big, w=3, weights=(1, 2, 1, 1, 3), bias=DEFAULT_BIAS)
        wh.create_table(PRODUCT)
        wh.create_table(SALES, derived=(unit,))
        return wh

    rows = _sales(random.Random(3), 1, 6)
    rows[3].update(SaleNo=4.5, qty=0)
    failed, expected = warehouse(), warehouse()
    with pytest.raises(OutOfRange, match=r"^Sales\.unit of pk 4\.5: qty is 0$"):
        failed.load_rows("Sales", rows)
    expected.load_rows("Sales", rows[:3])
    assert saved_digest(failed, tmp_path / "failed") \
        == saved_digest(expected, tmp_path / "expected")


@pytest.mark.parametrize("append_rows", [1, 4, 500])
def test_a_reused_row_dict_stores_what_was_yielded(tmp_path, km_big, monkeypatch,
                                                   append_rows):
    """A generator that refills one dict for every row stores each row as
    it was yielded, not the last one's values."""
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)
    rows = _sales(random.Random(8), 3, 12)

    def refilled():
        row = {}
        for values in rows:
            row.clear()
            row.update(values)
            yield row

    wh = _loaded(km_big, None)
    assert wh.load_rows("Sales", refilled()) == len(rows)
    assert saved_digest(wh, tmp_path / "reused") \
        == saved_digest(_loaded(km_big, rows), tmp_path / "copied")


# a provider that fails while a batch's rows are read

ONE = Schema("T", (Column("id", "key"), Column("v", "int")))


def test_new_rows_are_placed_over_the_providers_alive_at_the_flush(km_big):
    """A provider that fails after the first of a batch's new rows gets
    none of them: all rows are stored on the providers still alive, each
    provider's pks are those its Type I bitmaps give it, and SUM(v) is the
    plaintext's."""
    wh = Warehouse(km_big, w=3)
    wh.create_table(ONE)
    values = {pk: pk * 7 - 30 for pk in range(1, 12)}

    def rows():
        for pk, v in values.items():
            yield {"id": pk, "v": v}
            if pk == 1:
                wh.inject_failure(2)

    assert wh.load_rows("T", rows()) == 11
    assert wh.type1.pks("T") == list(values)
    for i, csp in wh.csps.items():
        mine = [pk for pk in values if wh.type1.bitmap("T", pk)[i - 1] == "1"]
        assert sorted(csp.pks["T"]) == mine
    assert wh.csps[2].pks["T"] == []
    assert execute(wh, "SELECT SUM(v) FROM T")[1] == [(sum(values.values()),)]


def test_a_stored_key_whose_member_fails_before_the_flush_writes_nothing(tmp_path, km_big):
    """An in-place update batch whose storage-group member fails between
    the row's arrival and the flush raises CspUnavailable naming that
    member, and the flush writes no provider, Type I or Type II entry."""
    wh = Warehouse(km_big, w=3)
    wh.create_table(ONE, index_attrs=("v",))
    wh.load_rows("T", [{"id": pk, "v": pk} for pk in range(1, 11)])
    before = saved_digest(wh, tmp_path / "before")
    # the last member, so that a write provider by provider would store the others first
    member = max(i for i, bit in enumerate(wh.type1.bitmap("T", 4), 1) if bit == "1")

    def rows():
        yield {"id": 4, "v": 400}
        wh.inject_failure(member)
        yield {"id": 12, "v": 12}

    with pytest.raises(CspUnavailable, match=rf"^CSP {member} is failed$"):
        wh.load_rows("T", rows())
    wh.heal(member)
    assert saved_digest(wh, tmp_path / "after") == before


@pytest.mark.parametrize("append_rows", [1, 7, 500])
def test_insert_is_a_one_row_batch(tmp_path, km_big, monkeypatch, append_rows):
    """Row by row, or in one call whatever the provider append size, the
    saved store is the same."""
    rows = _sales(random.Random(9), 1, 30)
    rows += [dict(r, qty=None) for r in rows[::4]] + _sales(random.Random(8), 31, 9)
    one = _warehouse(km_big, DEFAULT_BIAS)
    for row in rows:
        one.insert("Sales", row)
    monkeypatch.setattr(store_module, "APPEND_ROWS", append_rows)
    batched = _warehouse(km_big, DEFAULT_BIAS)
    assert batched.load_rows("Sales", iter(rows)) == len(rows)
    assert saved_digest(one, tmp_path / "one") == saved_digest(batched, tmp_path / "batch")


@pytest.mark.parametrize("column", ["SaleNo", "ProdNo"])
@pytest.mark.parametrize("value", ["missing", None, 1.5, Fraction(7, 2), "x", float("inf")])
def test_key_and_fk_must_be_whole_numbers(km_big, column, value):
    """A key or fk that is missing, None or not a whole number raises
    SchemaMismatch naming the column, and the rows before it stay stored;
    none is truncated to an int."""
    rows = _sales(random.Random(4), 1, 3)
    if value == "missing":
        del rows[1][column]
    else:
        rows[1][column] = value
    wh = _warehouse(km_big, DEFAULT_BIAS)
    with pytest.raises(SchemaMismatch, match=rf"^Sales\.{column} must be a whole number"):
        wh.load_rows("Sales", rows)
    assert wh.type1.pks("Sales") == [1]


@pytest.mark.parametrize("value", [2.7, Fraction(5, 2), "2.5", Decimal("2.5"), "x", float("nan")])
def test_an_int_value_must_be_a_whole_number(km_big, value):
    """An int column's value that is not a whole number raises
    SchemaMismatch naming the column, and the rows before it stay
    stored; none is truncated, so SUM(qty) is never quietly wrong."""
    rows = _sales(random.Random(4), 1, 3)
    rows[1]["qty"] = value
    wh = _warehouse(km_big, DEFAULT_BIAS)
    with pytest.raises(SchemaMismatch, match=r"^Sales\.qty must be a whole number, got "):
        wh.load_rows("Sales", rows)
    assert wh.type1.pks("Sales") == [1]


TYPED = Schema("T", (Column("k", "key"), Column("r", "real", scale=2), Column("d", "date"),
                     Column("b", "bool")))


def _typed_rows():
    return [{"k": k, "r": Fraction(k, 4), "d": datetime.date(2020, 1, k), "b": k % 2 == 0}
            for k in (1, 2, 3)]


@pytest.mark.parametrize("column,value,what", [
    ("r", float("nan"), "a number"), ("r", float("inf"), "a number"),
    ("r", float("-inf"), "a number"), ("r", Decimal("NaN"), "a number"),
    ("r", "abc", "a number"), ("r", object(), "a number"),
    ("d", "2020-01-02", "a date"), ("d", datetime.datetime(2020, 1, 2), "a date"),
    ("d", 18263, "a date"),
    ("b", "false", "a bool"), ("b", "true", "a bool"), ("b", 2, "a bool"),
])
def test_a_value_of_no_key_is_refused_naming_its_column(km_big, column, value, what):
    """A real that is no finite number, a date that is not a
    datetime.date and a bool that is not True, False, 1 or 0 raise
    SchemaMismatch naming the column, as an int column's value that is not
    whole does; the rows before it stay stored and nothing of it is. A
    lone value of that kind (typed_key, encode_chunks) is refused naming
    the kind."""
    rows = _typed_rows()
    rows[1][column] = value
    wh = Warehouse(km_big, w=3, bias=DEFAULT_BIAS)
    wh.create_table(TYPED, index_attrs=("r", "d", "b"))
    with pytest.raises(SchemaMismatch, match=rf"^T\.{column} must be {what}, got "):
        wh.load_rows("T", rows)
    assert wh.type1.pks("T") == [1]
    assert all(len(keys) == 1 for keys in wh.type2.keys.values())
    kind = TYPED.column(column).kind
    for encode in (lambda: typed_key(value, kind, 2),
                   lambda: encode_chunks(value, kind, scale=2, bias=DEFAULT_BIAS, p=km_big.p)):
        with pytest.raises(SchemaMismatch, match=rf"^{kind} value .* is not {what}$"):
            encode()


def test_a_bool_given_as_1_or_0_is_stored_as_true_or_false(tmp_path, km_big):
    """1 and 0 in a bool column are the bools they equal: the saved store
    equals the one loaded with True and False."""
    def loaded(true, false):
        rows = _typed_rows()
        rows[0]["b"], rows[1]["b"] = true, false
        wh = Warehouse(km_big, w=3, bias=DEFAULT_BIAS)
        wh.create_table(TYPED, index_attrs=("b",))
        wh.load_rows("T", rows)
        return wh

    ints = loaded(1, 0)
    assert saved_digest(ints, tmp_path / "ints") == saved_digest(loaded(True, False),
                                                                 tmp_path / "bools")
    assert [ints.reconstruct_record("T", k)["b"] for k in (1, 2)] == [True, False]


@pytest.mark.parametrize("value,whole", [("3", 3), (" 3 ", 3), (3.0, 3), (Fraction(6, 2), 3),
                                         (Decimal("3.0"), 3), (True, 1)])
def test_a_whole_int_value_of_another_type_is_stored_as_its_int(tmp_path, km_big, value, whole):
    """An int column's value given as a whole number of another type is
    stored, indexed and summed as that int: the saved store equals the
    one loaded with the int."""
    def loaded(changed):
        rows = _sales(random.Random(4), 1, 5)
        rows[2]["qty"] = changed
        wh = _warehouse(km_big, DEFAULT_BIAS)
        assert wh.load_rows("Sales", rows) == 5
        return wh

    odd = loaded(value)
    assert saved_digest(odd, tmp_path / "odd") == saved_digest(loaded(whole), tmp_path / "int")
    assert odd.reconstruct_record("Sales", 3)["qty"] == whole


@pytest.mark.parametrize("insert", [False, True])
@pytest.mark.parametrize("column", ["SaleNo", "ProdNo"])
@pytest.mark.parametrize("value", ["3.0", "6/2", " 3 ", 3.0, Fraction(6, 2)])
def test_a_whole_key_or_fk_of_another_type_is_stored_as_its_int(tmp_path, km_big, insert,
                                                                 column, value):
    """A key or fk given as a whole number of another type is stored,
    filed in Type II and read back as that int: the saved store equals
    the one loaded with 3 and loads back. int() of the text "3.0" raises,
    so Type II keys are made of the checked int, never of the raw value."""
    def loaded(changed):
        rows = _sales(random.Random(4), 1, 5)
        rows[2][column] = changed
        wh = _warehouse(km_big, DEFAULT_BIAS)
        if insert:
            assert [wh.insert("Sales", row) for row in rows] == [1, 2, 3, 4, 5]
        else:
            assert wh.load_rows("Sales", rows) == 5
        return wh

    odd = loaded(value)
    assert saved_digest(odd, tmp_path / "odd") == saved_digest(loaded(3), tmp_path / "int")
    back = Warehouse.load(tmp_path / "odd", km_big, [
        (PRODUCT, ("category",), ()),
        (SALES, ("yearid", "monthid", "price", "qty"), (SQUARE,)),
    ], w=3, bias=DEFAULT_BIAS)
    assert back.reconstruct_record("Sales", 3)[column] == 3


def test_a_batch_of_stored_keys_is_one_update_per_member(km_big, monkeypatch):
    """k stored keys in one load_rows call are rewritten with one
    update_columns call per member of their storage groups, not one per
    key, and read back as loaded."""
    wh = _warehouse(km_big, DEFAULT_BIAS)
    rows = _sales(random.Random(6), 1, 30)
    wh.load_rows("Sales", rows)
    calls = Counter()
    update_columns = CspStore.update_columns

    def counted(csp, schema, pks, values, sigs):
        calls[csp.index] += 1
        return update_columns(csp, schema, pks, values, sigs)

    monkeypatch.setattr(CspStore, "update_columns", counted)
    changed = [dict(row, qty=7, memo="new") for row in rows[:8]]
    assert wh.load_rows("Sales", changed) == 8
    members = {i for row in changed
               for i, bit in enumerate(wh.type1.bitmap("Sales", row["SaleNo"]), 1) if bit == "1"}
    assert calls == dict.fromkeys(members, 1)
    for row in changed:
        got = wh.reconstruct_record("Sales", row["SaleNo"])
        assert (got["qty"], got["memo"]) == (7, "new")
