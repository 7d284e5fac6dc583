"""The batched write path: `Warehouse.load_rows` and `insert`.

A seeded store is built through every kind of write (new rows, a key
repeated inside one batch, a batch mixing new and stored keys, single
inserts, NULLs, a string column, a derived column, a cube build and a
refresh) and every file `Warehouse.save` writes is pinned by digest. A
batch whose k-th row raises must leave exactly the store its first k-1
rows make.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import fvss.store as store_module
from fvss import DEFAULT_BIAS, Column, DerivedColumn, Schema, Warehouse
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_refresh
from fvss.errors import OutOfRange, SchemaMismatch

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
# (_tables.sigtree) and each provider's byte counters (state)
GOLDEN_SAVED = "de1966f3a8b115c9553a99c09dc3b5e2a3d2424a357dfeeb128683aa9b79277c"


def test_golden_saved_store_digest(tmp_path, km_big):
    assert saved_digest(_build(km_big, DEFAULT_BIAS), tmp_path) == GOLDEN_SAVED


# a batch that fails part way


def _bad_rows():
    """Rows that raise while they are shared, before any provider write."""
    return [
        ("price too large", {"price": Fraction(10**30)}, OutOfRange),
        ("unknown column", {"colour": "red"}, SchemaMismatch),
        # no chunks to store: refused, where it once broke the first provider
        ("empty string", {"memo": ""}, OutOfRange),
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
