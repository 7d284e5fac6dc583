"""A store saved before systematic placement still loads and answers.

`tests/data/saved_store` was saved by the code that placed records by
Efraimidis–Spirakis keys: the rows below, Product then Sales, loaded
into a `Warehouse` at n=5, t=4, seed bytes(range(32)), w=3, weights
1,1,2,2,4 and the default bias. Placement only decides where new records
go, so the store must load, answer as the plaintext does and verify
clean; an in-place update must keep every stored record in its saved
storage group; and an appended record must be placed by the systematic
rule (`oracles.systematic_storage_group`).
"""

import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from fvss import P_DEFAULT, Column, Schema, Warehouse, init_participants
from fvss.query import execute, parse

from . import oracles

DATA = Path(__file__).parent / "data" / "saved_store"
KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
WEIGHTS = (1, 1, 2, 2, 4)
PRODUCT = Schema("Product", (Column("ProdNo", "key"), Column("category", "string")))
SALES = Schema("Sales", (
    Column("SaleNo", "key"),
    Column("ProdNo", "fk", fk_table="Product"),
    Column("yearid", "int"),
    Column("price", "real", scale=2),
    Column("qty", "int"),
    Column("memo", "string"),
))
SPECS = ((PRODUCT, ("category",), ()), (SALES, ("ProdNo", "yearid", "price"), ()))
PRODUCTS = [{"ProdNo": 1, "category": "garden"}, {"ProdNo": 2, "category": "tools"},
            {"ProdNo": 3, "category": "ñandú"}]


def _sale(pk, prod, year, cents, qty, memo):
    return {"SaleNo": pk, "ProdNo": prod, "yearid": year,
            "price": None if cents is None else Fraction(cents, 100), "qty": qty, "memo": memo}


SALES_ROWS = [
    _sale(1, 1, 2012, 1999, 3, "gift"),
    _sale(2, 2, 2012, 500, None, None),
    _sale(3, 3, 2013, -250, 7, "late"),
    _sale(4, 1, 2013, 12345, 1, "ok"),
    _sale(5, 2, 2014, None, 4, "gift"),
    _sale(6, 3, 2014, 75, 9, None),
    _sale(7, 1, 2012, 4200, 2, "ok"),
    _sale(8, 2, 2013, 1, 5, "late"),
    _sale(9, 3, 2014, 9999, None, "gift"),
    _sale(10, 1, 2012, 310, 6, "ok"),
]
# the bitmaps the old draw gave, as index/type1.bitmap holds them
SAVED_BITMAPS = {
    "Product": {1: "11001", 2: "01011", 3: "00111"},
    "Sales": {1: "11001", 2: "01011", 3: "00111", 4: "00111", 5: "11010", 6: "00111",
              7: "10101", 8: "00111", 9: "00111", 10: "00111"},
}
QUERIES = [
    "SELECT SUM(price), COUNT(*), AVG(qty) FROM Sales",
    "SELECT yearid, SUM(price), COUNT(qty) FROM Sales GROUP BY yearid",
    "SELECT P.category, SUM(S.price), MAX(S.price) FROM Sales AS S "
    "JOIN Product AS P ON S.ProdNo = P.ProdNo GROUP BY P.category",
    "SELECT AVG(price), MIN(price), MEDIAN(price) FROM Sales WHERE yearid >= 2013",
    "SELECT SaleNo, price, qty, memo FROM Sales WHERE SaleNo BETWEEN 3 AND 8",
    "SELECT ProdNo, COUNT(*), SUM(qty) FROM Sales GROUP BY ProdNo",
]


@pytest.fixture
def saved(tmp_path):
    """A copy of the saved store, loaded: writes go to the copy."""
    root = tmp_path / "store"
    shutil.copytree(DATA, root)
    return Warehouse.load(root, KM, SPECS, w=3, weights=WEIGHTS)


def _answers_as_plaintext(wh, sales):
    oracle = oracles.PlainWarehouse()
    oracle.add_table(PRODUCT, PRODUCTS)
    oracle.add_table(SALES, sales)
    for text in QUERIES:
        assert execute(wh, text)[1] == oracle.query(parse(text)), text
    assert all(report.ok for report in wh.verify_all().values())


def test_the_saved_store_loads_answers_and_verifies(saved):
    assert {table: dict(saved.type1.entries[table]) for table in SAVED_BITMAPS} \
        == SAVED_BITMAPS
    _answers_as_plaintext(saved, SALES_ROWS)


def test_an_in_place_update_keeps_every_saved_bitmap(saved, tmp_path):
    changed = [dict(row, price=Fraction(777, 100), qty=None, memo="again")
               for row in SALES_ROWS[::3]]
    saved.load_rows("Sales", changed)
    saved.insert("Product", {"ProdNo": 2, "category": "hardware"})
    assert {table: dict(saved.type1.entries[table]) for table in SAVED_BITMAPS} \
        == SAVED_BITMAPS
    sales = {row["SaleNo"]: row for row in SALES_ROWS + changed}
    products = {row["ProdNo"]: row for row in PRODUCTS}
    products[2] = {"ProdNo": 2, "category": "hardware"}
    oracle = oracles.PlainWarehouse()
    oracle.add_table(PRODUCT, list(products.values()))
    oracle.add_table(SALES, list(sales.values()))
    for text in QUERIES:
        assert execute(saved, text)[1] == oracle.query(parse(text)), text
    saved.save(tmp_path / "again")
    back = Warehouse.load(tmp_path / "again", KM, SPECS, w=3, weights=WEIGHTS)
    assert back.type1.entries["Sales"] == SAVED_BITMAPS["Sales"]
    assert all(report.ok for report in back.verify_all().values())


def test_appended_records_are_placed_by_the_systematic_rule(saved):
    fresh = [_sale(pk, 1 + pk % 3, 2015, 100 * pk + 1, pk % 4, "new") for pk in range(11, 41)]
    saved.load_rows("Sales", fresh)
    placed = saved.type1.entries["Sales"]
    assert {pk: placed[pk] for pk in SAVED_BITMAPS["Sales"]} == SAVED_BITMAPS["Sales"]
    assert [placed[pk] for pk in range(11, 41)] == [
        oracles.systematic_storage_group(pk, WEIGHTS, range(1, 6), KM).bitmap
        for pk in range(11, 41)]
    # provider 5, capped at pi = 1, stores every new record
    assert all(placed[pk][4] == "1" for pk in range(11, 41))
    _answers_as_plaintext(saved, SALES_ROWS + fresh)
