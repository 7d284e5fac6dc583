"""save writes the text it kept only for files that no write has changed.

Each role keeps the text its last `save` wrote for each file (a
provider's `.shares`, `.sigtree` and `_tables.sigtree`, Type I's lines of
each table, each Type II `.idx`) and drops it on a write to that table or
index, so the next save formats only what changed. This battery drives
random sequences of:

- `load_rows` of new facts and of stored ones (in place), NULLs included;
- `inject_tamper` of one provider's share;
- `inject_failure`, `recover_csp_shares` and `heal` of a provider;
- `cube_build`, then `cube_refresh` of the facts loaded since;
- a `Warehouse.load` round trip that carries on with the loaded store,
  which keeps no text;

with a `save` after each step at even odds. After every save it checks
each saved file, byte for byte, against what the codecs give from the
roles' state with nothing kept (`_shares_text`, `_leaves_text`,
`_type2_text`, `_bitmaps_text`), and after every round trip the loaded
store's answers to the analytics benchmark's query shapes (and the cube
slices, while the cube holds every fact as it is) against
`PlainWarehouse`.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, DerivedColumn, Schema, Warehouse, init_participants
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_query, cube_refresh
from fvss.cube import cube_table_spec
from fvss.index import _bitmaps_text, _type2_text
from fvss.provider import _leaves_text, _shares_text
from fvss.query import execute, parse

from .oracles import PlainWarehouse

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
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
))
SQUARE = DerivedColumn("Sales", "price_sq", "square", "price", scale=4)
SPECS = [(PRODUCT, ("category",), ()),
         (SALES, ("yearid", "monthid", "price", "qty"), (SQUARE,))]
CUBE = CubeSpec("by_month", "Sales", (CubeHierarchy(("yearid", "monthid")),), (
    CubeMeasure("sum", "price"), CubeMeasure("count"), CubeMeasure("avg", "price"),
))
YEARS = (2010, 2011, 2012)
N_PRODUCTS = 3

# the analytics benchmark's query shapes, and its two cube slices
QUERIES = (
    "SELECT SUM(price), COUNT(*), AVG(qty) FROM Sales",
    "SELECT monthid, SUM(price), COUNT(qty) FROM Sales GROUP BY monthid",
    "SELECT P.category, SUM(S.price) FROM Sales AS S "
    "JOIN Product AS P ON S.ProdNo = P.ProdNo GROUP BY P.category",
    "SELECT VAR(price), MAX(price), MEDIAN(qty) FROM Sales WHERE yearid = 2011",
    "SELECT SaleNo, AVG(price), MAX(qty) FROM Sales WHERE SaleNo BETWEEN 20 AND 90 "
    "GROUP BY SaleNo",
)
CUBE_SLICES = (
    (("yearid",), (("yearid", ">=", 2011),),
     "SELECT yearid, SUM(price), COUNT(*), AVG(price) FROM Sales WHERE yearid >= 2011 "
     "GROUP BY yearid"),
    (("yearid", "monthid"), (("yearid", "=", 2011),),
     "SELECT yearid, monthid, SUM(price), COUNT(*), AVG(price) FROM Sales WHERE yearid = 2011 "
     "GROUP BY yearid, monthid"),
)
LIAR = 2   # the one provider a sequence tampers with, so every read can rotate past it

_sale = st.fixed_dictionaries({
    "ProdNo": st.integers(1, N_PRODUCTS),
    "yearid": st.sampled_from(YEARS),
    "monthid": st.integers(1, 4),
    "price": st.none() | st.integers(-5000, 5000).map(lambda c: Fraction(c, 100)),
    "qty": st.none() | st.integers(0, 9),
})
OPS = ("new", "update", "tamper", "recover", "cube", "reload")


def _fresh_texts(wh) -> dict[str, str]:
    """Every file save writes, by path under the root, formatted from the
    roles' state by the codecs with nothing kept."""
    out = {}
    for i, csp in wh.csps.items():
        tree = csp.sigtree
        for table, schema in wh.schemas.items():
            out[f"csp{i}/{table}.shares"] = _shares_text(schema, *csp.slice_values(schema))
            out[f"csp{i}/{table}.sigtree"] = _leaves_text(tree.record_trees[table].levels[0])
        out[f"csp{i}/_tables.sigtree"] = ("\t".join(["tables", *tree.table_order]) + "\n"
                                          + _leaves_text(tree.table_layer.levels[0]))
        out[f"csp{i}/state"] = (f"alive\t{int(csp.alive)}\n"
                                f"bytes_transferred\t{csp.bytes_transferred}\n")
    out["index/type1.bitmap"] = "".join(_bitmaps_text(table, wh.type1.entries[table])
                                        for table in wh.schemas)
    for table, attr in wh.type2.keys:
        out[f"index/type2/{table}.{attr}.idx"] = _type2_text(wh.type2.entries(table, attr))
    out["index/tables"] = "".join(name + "\n" for name in wh.schemas)
    return out


def _save_and_check(wh, root: Path):
    """wh.save(root), then every saved file against _fresh_texts."""
    wh.save(root)
    saved = {path.relative_to(root).as_posix(): path.read_text()
             for path in root.rglob("*") if path.is_file()}
    want = _fresh_texts(wh)
    assert sorted(saved) == sorted(want)
    for name, text in want.items():
        assert saved[name] == text, f"{name} is not what the codecs give"


def _reload(wh, root: Path, built: bool):
    specs = SPECS + [cube_table_spec(wh, CUBE)] if built else SPECS
    return Warehouse.load(root, KM, specs, w=3)


def _check_answers(wh, products, facts, cube_current: bool):
    oracle = PlainWarehouse()
    oracle.add_table(PRODUCT, products)
    oracle.add_table(wh.schemas["Sales"], list(facts.values()),
                     derived=[("price_sq", "square", "price", None, 4)])
    for sql in QUERIES:
        assert execute(wh, sql)[1] == oracle.query(parse(sql)), sql
    if cube_current:
        for level, where, sql in CUBE_SLICES:
            assert cube_query(wh, CUBE, level, where=where)[1] == oracle.query(parse(sql)), sql


def _tamper_target(wh, facts, data):
    """A (pk, attr) of a Sales share LIAR stores, or None."""
    held = wh.csps[LIAR].held_pks("Sales")
    shares = [(pk, attr) for pk in held for attr in ("price", "qty")
              if facts[pk][attr] is not None]
    return data.draw(st.sampled_from(shares)) if shares else None


@settings(deadline=None)
@given(st.data())
def test_every_save_writes_what_the_codecs_give(data):
    products = [{"ProdNo": j, "pname": f"p{j}",
                 "category": data.draw(st.none() | st.sampled_from("abc"))}
                for j in range(1, N_PRODUCTS + 1)]
    wh = Warehouse(KM, w=3)
    for spec in SPECS:
        wh.create_table(*spec)
    wh.load_rows("Product", products)
    first = data.draw(st.lists(st.integers(1, 120), min_size=1, max_size=8, unique=True))
    facts = {pk: {"SaleNo": pk, **data.draw(_sale)} for pk in first}   # pk -> its row now
    wh.load_rows("Sales", facts.values())
    built = False            # the cube exists
    unfolded = list(facts)   # facts loaded since the cube's last build or refresh
    stale = False            # a fact folded into the cube has been re-shared since
    tampered = False         # LIAR holds a tampered share that no write has replaced
    with tempfile.TemporaryDirectory() as tmp:
        saves = 0
        for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=12)):
            if op == "new":
                pks = data.draw(st.lists(st.integers(1, 120), min_size=1, max_size=8,
                                         unique=True))
                rows = [{"SaleNo": pk, **data.draw(_sale)} for pk in pks if pk not in facts]
                wh.load_rows("Sales", rows)
                facts.update((row["SaleNo"], row) for row in rows)
                unfolded += [row["SaleNo"] for row in rows]
            elif op == "update":
                pks = data.draw(st.lists(st.sampled_from(sorted(facts)), min_size=1,
                                         max_size=5, unique=True))
                rows = [{"SaleNo": pk, **data.draw(_sale)} for pk in pks]
                wh.load_rows("Sales", rows)
                facts.update((row["SaleNo"], row) for row in rows)
                stale = stale or built and bool(set(pks) - set(unfolded))
            elif op == "tamper":
                target = _tamper_target(wh, facts, data)
                if target is not None:
                    wh.inject_tamper(LIAR, "Sales", *target, delta=data.draw(st.integers(1, 99)))
                    tampered = True
            elif op == "recover":
                # with t = 4 of 5 the one group of donors that excludes LIAR
                # cannot recover another provider
                i = LIAR if tampered else data.draw(st.integers(1, 5))
                wh.inject_failure(i)
                wh.recover_csp_shares(i)
                wh.heal(i)
                tampered = tampered and i != LIAR
            elif op == "cube":
                if not built:
                    cube_build(wh, CUBE)
                    built, stale = True, False
                elif unfolded:
                    cube_refresh(wh, CUBE, unfolded)
                unfolded = []
            if op == "reload" or data.draw(st.booleans()):   # a save after half the writes
                saves += 1
                root = Path(tmp) / f"save{saves}"
                _save_and_check(wh, root)
                if op == "reload":
                    wh = _reload(wh, root, built)
                    _check_answers(wh, products, facts, built and not stale and not unfolded)
        saves += 1
        _save_and_check(wh, Path(tmp) / f"save{saves}")
        back = _reload(wh, Path(tmp) / f"save{saves}", built)
        _check_answers(back, products, facts, built and not stale and not unfolded)
        _save_and_check(back, Path(tmp) / "again")


def test_type_two_reloaded_in_place_saves_what_it_loaded(tmp_path):
    """TypeTwoIndex.load refills an index in place and drops its kept
    text, so the next save writes what it loaded, not what it had."""
    wh = Warehouse(KM, w=3)
    for spec in SPECS:
        wh.create_table(*spec)
    wh.load_rows("Product", [{"ProdNo": 1, "pname": "p1", "category": "a"}])
    rows = [{"SaleNo": pk, "ProdNo": 1, "yearid": 2011, "monthid": 1, "price": pk, "qty": 1}
            for pk in range(1, 6)]
    wh.load_rows("Sales", rows)
    wh.save(tmp_path / "a")
    wh.load_rows("Sales", [{**rows[0], "qty": 7}])
    wh.save(tmp_path / "b")
    wh.type2.load(tmp_path / "a" / "index" / "type2", wh.schemas, wh.type1)
    wh.save(tmp_path / "c")
    qty = [(tmp_path / root / "index" / "type2" / "Sales.qty.idx").read_text()
           for root in "abc"]
    assert qty[0] != qty[1]
    assert qty[2] == qty[0]
