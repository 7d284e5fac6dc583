"""What crosses into a provider: never a plaintext.

fVSS's privacy claim is about what a provider is handed. This battery
wraps every public method of `CspStore` and drives the whole warehouse
through them: `load_rows` of new and stored keys, the query suite (plain
SUM/COUNT, GROUP BY a fact attribute, JOIN with GROUP BY a dimension
attribute, VAR/MAX/MEDIAN under a WHERE, GROUP BY the primary key), a
cube build and refresh and a cube slice, `verify_all`,
`recover_csp_shares` of a failed provider, and a save/load round trip
with a query and a verify on the loaded store. It then checks every
argument of every call, walked through its lists, tuples, sets and dicts,
against the plaintexts: each data value, its order key (`typed_key`),
its chunk (the key plus the bias), a string's UTF-8 byte tuple (which is
its chunk tuple), and the SUM of every cube cell, with their keys and
chunks too.

It also checks that no provider holds or is handed a key: no object
reachable from any `CspStore`, through its attributes, its signature
trees and their containers, and no argument of any call, is a
`KeyMaterial`, a `KeyedSha256`, or bytes equal to the seed or to a
signing key HF*_i (`hf_star_keys`). The client signs every record, so a
provider cannot sign a share it changed.

Primary and foreign keys cross by design, and so do positions and counts;
bools (0/1) are left out of the check. Every other plaintext is drawn
from a range disjoint from pks, fks, positions and counts (numbers of at
least 1000, dates, strings of non-ASCII letters), so a match is a leak,
not a coincidence.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import tempfile
import types
from collections.abc import KeysView, ValuesView
from datetime import date, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import DEFAULT_BIAS, P_DEFAULT, Column, DerivedColumn, Schema, Warehouse
from fvss import init_participants
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_query, cube_refresh
from fvss.cube import cube_table
from fvss.keyed import KeyedSha256, KeyMaterial
from fvss.provider import CspStore
from fvss.query import execute
from fvss.sharing import typed_key

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
SECRETS = {KM.seed, *KM.hf_star_keys.values()}
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
    Column("paid", "bool"),
    Column("day", "date"),
))
SQUARE = DerivedColumn("Sales", "price_sq", "square", "price", scale=4)
SPEC = CubeSpec("by_year", "Sales", (
    CubeHierarchy(("yearid",)), CubeHierarchy(("category",), "Product", "ProdNo"),
), (CubeMeasure("sum", "price"), CubeMeasure("count"), CubeMeasure("avg", "price")))
QUERIES = (
    "SELECT SUM(price), COUNT(*), AVG(qty) FROM Sales",
    "SELECT monthid, SUM(price), COUNT(qty) FROM Sales GROUP BY monthid",
    "SELECT P.category, SUM(S.price) FROM Sales AS S "
    "JOIN Product AS P ON S.ProdNo = P.ProdNo GROUP BY P.category",
    "SELECT VAR(price), MAX(price), MEDIAN(qty) FROM Sales WHERE yearid >= 2012",
    "SELECT SaleNo, AVG(price), MAX(qty) FROM Sales WHERE SaleNo BETWEEN 1 AND 150 "
    "GROUP BY SaleNo",
)
# the provider methods the drive above must reach, so that the check is not vacuous
REACHED = {"create_table", "append_columns", "update_columns", "fetch_records", "fetch_shares",
           "null_pks", "share_sums", "reset_table", "slice_values", "verify", "held_pks",
           "save", "load"}

_text = st.text("αβγδΩπ", min_size=1, max_size=4)
_sale = st.fixed_dictionaries({
    "yearid": st.sampled_from((2011, 2012, 2013)),
    "monthid": st.integers(5001, 5012),
    "price": st.integers(100_000, 999_999).map(lambda c: Fraction(c, 100)),
    "qty": st.none() | st.integers(7000, 7999),
    "paid": st.booleans(),
    "day": st.integers(0, 2000).map(lambda d: date(2012, 1, 1) + timedelta(days=d)),
})


@st.composite
def stores(draw):
    """(products, facts in load order with repeated keys re-shared in
    place, in-place updates, new facts for the cube refresh)."""
    products = [{"ProdNo": j, "pname": draw(_text), "category": draw(_text)}
                for j in range(1, draw(st.integers(1, 4)) + 1)]

    def sale(pk):
        return {"SaleNo": pk, "ProdNo": draw(st.integers(1, len(products))), **draw(_sale)}

    pks = draw(st.lists(st.integers(1, 200), min_size=1, max_size=25, unique=True))
    facts = [sale(pk) for pk in pks + draw(st.lists(st.sampled_from(pks), max_size=5))]
    updates = [sale(pk) for pk in draw(st.lists(st.sampled_from(pks), min_size=1, max_size=5))]
    fresh = draw(st.lists(st.integers(201, 300), min_size=1, max_size=6, unique=True))
    return products, facts, updates, [sale(pk) for pk in fresh]


def _encodings(value, col: Column) -> set:
    """value, its order key and its chunk (a string's UTF-8 byte tuple)."""
    key = typed_key(value, col.kind, col.scale)
    chunk = tuple(key.encode("utf-8")) if col.kind == "string" else key + DEFAULT_BIAS
    return {value, key, chunk}


def _plaintexts(products, facts, updates, fresh) -> set:
    """Every data value of the rows loaded, of their derived column and of
    every cube SUM cell after the build and after the refresh, computed
    here from the rows, with their order keys and chunks; bools left out."""
    columns = [col for col in (*PRODUCT.columns, *SALES.columns) if col.kind not in ("key", "fk")]
    out = set()
    for row in products + facts + updates + fresh:
        for col in columns:
            if row.get(col.name) is not None and col.kind != "bool":
                out |= _encodings(row[col.name], col)
        if "price" in row:
            out |= _encodings(row["price"] ** 2, Column("price_sq", "real", scale=4))
    category = {row["ProdNo"]: row["category"] for row in products}
    built = {row["SaleNo"]: row for row in facts + updates}
    for rows in (built.values(), {**built, **{row["SaleNo"]: row for row in fresh}}.values()):
        for level in ((), ("yearid",), ("category",), ("yearid", "category")):
            cells = {}
            for row in rows:
                cell = tuple({**row, "category": category[row["ProdNo"]]}[d] for d in level)
                cells[cell] = cells.get(cell, 0) + row["price"]
            for total in cells.values():
                out |= _encodings(total, Column("sum_price", "real", scale=2))
    return out


def _atoms(value) -> list:
    """Every hashable object inside value, walked through lists, tuples,
    sets, dicts (keys and values) and dict views; a tuple counts itself
    too, so a byte tuple is found whole."""
    out, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple, set, frozenset, KeysView, ValuesView)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.keys())
            stack.extend(v.values())
        try:
            hash(v)
        except TypeError:
            continue
        out.append(v)
    return out


def _keys(value) -> list:
    """Every KeyMaterial, KeyedSha256 and bytes in SECRETS reachable from
    value: walked through lists, tuples, sets, dicts and dict views, the
    attributes of objects (__dict__ and __slots__), the object a bound
    method is bound to and the cells a function closes over."""
    out, seen, stack = [], set(), [value]
    while stack:
        v = stack.pop()
        if id(v) in seen or isinstance(v, (int, str, type, types.ModuleType)):
            continue
        seen.add(id(v))
        if isinstance(v, (KeyMaterial, KeyedSha256)) or (isinstance(v, bytes) and v in SECRETS):
            out.append(v)
        elif isinstance(v, dict):
            stack.extend(v.keys())
            stack.extend(v.values())
        elif isinstance(v, (list, tuple, set, frozenset, KeysView, ValuesView)):
            stack.extend(v)
        elif isinstance(v, types.MethodType):
            stack.append(v.__self__)
        elif isinstance(v, types.FunctionType):
            stack.extend(cell.cell_contents for cell in v.__closure__ or ())
        else:
            stack.extend(getattr(v, "__dict__", {}).values())
            stack.extend(getattr(v, name) for cls in type(v).__mro__
                         for name in getattr(cls, "__slots__", ()) if hasattr(v, name))
    return out


def _guard(monkeypatch, plaintexts) -> tuple[set, dict]:
    """Wrap every public CspStore method so that a call whose arguments
    (self left out) hold one of plaintexts or a key (_keys) fails at once,
    naming the method and what it was handed. Returns the set the wrapped
    methods add their names to as they are called, and id -> provider of
    every provider called."""
    called, providers = set(), {}
    for name, fn in list(vars(CspStore).items()):
        if name.startswith("_") or not callable(fn):
            continue

        def guarded(self, *args, _name=name, _fn=fn, **kwargs):
            called.add(_name)
            providers[id(self)] = self
            leaked = [atom for atom in _atoms([args, kwargs]) if atom in plaintexts]
            assert not leaked, f"CSP {self.index} {_name} was handed {leaked[:3]}"
            assert not _keys([args, kwargs]), f"CSP {self.index} {_name} was handed a key"
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(CspStore, name, guarded)
    return called, providers


def _drive(root, products, facts, updates, fresh):
    wh = Warehouse(KM, w=3)
    wh.create_table(PRODUCT, index_attrs=("category",))
    wh.create_table(SALES, index_attrs=("yearid", "monthid", "price", "qty"), derived=(SQUARE,))
    wh.load_rows("Product", products)
    wh.load_rows("Sales", facts)
    wh.load_rows("Sales", updates)   # stored keys: in place
    cube_build(wh, SPEC)
    wh.load_rows("Sales", fresh)
    cube_refresh(wh, SPEC, [row["SaleNo"] for row in fresh])
    for sql in QUERIES:
        execute(wh, sql)
    cube_query(wh, SPEC, ("yearid",))
    assert all(report.ok for report in wh.verify_all().values())
    wh.inject_failure(3)
    wh.recover_csp_shares(3)
    wh.heal(3)
    wh.save(root)
    back = Warehouse.load(root, KM, [(PRODUCT, ("category",), ()),
                                     (SALES, ("yearid", "monthid", "price", "qty"), (SQUARE,))]
                          + [(wh.schemas[cube_table(SPEC)], ("yearid", "category"), ())], w=3)
    execute(back, QUERIES[1])
    assert all(report.ok for report in back.verify_all().values())


@settings(deadline=None)
@given(stores())
def test_no_plaintext_crosses_into_a_provider(store):
    plaintexts = _plaintexts(*store)
    # disjoint from pks (at most 300), fks, positions and counts by construction
    assert not {v for v in plaintexts if type(v) is int and v < 1000}
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        called, providers = _guard(patch, plaintexts)
        _drive(root, *store)
    assert called >= REACHED
    # both stores' providers, the loaded ones with their trees parsed by verify_all
    assert len(providers) == 2 * KM.n
    assert not _keys(list(providers.values())), "a provider holds a key"
