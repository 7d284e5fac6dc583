"""The benchmark's query shapes over a store whose index maps are not in pk order.

The read path keeps every group of primary keys as the ordered list the
filter and the grouping made, and the providers' kernels walk it as
given; a query without a filter hands the whole table over as Type I's
own pk -> bitmap map. This battery loads facts in shuffled pk order over
several batches, then re-shares some of them in place (group keys filed
anew, NULLs set and cleared), so Type I, the Type II maps and the share
columns hold their pks in orders that differ from each other and from pk
order. It then runs the six query shapes of the analytics benchmark
(plain SUM/COUNT/AVG, GROUP BY a fact attribute, JOIN with GROUP BY a
dimension attribute, VAR/MAX/MEDIAN under a WHERE, GROUP BY the primary
key over a BETWEEN, and the two cube slices) under a pinned
reconstruction group and checks:

- every answer against the plaintext `PlainWarehouse`;
- the bytes each provider sends per query against the rule the counters
  have always kept: 8 per share sum (one per summed column and group
  with a value), 8 per NULL mark it stores among the pks asked, and 8
  per share fetched to rebuild a MAX/MEDIAN record or a cube cell;
- that each kernel answers the same over a group given as a list in pk
  order, in another order, as a set, or as the whole table's Type I map.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, DerivedColumn, Schema, Warehouse, init_participants
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_query
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
SPEC = CubeSpec("by_month", "Sales", (CubeHierarchy(("yearid", "monthid")),), (
    CubeMeasure("sum", "price"), CubeMeasure("count"), CubeMeasure("avg", "price"),
))
# stored cube columns each cell read rebuilds: SUM, COUNT(*), AVG's SUM and COUNT
CUBE_COLUMNS = 4
YEARS = (2010, 2011, 2012)
RGS = list(combinations(range(1, 6), 4))

# the analytics benchmark's query shapes
SCALAR = "SELECT SUM(price), COUNT(*), AVG(qty) FROM Sales"
GROUP_ATTR = "SELECT monthid, SUM(price), COUNT(qty) FROM Sales GROUP BY monthid"
JOIN_GROUP = ("SELECT P.category, SUM(S.price) FROM Sales AS S "
              "JOIN Product AS P ON S.ProdNo = P.ProdNo GROUP BY P.category")
STATS = "SELECT VAR(price), MAX(price), MEDIAN(qty) FROM Sales WHERE yearid = {y}"
GROUP_PK = ("SELECT SaleNo, AVG(price), MAX(qty) FROM Sales "
            "WHERE SaleNo BETWEEN {a} AND {b} GROUP BY SaleNo")
CUBE_YEAR = ("SELECT yearid, SUM(price), COUNT(*), AVG(price) FROM Sales "
             "WHERE yearid >= {y} GROUP BY yearid")
CUBE_MONTH = ("SELECT yearid, monthid, SUM(price), COUNT(*), AVG(price) FROM Sales "
              "WHERE yearid = {y} GROUP BY yearid, monthid")

_price = st.one_of(st.none(), st.integers(-5000, 5000).map(lambda c: Fraction(c, 100)))
_qty = st.one_of(st.none(), st.integers(0, 9))


def _sale(n_products):
    return st.fixed_dictionaries({
        "ProdNo": st.integers(1, n_products),
        "yearid": st.sampled_from(YEARS),
        "monthid": st.integers(1, 4),
        "price": _price,
        "qty": _qty,
    })


@st.composite
def stores(draw):
    """(product rows, fact rows in load order split into batches, the
    in-place re-shares in order, and the final fact rows by pk)."""
    products = [{"ProdNo": j, "pname": f"p{j}",
                 "category": draw(st.one_of(st.none(), st.sampled_from("abc")))}
                for j in range(1, draw(st.integers(1, 4)) + 1)]
    pks = draw(st.lists(st.integers(1, 300), min_size=1, max_size=70, unique=True))
    facts = [{"SaleNo": pk, **draw(_sale(len(products)))} for pk in pks]   # drawn unsorted
    cuts = sorted(draw(st.lists(st.integers(0, len(facts)), max_size=3)))
    batches = [facts[a:b] for a, b in zip([0, *cuts], [*cuts, len(facts)])]
    final = {row["SaleNo"]: row for row in facts}
    updates = []
    for pk in draw(st.lists(st.sampled_from(pks), max_size=20)):
        row = {**final[pk], **draw(st.fixed_dictionaries({}, optional={
            "yearid": st.sampled_from(YEARS), "monthid": st.integers(1, 4),
            "price": _price, "qty": _qty,
        }))}
        updates.append(row)
        final[pk] = row
    return products, batches, updates, final


def _stores(bitmaps, pk, i):
    return bitmaps[pk][i - 1] == "1"


def _sum_bytes(rows, bitmaps, rg, groups, attr):
    """Per provider of rg, the bytes of SUM(attr) over groups: its NULL
    marks among their pks, and one share sum per group with a value.
    Returns them and the groups with a value."""
    live = [g for g in groups if any(rows[pk][attr] is not None for pk in g)]
    return {i: 8 * sum(1 for g in groups for pk in g
                       if rows[pk][attr] is None and _stores(bitmaps, pk, i)) + 8 * len(live)
            for i in rg}, live


def _fetch_bytes(bitmaps, rg, pks):
    """Per provider of rg, the bytes of rebuilding a number of each of pks."""
    return {i: 8 * sum(_stores(bitmaps, pk, i) for pk in pks) for i in rg}


def _add(total, part):
    for i, b in part.items():
        total[i] = total.get(i, 0) + b


def _extreme_pk(rows, groups, attr, fn):
    """The pk MAX or MEDIAN of attr picks in each group with a value."""
    out = []
    for g in groups:
        ranked = sorted((rows[pk][attr], pk) for pk in g if rows[pk][attr] is not None)
        if ranked:
            out.append((ranked[-1] if fn == "max" else ranked[(len(ranked) - 1) // 2])[1])
    return out


def _expected_bytes(rows, products, bitmaps, rg, shape, y, a, b):
    """Per provider, the bytes the shape's query sends back under rg."""
    total = {i: 0 for i in range(1, 6)}
    if shape == "scalar":
        groups = [list(rows)]
        _add(total, _sum_bytes(rows, bitmaps, rg, groups, "price")[0])
        _add(total, _sum_bytes(rows, bitmaps, rg, groups, "qty")[0])
    elif shape == "group_attr":
        groups = _group(rows, lambda r: r["monthid"])
        _add(total, _sum_bytes(rows, bitmaps, rg, groups, "price")[0])   # COUNT(qty) is indexed
    elif shape == "join_group":
        category = {p["ProdNo"]: p["category"] for p in products}
        groups = _group(rows, lambda r: category[r["ProdNo"]])
        _add(total, _sum_bytes(rows, bitmaps, rg, groups, "price")[0])
    elif shape == "stats":
        groups = [[pk for pk, r in rows.items() if r["yearid"] == y]]
        if groups[0]:
            moved, live = _sum_bytes(rows, bitmaps, rg, groups, "price")
            _add(total, moved)
            _add(total, _sum_bytes(rows, bitmaps, rg, live, "price")[0])   # its squares
            _add(total, _fetch_bytes(bitmaps, rg, _extreme_pk(rows, groups, "price", "max")))
            _add(total, _fetch_bytes(bitmaps, rg, _extreme_pk(rows, groups, "qty", "median")))
    else:
        groups = [[pk] for pk in rows if a <= pk <= b]
        _add(total, _sum_bytes(rows, bitmaps, rg, groups, "price")[0])
        _add(total, _fetch_bytes(bitmaps, rg, _extreme_pk(rows, groups, "qty", "max")))
    return total


def _group(rows, key):
    groups = {}
    for pk in sorted(rows):
        groups.setdefault(key(rows[pk]), []).append(pk)
    return list(groups.values())


def _moved(wh, read):
    before = {i: csp.bytes_transferred for i, csp in wh.csps.items()}
    got = read()
    return got, {i: csp.bytes_transferred - before[i] for i, csp in wh.csps.items()}


def _check_kernels(wh, rows):
    """Every kernel answers alike over a group given as a list in pk
    order, in reverse, or as a set, and over the whole table also as Type
    I's map; the groups are the whole table and its odd and even pks."""
    entries = wh.type1.entries["Sales"]
    p = KM.p
    odd = sorted(pk for pk in rows if pk % 2)
    even = sorted(pk for pk in rows if not pk % 2)
    groups = [sorted(rows), odd, even]
    forms = [[g, g[::-1], set(g)] for g in groups]
    forms[0].append(entries)
    for i, csp in wh.csps.items():
        for attr in ("price", "qty", "price_sq"):
            sums = [csp.share_sums("Sales", attr, [g]) for g in groups]
            assert (sums[1][0] + sums[2][0]) % p == sums[0][0]
            for g, same in zip(groups, forms):
                assert all(csp.share_sums("Sales", attr, [f]) == csp.share_sums("Sales", attr, [g])
                           for f in same)
                assert all(csp.null_pks("Sales", attr, f) == csp.null_pks("Sales", attr, g)
                           for f in same)
        pseudo = [wh.type1.pseudo_sums("Sales", [g], i, p)[0] for g in groups]
        assert (pseudo[1] + pseudo[2]) % p == pseudo[0]
        for g, same in zip(groups, forms):
            assert all(wh.type1.pseudo_sums("Sales", [f], i, p)[0] == pseudo[groups.index(g)]
                       for f in same)
    for attr in ("yearid", "monthid", "price", "qty"):
        for fn in ("count", "max", "min", "median"):
            for g, same in zip(groups, forms):
                want = wh.type2.aggregates("Sales", attr, fn, [g])
                assert all(wh.type2.aggregates("Sales", attr, fn, [f]) == want for f in same)


@settings(deadline=None)
@given(stores(), st.sampled_from(RGS), st.sampled_from(YEARS), st.integers(0, 300),
       st.integers(0, 120))
def test_bench_shapes_over_shuffled_and_reshared_facts(data, rg, y, a, width):
    products, batches, updates, rows = data
    wh = Warehouse(KM, w=3)
    wh.create_table(PRODUCT, index_attrs=("category",))
    wh.create_table(SALES, index_attrs=("yearid", "monthid", "price", "qty"), derived=(SQUARE,))
    wh.load_rows("Product", products[::-1])
    for batch in batches:
        wh.load_rows("Sales", batch)
    wh.load_rows("Sales", updates)
    cube_build(wh, SPEC)
    assert list(wh.type1.entries["Sales"]) == [r["SaleNo"] for batch in batches for r in batch]
    oracle = PlainWarehouse()
    oracle.add_table(PRODUCT, products)
    oracle.add_table(wh.schemas["Sales"], list(rows.values()),
                     derived=[("price_sq", "square", "price", None, 4)])
    bitmaps = wh.type1.entries["Sales"]
    b = a + width
    shapes = {"scalar": SCALAR, "group_attr": GROUP_ATTR, "join_group": JOIN_GROUP,
              "stats": STATS, "group_pk": GROUP_PK}
    for shape, sql in shapes.items():
        text = sql.format(y=y, a=a, b=b)
        got, moved = _moved(wh, lambda: execute(wh, text, rg=rg)[1])
        assert got == oracle.query(parse(text)), text
        assert moved == _expected_bytes(rows, products, bitmaps, rg, shape, y, a, b), text
    for level, where, sql in ((("yearid",), ("yearid", ">=", y), CUBE_YEAR),
                              (("yearid", "monthid"), ("yearid", "=", y), CUBE_MONTH)):
        got, moved = _moved(wh, lambda: cube_query(wh, SPEC, level, where=(where,), rg=rg)[1])
        assert got == oracle.query(parse(sql.format(y=y)))
        assert moved == {i: 8 * CUBE_COLUMNS * len(got) if i in rg else 0 for i in wh.csps}
    _check_kernels(wh, rows)
