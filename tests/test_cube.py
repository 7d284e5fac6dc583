"""Shared cube build, incremental refresh and level queries.

The plaintext warehouse oracle answers the same grouping at every
lattice level; cell counts and the per-year slices are frozen by hand
from the fixture rows.
"""

from fractions import Fraction

import pytest

from fvss.cube import (
    CubeHierarchy,
    CubeMeasure,
    CubeSpec,
    cube_build,
    cube_query,
    cube_refresh,
    cube_table,
    cube_table_spec,
    share_cell_chunk,
)
from fvss.errors import (
    CspUnavailable,
    InnerSignatureMismatch,
    MissingShare,
    NotIndexed,
    SchemaMismatch,
    UnknownRecordPosition,
    UnknownTable,
    UnsupportedFeature,
)
from fvss.query import execute, parse
from fvss.sharing import RECONSTRUCTIONS, Column, Schema, group_from_bitmap
from fvss.store import Warehouse

from .faults import report_null
from . import oracles
from .oracles import PlainWarehouse, eval_poly, interpolate_gauss

PRODUCT = Schema("Product", (
    Column("ProdNo", "key"),
    Column("category", "string"),
    Column("pname", "string"),
))
SALES = Schema("Sales", (
    Column("SaleNo", "key"),
    Column("ProdNo", "fk", fk_table="Product"),
    Column("yearid", "int"),
    Column("monthid", "int"),
    Column("price", "real", scale=2),
    Column("tax", "real", scale=2),
    Column("qty", "int"),
    Column("memo", "string"),
))

PRODUCTS = [
    {"ProdNo": 10, "category": "apparel", "pname": "Shirt"},
    {"ProdNo": 11, "category": "apparel", "pname": "Jacket"},
    {"ProdNo": 12, "category": "kitchen", "pname": "Mug"},
    {"ProdNo": 13, "category": "kitchen", "pname": "Kettle"},
]


def _sale(no, prod, year, month, price, tax, qty):
    return {
        "SaleNo": no, "ProdNo": prod, "yearid": year, "monthid": month,
        "price": Fraction(price, 100), "tax": Fraction(tax, 100),
        "qty": qty, "memo": None,
    }


SALES_BASE = [
    _sale(1, 10, 2013, 1, 5000, 400, 2),
    _sale(2, 10, 2013, 2, 2050, 164, 1),
    _sale(3, 11, 2013, 2, 9999, 800, None),
    _sale(4, 12, 2013, 2, 1000, 80, 4),
    _sale(5, 10, 2014, 1, 7525, 602, 3),
    _sale(6, 11, 2014, 1, 12000, 960, 1),
    _sale(7, 12, 2014, 1, 999, 80, 1),
    _sale(8, 12, 2014, 3, 2550, 204, None),
    _sale(9, 10, 2014, 3, 8000, 640, 2),
    _sale(10, 11, 2014, 3, 6025, 482, 5),
]
SALES_EXTRA = [
    _sale(11, 10, 2014, 1, 20000, 1600, 7),   # new maximum in existing cells
    _sale(12, 13, 2013, 1, 500, 40, None),    # first sale of Kettle, new cells
    _sale(13, 12, 2015, 2, 3000, 240, 3),     # opens a whole new year
]

SPEC = CubeSpec(
    name="sales",
    table="Sales",
    hierarchies=(
        CubeHierarchy(("yearid", "monthid")),
        CubeHierarchy(("category", "ProdNo"), table="Product", fk="ProdNo"),
    ),
    measures=(
        CubeMeasure("sum", "price"),
        CubeMeasure("sum", "qty"),
        CubeMeasure("count", None),
        CubeMeasure("count", "qty"),
        CubeMeasure("min", "price"),
        CubeMeasure("max", "price"),
        CubeMeasure("avg", "price"),
        CubeMeasure("sum", "price+tax"),
        CubeMeasure("sum", "price-tax"),
    ),
)
SUM_SPEC = CubeSpec(
    name="sums",
    table="Sales",
    hierarchies=(CubeHierarchy(("yearid",)),),
    measures=(
        CubeMeasure("sum", "price"),
        CubeMeasure("sum", "qty"),
        CubeMeasure("sum", "price+tax"),
        CubeMeasure("sum", "price-tax"),
    ),
)

LEVELS = [
    (),
    ("yearid",),
    ("yearid", "monthid"),
    ("category",),
    ("category", "ProdNo"),
    ("yearid", "category"),
    ("yearid", "monthid", "category"),
    ("yearid", "category", "ProdNo"),
    ("yearid", "monthid", "category", "ProdNo"),
]
GROUP_SQL = {
    "yearid": "S.yearid", "monthid": "S.monthid",
    "category": "P.category", "ProdNo": "S.ProdNo",
}
MEASURE_SQL = (
    "SUM(S.price), SUM(S.qty), COUNT(*), COUNT(S.qty), MIN(S.price), "
    "MAX(S.price), AVG(S.price), SUM(S.price + S.tax), SUM(S.price - S.tax)"
)


def level_sql(level, where=""):
    cols = [GROUP_SQL[a] for a in level]
    q = "SELECT " + ", ".join(cols + [MEASURE_SQL])
    q += " FROM Sales AS S JOIN Product AS P ON S.ProdNo = P.ProdNo"
    if where:
        q += f" WHERE {where}"
    if cols:
        q += " GROUP BY " + ", ".join(cols)
    return parse(q)


def fill_warehouse(km, sales):
    wh = Warehouse(km, w=3)
    wh.create_table(PRODUCT, index_attrs=("category",))
    wh.create_table(SALES, index_attrs=("yearid", "monthid", "price", "qty"))
    wh.load_rows("Product", PRODUCTS)
    wh.load_rows("Sales", sales)
    return wh


def plain_warehouse(sales):
    pw = PlainWarehouse()
    pw.add_table(PRODUCT, PRODUCTS)
    pw.add_table(SALES, sales)
    return pw


@pytest.fixture(scope="module")
def built(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    return wh


@pytest.fixture(scope="module")
def oracle_base():
    return plain_warehouse(SALES_BASE)


@pytest.fixture(scope="module")
def oracle_full():
    return plain_warehouse(SALES_BASE + SALES_EXTRA)


# build and level reads


def test_schema_columns_and_dedup(built):
    cols = [c.name for c in cube_table_spec(built, SPEC)[0].columns]
    # avg_price reuses sum_price and adds only its count column
    assert cols == [
        "cell", "yearid", "monthid", "category", "ProdNo",
        "sum_price", "sum_qty", "count_rows", "count_qty",
        "min_price", "max_price", "count_price",
        "sum_price_plus_tax", "sum_price_minus_tax",
    ]


def test_cell_count_covers_the_lattice(built):
    # by hand: 1 +2 +4 +2 +3 +4 +7 +6 +10 over the nine level combos
    assert len(built.type1.pks(cube_table(SPEC))) == 39


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: "x".join(l) or "total")
def test_level_matches_plaintext_oracle(built, oracle_base, level):
    _, rows = cube_query(built, SPEC, level)
    assert rows == oracle_base.query(level_sql(level))


def test_headers_name_level_then_measures(built):
    headers, _ = cube_query(built, SPEC, ("yearid", "category"))
    assert headers == [
        "yearid", "category", "sum_price", "sum_qty", "count_rows",
        "count_qty", "min_price", "max_price", "avg_price",
        "sum_price_plus_tax", "sum_price_minus_tax",
    ]


def test_per_year_slice_frozen(built):
    _, rows = cube_query(built, SPEC, ("yearid",))
    assert rows == [
        (2013, Fraction(18049, 100), 7, 4, 3, Fraction(1000, 100),
         Fraction(9999, 100), Fraction(18049, 400), Fraction(19493, 100),
         Fraction(16605, 100)),
        (2014, Fraction(37099, 100), 12, 6, 5, Fraction(999, 100),
         Fraction(12000, 100), Fraction(37099, 600), Fraction(40067, 100),
         Fraction(34131, 100)),
    ]


def test_drill_down_into_one_year(built):
    _, rows = cube_query(built, SPEC, ("yearid", "monthid"),
                         where=[("yearid", "=", 2014)])
    months = [(r[0], r[1], r[2]) for r in rows]
    assert months == [
        (2014, 1, Fraction(20524, 100)),
        (2014, 3, Fraction(16575, 100)),
    ]


def test_where_narrows_within_level(built, oracle_base):
    _, rows = cube_query(built, SPEC, ("yearid", "category"),
                         where=[("category", "=", "kitchen")])
    assert rows == oracle_base.query(
        level_sql(("yearid", "category"), where="P.category = 'kitchen'")
    )


def test_empty_slice_returns_no_rows(built):
    _, rows = cube_query(built, SPEC, ("yearid",), where=[("yearid", "=", 1999)])
    assert rows == []


def test_where_operands_read_as_query_literals(built):
    """cube_query's where operands go through the query's literal route: a
    fractional year (as `--where yearid=2014.1` parses) matches no year
    instead of truncating to 2014, and text reads as a number would in
    a query."""
    _, rows = cube_query(built, SPEC, ("yearid",), where=[("yearid", "=", Fraction(20141, 10))])
    assert rows == []
    _, rows = cube_query(built, SPEC, ("yearid",), where=[("yearid", "<", Fraction(20135, 10))])
    assert rows == cube_query(built, SPEC, ("yearid",), where=[("yearid", "<=", 2013)])[1] != []
    assert cube_query(built, SPEC, ("yearid",), where=[("yearid", "between", ("2013", "2014"))]) \
        == cube_query(built, SPEC, ("yearid",))


def test_grand_total_is_a_single_row(built):
    _, rows = cube_query(built, SPEC, ())
    assert len(rows) == 1


def test_avg_agrees_with_stored_sum_and_count(built):
    # price is never null here, so its count equals the row count
    _, rows = cube_query(built, SPEC, ("category",))
    for row in rows:
        total, count, avg = row[1], row[3], row[7]
        assert avg == Fraction(total) / count


def test_parent_cells_sum_their_children(built):
    _, years = cube_query(built, SPEC, ("yearid",))
    _, months = cube_query(built, SPEC, ("yearid", "monthid"))
    for year_row in years:
        children = [m for m in months if m[0] == year_row[0]]
        assert sum(r[2] for r in children) == year_row[1]   # sum_price
        assert sum(r[4] for r in children) == year_row[3]   # count_rows


# storage shape


def test_cube_rows_live_at_every_provider(built):
    table = cube_table(SPEC)
    for pk in built.type1.pks(table):
        assert built.type1.bitmap(table, pk) == "1" * 5
        for csp in built.csps.values():
            assert csp.fetch_share(table, pk, "sum_price") is not None


def test_a_loaded_store_holds_numbers_as_ints_and_strings_as_tuples(built, km_big, tmp_path):
    """Every share a loaded store holds is one int for a number, base
    columns and cube measures alike, and a tuple of chunks for a string."""
    built.save(tmp_path)
    specs = [(PRODUCT, ("category",), ()), (SALES, ("yearid", "monthid", "price", "qty"), ()),
             cube_table_spec(built, SPEC)]
    back = Warehouse.load(tmp_path, km_big, specs, w=3)
    seen = set()
    for csp in back.csps.values():
        for table, columns in csp.columns.items():
            for attr, column in columns.items():
                kind = back.schemas[table].column(attr).kind
                want = tuple if kind == "string" else int
                assert all(type(share) is want for share in column.values()), (table, attr)
                if column:
                    seen.add((table, kind))
    assert {("Product", "string"), ("Sales", "int"), ("Sales", "real"),
            (cube_table(SPEC), "string"), (cube_table(SPEC), "real")} <= seen


def test_cell_shares_carry_the_inner_signature(built, km_big):
    km = km_big
    table = cube_table(SPEC)
    pk = built.type1.pks(table)[0]
    points = [
        (km.x_id(i), built.csps[i].fetch_share(table, pk, "sum_price"))
        for i in (1, 2, 3, 4)
    ]
    coeffs = interpolate_gauss(points, km.p)
    fifth = built.csps[5].fetch_share(table, pk, "sum_price")
    assert eval_poly(coeffs, km.x_id(5), km.p) == fifth
    total = eval_poly(coeffs, km.x_kd, km.p)
    assert eval_poly(coeffs, km.x_ks, km.p) == km.he1(total)


def test_filler_shares_are_deterministic(km_big):
    a = share_cell_chunk(km_big, "cube:x", 7, "sum_price", 0, 123456)
    b = share_cell_chunk(km_big, "cube:x", 7, "sum_price", 0, 123456)
    assert a == b
    assert len(set(a.values())) == 5


def test_every_reconstruction_group_agrees(built):
    baseline = cube_query(built, SPEC, ("category",), rg=(1, 2, 3, 4))
    for rg in [(1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]:
        assert cube_query(built, SPEC, ("category",), rg=rg) == baseline


def test_reads_survive_one_failed_provider(built, oracle_base):
    built.inject_failure(2)
    try:
        _, rows = cube_query(built, SPEC, ("yearid",))
        assert rows == oracle_base.query(level_sql(("yearid",)))
    finally:
        built.heal(2)


def _year_cell(wh, spec):
    """The pk of a cube cell at the (yearid,) level."""
    table = cube_table(spec)
    years = wh.type2.value_map(table, "yearid")
    finer = [wh.type2.value_map(table, c.name) for c in cube_table_spec(wh, spec)[0].columns[2:5]]
    return min(pk for pk in years if not any(pk in vm for vm in finer))


def test_query_rotates_past_a_tampered_cell_share(km_big):
    """One provider of the cheapest reconstruction group holds a wrong
    share of one cell's SUM: an unpinned slice rotates past it to the
    untampered rows, a pinned group holding it fails loudly."""
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    want = cube_query(wh, SPEC, ("yearid",))
    rg = wh.choose_rg()
    wh.inject_tamper(rg[0], cube_table(SPEC), _year_cell(wh, SPEC), "sum_price")
    assert cube_query(wh, SPEC, ("yearid",)) == want
    with pytest.raises(InnerSignatureMismatch):
        cube_query(wh, SPEC, ("yearid",), rg=rg)


def _cube_state(wh, table):
    """Type I pks and every provider's stored cells of a cube table."""
    return (wh.type1.pks(table), [
        [(r.pk, dict(r.shares)) for r in wh.csps[i].tables[table]] for i in sorted(wh.csps)
    ])


# a pinned reconstruction group, the providers failed first, and the
# error every read pinned to it raises
BAD_RGS = [
    ((1, 2, 3, 9), (), CspUnavailable),
    ((1, 2, 3), (), MissingShare),
    ((1, 2, 3, 4), (2,), CspUnavailable),
]


def test_explicit_rg_is_checked_before_any_write(km_big):
    """An rg passed to cube_build or cube_refresh raises what a query
    pinned to it raises before the cube table is created or a cell is
    written, so a retry without it succeeds."""
    wh = fill_warehouse(km_big, SALES_BASE)
    table = cube_table(SPEC)
    for rg, failed, err in BAD_RGS:
        for i in failed:
            wh.inject_failure(i)
        with pytest.raises(err):
            execute(wh, "SELECT SUM(price) FROM Sales", rg=rg)
        with pytest.raises(err):
            cube_build(wh, SPEC, rg=rg)
        for i in failed:
            wh.heal(i)
        assert table not in wh.schemas
        assert all(table not in csp.pks for csp in wh.csps.values())
    assert cube_build(wh, SPEC) == 39

    new = [SALES_EXTRA[0]["SaleNo"]]
    wh.insert("Sales", SALES_EXTRA[0])
    before = _cube_state(wh, table)
    for rg, failed, err in BAD_RGS:
        for i in failed:
            wh.inject_failure(i)
        with pytest.raises(err):
            cube_refresh(wh, SPEC, new, rg=rg)
        for i in failed:
            wh.heal(i)
        assert _cube_state(wh, table) == before
    assert cube_refresh(wh, SPEC, new) > 0


# every entry point that reads through a reconstruction group, called
# with a pinned one
PINNED_READS = [
    ("execute", lambda wh, rg: execute(wh, "SELECT SUM(price) FROM Sales", rg=rg)),
    ("cube_query", lambda wh, rg: cube_query(wh, SPEC, ("yearid",), rg=rg)),
    ("cube_build", lambda wh, rg: cube_build(wh, SUM_SPEC, rg=rg)),
    ("cube_refresh", lambda wh, rg: cube_refresh(wh, SPEC, [11], rg=rg)),
    ("reconstruct_values", lambda wh, rg: wh.reconstruct_values("Sales", "price", [1, 2], rg)),
    ("reconstruct_values of the key",
     lambda wh, rg: wh.reconstruct_values("Sales", "SaleNo", [1, 2], rg)),
    ("reconstruct_record", lambda wh, rg: wh.reconstruct_record("Sales", 1, rg)),
    ("reconstruct_table", lambda wh, rg: wh.reconstruct_table("Sales", rg)),
    ("recover_csp_shares", lambda wh, rg: wh.recover_csp_shares(5, rg)),
]


def _provider_state(wh):
    """Type I and every provider's slice of every table."""
    return (
        {table: dict(bitmaps) for table, bitmaps in wh.type1.entries.items()},
        [[csp.slice_values(schema) for schema in wh.schemas.values()]
         for csp in wh.csps.values()],
    )


def test_every_read_checks_a_pinned_rg_alike(km_big):
    """Every entry point that reads raises the same error for the same
    bad pinned group, before it writes anything."""
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    wh.insert("Sales", SALES_EXTRA[0])
    before = _provider_state(wh)
    for rg, failed, err in BAD_RGS:
        for name, read in PINNED_READS:
            for i in failed:
                wh.inject_failure(i)
            try:
                with pytest.raises(err):
                    read(wh, rg)
            finally:
                for i in failed:
                    wh.heal(i)
            assert _provider_state(wh) == before, name


def _tamper_in_cheapest_rg(wh, table, pk, attr):
    """Tamper attr of pk at a member of the cheapest reconstruction group
    that stores it; returns that group."""
    rg = wh.choose_rg()
    stored = group_from_bitmap(wh.type1.bitmap(table, pk)).sg
    wh.inject_tamper(min(set(rg) & stored), table, pk, attr)
    return rg


def test_record_reads_rotate_past_a_tampered_share(km_big):
    """An unpinned reconstruct_value or reconstruct_record reads past a
    share that fails the inner signature, as a row query does; a pinned
    group that holds it raises."""
    wh = fill_warehouse(km_big, SALES_BASE)
    rg = _tamper_in_cheapest_rg(wh, "Sales", 1, "price")
    assert wh.reconstruct_value("Sales", 1, "price") == Fraction(50)
    assert wh.reconstruct_record("Sales", 1) == SALES_BASE[0]
    assert execute(wh, "SELECT price FROM Sales WHERE SaleNo = 1")[1] == [(Fraction(50),)]
    with pytest.raises(InnerSignatureMismatch):
        wh.reconstruct_value("Sales", 1, "price", rg=rg)
    with pytest.raises(InnerSignatureMismatch):
        wh.reconstruct_record("Sales", 1, rg=rg)


def test_build_rotates_past_a_tampered_base_share(km_big):
    """An unpinned build reads every level past a fact share that fails
    the inner signature and stores the cube an untampered build stores."""
    wh = fill_warehouse(km_big, SALES_BASE)
    _tamper_in_cheapest_rg(wh, "Sales", 1, "price")
    assert cube_build(wh, SPEC) == 39
    whole = fill_warehouse(km_big, SALES_BASE)
    cube_build(whole, SPEC)
    table = cube_table(SPEC)
    assert _cube_state(wh, table) == _cube_state(whole, table)


def test_refresh_reads_every_level_before_writing(km_big):
    """A refresh whose read fails at the finest level writes no cell, so
    a retry through another group adds each new fact once."""
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    sale = _sale(11, 10, 2014, 1, 3000, 240, 7)
    wh.insert("Sales", sale)
    table = cube_table(SPEC)
    # a refresh reconstructs no cube cell; it reads sale 5's price only at
    # the finest level, as the MAX of the cell (2014, 1, apparel, 10)
    wh.inject_tamper(1, "Sales", 5, "price")
    before = _cube_state(wh, table)
    with pytest.raises(InnerSignatureMismatch):
        cube_refresh(wh, SPEC, [11], rg=(1, 2, 3, 4))
    assert _cube_state(wh, table) == before
    cube_refresh(wh, SPEC, [11], rg=(2, 3, 4, 5))
    oracle = plain_warehouse(SALES_BASE + [sale])
    for level in LEVELS:
        assert cube_query(wh, SPEC, level)[1] == oracle.query(level_sql(level))


def test_refresh_refuses_two_cells_of_one_dimension_key(km_big, tmp_path):
    """A saved cube whose index gives two cells one dimension key is
    refused by a refresh, naming the cube table and the key, before
    anything is written: folding new facts into one of the two would
    leave the key's total split across two rows."""
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SUM_SPEC)
    wh.save(tmp_path)
    table = cube_table(SUM_SPEC)
    path = tmp_path / "index" / "type2" / f"{table}.yearid.idx"
    assert path.read_text() == "[2013, 2]\n[2014, 3]\n"
    path.write_text("[2013, 2]\n[2013, 3]\n")
    specs = [(PRODUCT, ("category",), ()), (SALES, ("yearid", "monthid", "price", "qty"), ()),
             cube_table_spec(wh, SUM_SPEC)]
    back = Warehouse.load(tmp_path, km_big, specs, w=3)
    back.insert("Sales", SALES_EXTRA[0])

    def state():
        return _cube_state(back, table), dict(back.type2.value_map(table, "yearid"))

    before = state()
    with pytest.raises(SchemaMismatch) as caught:
        cube_refresh(back, SUM_SPEC, [11])
    assert str(caught.value) == "cube:sums has cells [2, 3] of one dimension key (2013,)"
    assert state() == before


def test_build_needs_every_provider(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    wh.inject_failure(4)
    with pytest.raises(CspUnavailable):
        cube_build(wh, SPEC)


def test_build_failing_part_way_leaves_no_cube(km_big, monkeypatch):
    """A lattice level whose measure raises stops the build before the
    cube table is created: no cube is registered or stored, a slice of a
    level that was read raises UnknownTable instead of answering, and a
    second build stores at every provider what a clean build stores."""
    import fvss.cube as cube_module

    real = cube_module.aggregate_groups
    calls = []

    def failing(wh, table, agg, groups, rg):
        calls.append(agg)
        # levels () and (category,) pass, (category, ProdNo) fails
        if len(calls) > 2 * len(cube_module._measure_layout(SPEC, SALES).stored):
            raise InnerSignatureMismatch("injected")
        return real(wh, table, agg, groups, rg)

    wh = fill_warehouse(km_big, SALES_BASE)
    monkeypatch.setattr(cube_module, "aggregate_groups", failing)
    with pytest.raises(InnerSignatureMismatch, match="injected"):
        cube_build(wh, SPEC)
    monkeypatch.undo()
    table = cube_table(SPEC)
    assert table not in wh.schemas
    assert all(table not in csp.pks for csp in wh.csps.values())
    with pytest.raises(UnknownTable):
        cube_query(wh, SPEC, ("category",))
    assert cube_build(wh, SPEC) == 39
    whole = fill_warehouse(km_big, SALES_BASE)
    cube_build(whole, SPEC)
    schema = whole.schemas[table]
    for i, csp in wh.csps.items():
        assert csp.slice_values(schema) == whole.csps[i].slice_values(schema)
    assert all(r.ok for r in wh.verify_all().values())


def test_refresh_needs_every_provider(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    wh.insert("Sales", SALES_EXTRA[0])
    wh.inject_failure(1)
    with pytest.raises(CspUnavailable):
        cube_refresh(wh, SPEC, [11])


# refresh


@pytest.fixture(scope="module")
def refreshed(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    for row in SALES_EXTRA:
        wh.insert("Sales", row)
    touched = cube_refresh(wh, SPEC, [r["SaleNo"] for r in SALES_EXTRA])
    return wh, touched


def test_refresh_reports_touched_cells(refreshed):
    _, touched = refreshed
    assert touched == 24


def test_refresh_equals_full_rebuild(refreshed, km_big, oracle_full):
    wh, _ = refreshed
    rebuilt = fill_warehouse(km_big, SALES_BASE + SALES_EXTRA)
    cube_build(rebuilt, SPEC)
    table = cube_table(SPEC)
    assert len(wh.type1.pks(table)) == len(rebuilt.type1.pks(table)) == 49
    for level in LEVELS:
        incremental = cube_query(wh, SPEC, level)
        assert incremental == cube_query(rebuilt, SPEC, level)
        assert incremental[1] == oracle_full.query(level_sql(level))


def test_refresh_moves_the_extrema(refreshed):
    wh, _ = refreshed
    _, rows = cube_query(wh, SPEC, ())
    assert rows[0][4] == Fraction(500, 100)     # new minimum from the Kettle
    assert rows[0][5] == Fraction(20000, 100)   # new maximum from sale 11


def test_refresh_with_no_new_rows_is_a_no_op(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    before = cube_query(wh, SPEC, ("yearid",))
    assert cube_refresh(wh, SPEC, []) == 0
    assert cube_query(wh, SPEC, ("yearid",)) == before


def test_sum_cells_refresh_without_reconstruction(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SUM_SPEC)
    for row in SALES_EXTRA:
        wh.insert("Sales", row)
    RECONSTRUCTIONS.reset()
    cube_refresh(wh, SUM_SPEC, [r["SaleNo"] for r in SALES_EXTRA])
    assert RECONSTRUCTIONS.count == 0
    _, rows = cube_query(wh, SUM_SPEC, ("yearid",))
    assert [r[:2] for r in rows] == [
        (2013, Fraction(18549, 100)),
        (2014, Fraction(57099, 100)),
        (2015, Fraction(3000, 100)),
    ]


COUNT_SPEC = CubeSpec(
    name="counts",
    table="Sales",
    hierarchies=(CubeHierarchy(("yearid", "monthid")),),
    measures=(CubeMeasure("count"), CubeMeasure("count", "qty"), CubeMeasure("avg", "price")),
)


def test_count_cells_refresh_without_reconstruction(km_big):
    """COUNT cells add A_i times the new count in share space, as SUM
    cells add their share sums: a SUM/COUNT/AVG refresh rebuilds no
    value, and answers as a fresh build does."""
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, COUNT_SPEC)
    for row in SALES_EXTRA:
        wh.insert("Sales", row)
    RECONSTRUCTIONS.reset()
    cube_refresh(wh, COUNT_SPEC, [r["SaleNo"] for r in SALES_EXTRA])
    assert RECONSTRUCTIONS.count == 0
    rebuilt = fill_warehouse(km_big, SALES_BASE + SALES_EXTRA)
    cube_build(rebuilt, COUNT_SPEC)
    for level in ((), ("yearid",), ("yearid", "monthid")):
        assert cube_query(wh, COUNT_SPEC, level) == cube_query(rebuilt, COUNT_SPEC, level)


DELTA_SPEC = CubeSpec(
    name="deltas",
    table="Sales",
    hierarchies=(CubeHierarchy(("yearid", "monthid")),),
    measures=(CubeMeasure("sum", "price+tax"), CubeMeasure("sum", "price-tax"),
              CubeMeasure("count", "qty")),
)


def test_refresh_deltas_equal_the_old_delta_rule(km_big, monkeypatch):
    """A SUM or COUNT cell's delta is its share-space part plus the
    provider's share_cell_chunk of a plaintext correction. Every
    provider's cube .shares equals what the rule it replaced writes: a
    SUM's share sums minus a separate bias correction, a COUNT's A_i
    times k, each plus the cell's zero-sharing. The new facts have NULL
    qty values, in existing cells and in new ones."""
    import fvss.cube as cube_module
    from fvss.provider import _shares_text

    later = [_sale(14, 11, 2014, 3, 700, 56, None), _sale(15, 10, 2013, 2, 300, 24, 2),
             _sale(16, 13, 2015, 2, 450, 36, None)]

    def refreshed():
        wh = fill_warehouse(km_big, SALES_BASE)
        cube_build(wh, DELTA_SPEC)
        for rows in (SALES_EXTRA, later):
            wh.load_rows("Sales", rows)
            cube_refresh(wh, DELTA_SPEC, [r["SaleNo"] for r in rows])
        schema = wh.schemas[cube_table(DELTA_SPEC)]
        return [_shares_text(schema, *csp.slice_values(schema))
                for _, csp in sorted(wh.csps.items())]

    current = refreshed()
    monkeypatch.setattr(cube_module, "_cell_changes", oracles.cell_changes)
    assert current == refreshed()


def test_refresh_hides_cell_changes_from_a_provider_with_old_files(km_big):
    """The ratio attack on refreshes: provider 1 keeps its cube file from
    before each refresh. Were a cell's change in its share A_1 times the
    change in its value, one known change (the grand total of COUNT(*)
    grows by the number of new facts) would give A_1, which is the same
    for every cell and measure, and then every other change. Each rewrite
    adds a fresh zero-sharing, so the decoded changes are noise."""
    spec = CubeSpec("ratio", "Sales", (CubeHierarchy(("yearid", "monthid")),),
                    (CubeMeasure("count"), CubeMeasure("max", "price")))
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, spec)
    table, p = cube_table(spec), km_big.p
    csp = wh.csps[1]
    dims = [wh.type2.value_map(table, attr) for attr in ("yearid", "monthid")]
    (total,) = [pk for pk in wh.type1.pks(table) if not any(pk in vm for vm in dims)]
    cells = wh.type1.pks(table)
    measures = {"count_rows": 1, "max_price": 100}   # encoded units per plaintext unit

    def refresh(rows):
        """Per measure and cell, provider 1's share change and the true
        change of the encoded value."""
        shares = {m: csp.fetch_shares(table, m, cells) for m in measures}
        values = {m: wh.reconstruct_values(table, m, cells) for m in measures}
        wh.load_rows("Sales", rows)
        cube_refresh(wh, spec, [r["SaleNo"] for r in rows])
        return {
            m: [((new - old) % p, (b - a) * unit % p) for old, new, a, b in zip(
                shares[m], csp.fetch_shares(table, m, cells),
                values[m], wh.reconstruct_values(table, m, cells))]
            for m, unit in measures.items()
        }

    first = refresh([_sale(11, 10, 2014, 1, 3000, 240, 1)])
    share_change, value_change = first["count_rows"][cells.index(total)]
    assert value_change == 1
    a_1 = share_change * pow(value_change, -1, p) % p
    second = refresh([_sale(12, 10, 2013, 2, 15000, 1200, 1), _sale(13, 11, 2013, 2, 700, 56, 2),
                      _sale(14, 12, 2014, 1, 4000, 320, 1), _sale(15, 10, 2014, 3, 9000, 720, 3),
                      _sale(16, 11, 2014, 3, 100, 8, 1)])
    # the cells with new facts, each rewritten; the seventh, (2013, 1), is not
    touched = [k for k, (_, truth) in enumerate(second["count_rows"]) if truth]
    decoded = [(second[m][k][0] * pow(a_1, -1, p) % p, second[m][k][1])
               for m in measures for k in touched]
    assert len(decoded) == 2 * 6
    assert not any(guess == truth for guess, truth in decoded)


def test_sum_only_build_never_reconstructs(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    RECONSTRUCTIONS.reset()
    cube_build(wh, SUM_SPEC)
    assert RECONSTRUCTIONS.count == 0


def test_refresh_refuses_disagreeing_null_marks(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SUM_SPEC)
    for row in SALES_EXTRA:
        wh.insert("Sales", row)
    liar = min(group_from_bitmap(wh.type1.bitmap("Sales", 11)).sg)
    report_null(wh, liar, "Sales", 11, "qty")
    with pytest.raises(InnerSignatureMismatch, match="NULL marks of qty"):
        cube_refresh(wh, SUM_SPEC, [r["SaleNo"] for r in SALES_EXTRA])


def test_refresh_rejects_unknown_facts(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    with pytest.raises(UnknownRecordPosition):
        cube_refresh(wh, SPEC, [999])


def test_refresh_before_build_fails(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    with pytest.raises(UnknownTable):
        cube_refresh(wh, SPEC, [1])


# validation


def test_level_must_prefix_each_hierarchy(built):
    with pytest.raises(SchemaMismatch, match="prefix"):
        cube_query(built, SPEC, ("monthid",))
    with pytest.raises(SchemaMismatch, match="prefix"):
        cube_query(built, SPEC, ("ProdNo",))


def test_unknown_level_attribute(built):
    with pytest.raises(SchemaMismatch, match="not cube dimensions"):
        cube_query(built, SPEC, ("bogus",))


def test_where_must_target_the_level(built):
    with pytest.raises(SchemaMismatch, match="aggregated away"):
        cube_query(built, SPEC, ("yearid",), where=[("category", "=", "apparel")])


def _spec(hierarchies, measures):
    return CubeSpec("bad", "Sales", hierarchies, measures)


def test_dimension_checks(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cases = [
        (_spec((CubeHierarchy(()),), SPEC.measures), SchemaMismatch),
        (_spec((CubeHierarchy(("yearid",)), CubeHierarchy(("yearid",))),
               SPEC.measures), SchemaMismatch),
        (_spec((CubeHierarchy(("tax",)),), SPEC.measures), NotIndexed),
        (_spec((CubeHierarchy(("pname",), table="Product", fk="ProdNo"),),
               SPEC.measures), NotIndexed),
        (_spec((CubeHierarchy(("category",), table="Product"),),
               SPEC.measures), SchemaMismatch),
        (_spec((CubeHierarchy(("category",), table="Product", fk="qty"),),
               SPEC.measures), SchemaMismatch),
        (_spec((CubeHierarchy(("category",), table="Nowhere", fk="ProdNo"),),
               SPEC.measures), UnknownTable),
    ]
    for spec, err in cases:
        with pytest.raises(err):
            cube_table_spec(wh, spec)


def test_measure_checks(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    hier = (CubeHierarchy(("yearid",)),)
    cases = [
        (_spec(hier, (CubeMeasure("mode", "price"),)), UnsupportedFeature),
        (_spec(hier, (CubeMeasure("min", "price+tax"),)), UnsupportedFeature),
        (_spec(hier, (CubeMeasure("count", "price+tax"),)), UnsupportedFeature),
        (_spec(hier, (CubeMeasure("sum", "memo"),)), UnsupportedFeature),
        (_spec(hier, (CubeMeasure("sum", None),)), SchemaMismatch),
        (_spec(hier, (CubeMeasure("sum", "price+qty"),)), SchemaMismatch),
        (_spec(hier, (CubeMeasure("max", None),)), UnsupportedFeature),
    ]
    for spec, err in cases:
        with pytest.raises(err):
            cube_table_spec(wh, spec)


def test_null_dimension_value_is_rejected(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    wh.insert("Sales", _sale(99, 12, 2015, None, 100, 8, 1))
    with pytest.raises(SchemaMismatch, match="NULL dimension"):
        cube_build(wh, SPEC)
    assert cube_table(SPEC) not in wh.schemas


def test_refresh_rejects_a_null_dimension_before_writing(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    cube_build(wh, SPEC)
    table = cube_table(SPEC)
    before = _cube_state(wh, table)
    wh.insert("Sales", SALES_EXTRA[0])   # a valid fact, refreshed first
    wh.insert("Sales", _sale(99, 12, 2015, None, 100, 8, 1))
    with pytest.raises(SchemaMismatch, match="NULL dimension"):
        cube_refresh(wh, SPEC, [SALES_EXTRA[0]["SaleNo"], 99])
    assert _cube_state(wh, table) == before


def test_cube_for_unknown_fact_table(km_big):
    wh = fill_warehouse(km_big, SALES_BASE)
    with pytest.raises(UnknownTable):
        cube_table_spec(wh, CubeSpec("x", "Missing", (CubeHierarchy(("a",)),),
                                 (CubeMeasure("count", None),)))
