import random
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest

from fvss import Column, DerivedColumn, Schema, Warehouse, group_from_bitmap
from fvss.errors import (
    CspUnavailable,
    InnerSignatureMismatch,
    MissingShare,
    MissingTypeThreeColumn,
    NotEnoughAliveCsps,
    NotIndexed,
    QuerySyntaxError,
    SchemaMismatch,
    UnknownTable,
    UnsupportedFeature,
)
from fvss.query import (
    Aggregate,
    AttrRef,
    Combo,
    PlannedAgg,
    Star,
    aggregate_groups,
    exec_sum,
    execute,
    parse,
    plan,
)

from .faults import report_null
from .oracles import PlainWarehouse, eval_poly, get_record, interpolate_gauss, record_sig

FIG9 = """SELECT SUM(S.price+S.tax) AS sumprice, P.prodName FROM Sale AS S
JOIN Product AS P ON S.ProdNo=P.ProdNo
JOIN Date AS D ON S.DateKey=D.DateKey
WHERE D.Date BETWEEN '2014-01-01' AND '2014-01-15'
GROUP BY P.prodName"""


# parsing


def test_fig9_query_shape():
    q = parse(FIG9)
    assert q.table == "Sale" and q.alias == "S"
    assert [j.table for j in q.joins] == ["Product", "Date"]
    assert len(q.select) == 2
    agg = q.select[0].expr
    assert isinstance(agg, Aggregate) and agg.fn == "sum"
    assert isinstance(agg.arg, Combo) and agg.arg.op == "+"
    assert q.select[0].alias == "sumprice"
    (pred,) = q.where
    assert pred.op == "between" and pred.operand == ("2014-01-01", "2014-01-15")
    assert q.group_by == (AttrRef("P", "prodName"),)


def test_minimal_select():
    q = parse("SELECT x FROM t")
    assert q.table == "t" and q.alias is None
    assert q.select[0].expr == AttrRef(None, "x")
    assert q.joins == () and q.where == () and q.group_by == ()


def test_count_star_shape():
    q = parse("SELECT COUNT(*) FROM t")
    agg = q.select[0].expr
    assert agg == Aggregate("count", Star())


def test_alias_without_as():
    q = parse("SELECT S.x FROM t S JOIN u v ON S.a=v.b")
    assert q.alias == "S" and q.joins[0].alias == "v"


def test_quoted_string_escape():
    q = parse("SELECT x FROM t WHERE name = 'O''Brien'")
    assert q.where[0].operand == "O'Brien"


def test_variance_normalizes_to_var():
    q = parse("SELECT VARIANCE(x) FROM t")
    assert q.select[0].expr.fn == "var"


def test_table_named_like_a_type():
    # "Date" is a legal table and column name; keywords stay contextual
    q = parse("SELECT Date FROM Date WHERE Date > '2014-01-01'")
    assert q.table == "Date" and q.select[0].expr == AttrRef(None, "Date")


def test_comma_join_rejected():
    with pytest.raises(UnsupportedFeature, match="implicit joins"):
        parse("SELECT x FROM a, b")


def test_or_rejected():
    with pytest.raises(UnsupportedFeature, match="OR"):
        parse("SELECT x FROM t WHERE a = 1 OR b = 2")


@pytest.mark.parametrize("sql,word", [
    ("SELECT SUM(qty OR price) FROM Sales", "OR"),
    ("SELECT SUM(qty) FROM Sales WHERE qty BETWEEN 1 OR 3", "OR"),
    ("SELECT SUM(qty) FROM Sales AS S JOIN Product AS P ON S.ProdNo OR P.ProdNo", "OR"),
    ("SELECT SUM(qty) FROM Sales WHERE qty IN (1 OR 2)", "OR"),
    ("SELECT x FROM having", "HAVING"),
    ("SELECT x FROM t GROUP BY x HAVING x > 1", "HAVING"),
    ("SELECT x FROM t WHERE a NOT IN (1)", "NOT"),
], ids=["aggregate argument", "between bound", "join condition", "in list", "table name",
        "after group by", "comparison operator"])
def test_an_unsupported_keyword_is_named_wherever_it_stands(sql, word):
    """Any place that finds an unsupported keyword where it expected
    something else names the keyword, not a syntax error."""
    with pytest.raises(UnsupportedFeature) as err:
        parse(sql)
    assert str(err.value) == f"{word} is not supported"


def test_subquery_rejected():
    with pytest.raises(UnsupportedFeature, match="subqueries"):
        parse("SELECT x FROM t WHERE a = (SELECT b FROM u)")
    with pytest.raises((UnsupportedFeature, QuerySyntaxError)):
        parse("SELECT x FROM t WHERE a IN (SELECT b FROM u)")


def test_syntax_error_reports_position():
    with pytest.raises(QuerySyntaxError, match="position 7"):
        parse("SELECT FROM t")


def test_unreadable_character():
    with pytest.raises(QuerySyntaxError, match="cannot read"):
        parse("SELECT x FROM t WHERE a = #3")


# planning


def _star_schema(wh, index_price=True):
    wh.create_table(Schema("Product", (
        Column("ProdNo", "key"),
        Column("prodName", "string"),
        Column("cat", "string"),
    )), index_attrs=("cat",))
    wh.create_table(Schema("Date", (
        Column("DateKey", "key"),
        Column("Date", "date"),
    )), index_attrs=("Date",))
    wh.create_table(Schema("Sale", (
        Column("SaleNo", "key"),
        Column("ProdNo", "fk", fk_table="Product"),
        Column("DateKey", "fk", fk_table="Date"),
        Column("price", "real", scale=2),
        Column("tax", "real", scale=2),
        Column("cost", "real", scale=1),
        Column("qty", "int"),
    )), index_attrs=("price", "qty") if index_price else ("qty",))


@pytest.fixture()
def planner_wh(km_toy):
    wh = Warehouse(km_toy, bias=0)
    _star_schema(wh)
    return wh


def test_predicate_needs_index(planner_wh):
    with pytest.raises(NotIndexed, match="Sale.tax"):
        plan(parse("SELECT SUM(price) FROM Sale WHERE tax > 1"), planner_wh)


def test_minmax_needs_index(planner_wh):
    with pytest.raises(NotIndexed, match="Sale.tax"):
        plan(parse("SELECT MAX(tax) FROM Sale"), planner_wh)


def test_var_needs_square_column(planner_wh):
    with pytest.raises(MissingTypeThreeColumn, match="squared"):
        plan(parse("SELECT VAR(price) FROM Sale"), planner_wh)


def test_product_needs_derived_column(planner_wh):
    with pytest.raises(MissingTypeThreeColumn, match="product"):
        plan(parse("SELECT SUM(price*qty) FROM Sale"), planner_wh)


def test_unknown_table(planner_wh):
    with pytest.raises(UnknownTable):
        plan(parse("SELECT x FROM nosuch"), planner_wh)
    with pytest.raises(UnknownTable, match="alias"):
        plan(parse("SELECT Z.price FROM Sale"), planner_wh)


def test_unjoined_table_rejected(planner_wh):
    # Product exists in the warehouse, but this query never joins it
    with pytest.raises(UnknownTable, match="in this query"):
        plan(parse("SELECT SUM(price) AS s, Product.cat FROM Sale GROUP BY Product.cat"),
             planner_wh)


def test_ambiguous_unqualified_column(planner_wh):
    q = parse("SELECT SUM(price) AS s, ProdNo FROM Sale "
              "JOIN Product ON Sale.ProdNo=Product.ProdNo GROUP BY ProdNo")
    with pytest.raises(SchemaMismatch, match="ambiguous"):
        plan(q, planner_wh)


def test_ungrouped_projection_rejected(planner_wh):
    with pytest.raises(UnsupportedFeature, match="not grouped"):
        plan(parse("SELECT SUM(price), qty FROM Sale"), planner_wh)


def test_star_with_aggregate_rejected(planner_wh):
    with pytest.raises(UnsupportedFeature, match="cannot mix"):
        plan(parse("SELECT *, COUNT(*) FROM Sale"), planner_wh)


def test_join_must_use_keys(planner_wh):
    q = parse("SELECT SUM(price) FROM Sale JOIN Product ON Sale.qty=Product.ProdNo")
    with pytest.raises(UnsupportedFeature, match="foreign key"):
        plan(q, planner_wh)


def test_scale_mismatch_in_pairwise_sum(planner_wh):
    with pytest.raises(SchemaMismatch, match="different scales"):
        plan(parse("SELECT SUM(price+cost) FROM Sale"), planner_wh)


def test_aggregate_on_dim_rejected(planner_wh):
    q = parse("SELECT COUNT(P.cat) FROM Sale JOIN Product AS P ON Sale.ProdNo=P.ProdNo")
    with pytest.raises(UnsupportedFeature, match="FROM table"):
        plan(q, planner_wh)


def test_group_by_unindexed_dim_attr(planner_wh):
    q = parse("SELECT SUM(price) AS s, P.prodName FROM Sale "
              "JOIN Product AS P ON Sale.ProdNo=P.ProdNo GROUP BY P.prodName")
    with pytest.raises(NotIndexed, match="Product.prodName"):
        plan(q, planner_wh)


JOIN_SHOP = "JOIN Shop AS S ON Visit.ShopNo = S.ShopNo "


@pytest.mark.parametrize("join, where, error, message", [
    # name resolution first, even before a malformed literal; a table the
    # query does not join is no name in it
    (JOIN_SHOP, "nosuch > 'many'", SchemaMismatch, "no table in this query has a column nosuch"),
    ("", "Shop.size > 'many'", UnknownTable, "Shop is not a table or alias in this query"),
    # then the literal, even on an attribute without an index
    (JOIN_SHOP, "qty > 'many'", SchemaMismatch, "literal 'many' does not fit a int column"),
    (JOIN_SHOP, "S.size > 'many'", SchemaMismatch, "literal 'many' does not fit a int column"),
    (JOIN_SHOP, "S.ShopNo = 'many'", SchemaMismatch, "literal 'many' does not fit a key column"),
    # then the index
    (JOIN_SHOP, "qty > 1", NotIndexed, "Visit.qty needs a Type II index for this query"),
    (JOIN_SHOP, "S.size > 1", NotIndexed, "Shop.size needs a Type II index for this query"),
])
def test_predicate_refusal_precedence(km_toy, join, where, error, message):
    """A predicate is refused at the first of name resolution, its literal
    and its attribute's index that fails, each with its own message."""
    wh = Warehouse(km_toy, bias=0)
    wh.create_table(Schema("Shop", (Column("ShopNo", "key"), Column("size", "int"))))
    wh.create_table(Schema("Visit", (Column("VisitNo", "key"),
                                     Column("ShopNo", "fk", fk_table="Shop"),
                                     Column("qty", "int"))))
    with pytest.raises(error) as caught:
        plan(parse(f"SELECT COUNT(*) FROM Visit {join}WHERE {where}"), wh)
    assert str(caught.value) == message


# aggregation operators against hand-computed values


def _flat(km, rows, columns, index=(), derived=(), bias=None):
    wh = Warehouse(km, bias=bias)
    wh.create_table(Schema("t", (Column("pk", "key"),) + tuple(columns)),
                    index_attrs=index, derived=derived)
    wh.load_rows("t", rows)
    return wh


def test_exec_sum_frozen(km_big):
    wh = _flat(km_big, [{"pk": i, "x": v} for i, v in enumerate((3, 5, 7), 1)],
               (Column("x", "int"),))
    rg = wh.choose_rg()
    assert exec_sum(wh, "t", "x", [1, 2, 3], rg) == 15
    assert exec_sum(wh, "t", "x", [1, 3], rg) == 10
    assert exec_sum(wh, "t", "x", [], rg) == 0


def test_exec_sum_skips_nulls(km_big):
    wh = _flat(km_big, [
        {"pk": 1, "x": 4}, {"pk": 2, "x": None}, {"pk": 3, "x": -9},
    ], (Column("x", "int"),))
    rg = wh.choose_rg()
    assert exec_sum(wh, "t", "x", [1, 2, 3], rg) == -5
    # AVG over no values is undefined
    assert aggregate_groups(wh, "t", PlannedAgg("avg", "plain", attr="x"), [[2]], rg) == [None]


def _sum_combined(wh, x, y, op, pks, rg):
    """SUM(x op y) for op in {+, -} without a derived column, as one group."""
    agg = PlannedAgg("sum", "combined", x=x, y=y, op=op)
    return aggregate_groups(wh, "t", agg, [pks], rg)[0]


def test_sum_combined_frozen(km_big):
    wh = _flat(km_big, [
        {"pk": 1, "x": 1, "y": 10, "z": 0},
        {"pk": 2, "x": 2, "y": 20, "z": 0},
    ], (Column("x", "int"), Column("y", "int"), Column("z", "int")))
    rg = wh.choose_rg()
    assert _sum_combined(wh, "x", "y", "+", [1, 2], rg) == 33
    assert _sum_combined(wh, "x", "y", "-", [1, 2], rg) == -27
    assert _sum_combined(wh, "x", "x", "-", [1, 2], rg) == 0
    # an all-zero column leaves the other side's sum untouched
    assert _sum_combined(wh, "x", "z", "+", [1, 2], rg) == 3
    assert _sum_combined(wh, "x", "z", "-", [1, 2], rg) == 3


def test_combined_null_pattern_mismatch(km_big):
    wh = _flat(km_big, [
        {"pk": 1, "x": 1, "y": None},
        {"pk": 2, "x": 2, "y": 4},
    ], (Column("x", "int"), Column("y", "int")))
    rg = wh.choose_rg()
    with pytest.raises(SchemaMismatch, match="NULL patterns"):
        _sum_combined(wh, "x", "y", "+", [1, 2], rg)
    # restricted to rows where both sides exist it goes through
    assert _sum_combined(wh, "x", "y", "+", [2], rg) == 6


def test_var_stddev_frozen(km_big):
    values = (2, 4, 4, 4, 5, 5, 7, 9)
    wh = _flat(km_big,
               [{"pk": i, "x": v} for i, v in enumerate(values, 1)],
               (Column("x", "int"),),
               derived=(DerivedColumn("t", "x2", "square", "x"),))
    hdr, rows = execute(wh, "SELECT VAR(x), STDDEV(x) FROM t")
    assert rows == [(Fraction(4), Decimal("2.000000"))]

    wh = _flat(km_big, [{"pk": i, "x": 5} for i in range(1, 4)],
               (Column("x", "int"),),
               derived=(DerivedColumn("t", "x2", "square", "x"),))
    hdr, rows = execute(wh, "SELECT VAR(x), STDDEV(x) FROM t")
    assert rows == [(Fraction(0), Decimal("0.000000"))]

    wh = _flat(km_big, [{"pk": 1, "x": 7}], (Column("x", "int"),),
               derived=(DerivedColumn("t", "x2", "square", "x"),))
    hdr, rows = execute(wh, "SELECT VAR(x) FROM t")
    assert rows == [(Fraction(0),)]


def test_sum_share_points_lie_on_one_polynomial(km_toy):
    """The per-provider corrected sums all sit on a single degree < t curve
    whose value at the data point is the plain sum and at the signature
    point is its inner signature."""
    wh = _flat(km_toy, [{"pk": i, "x": v} for i, v in enumerate((3, 5, 7), 1)],
               (Column("x", "int"),), bias=0)
    km = km_toy
    pks = [1, 2, 3]
    points = []
    for i in range(1, 6):
        a = wh.csps[i].share_sum("t", "x", pks)
        a = (a + km.he2(wh.type1.pseudo_sum("t", pks, i, km.p), km.id_of(i))) % km.p
        points.append((km.x_id(i), a))
    coeffs = interpolate_gauss(points[:4], km.p)
    assert len(coeffs) <= 4
    x5, y5 = points[4]
    assert eval_poly(coeffs, x5, km.p) == y5
    assert eval_poly(coeffs, km.x_kd, km.p) == 15
    assert eval_poly(coeffs, km.x_ks, km.p) == km.he1(15)


# end-to-end on the catalog example


def _catalog(km):
    wh = Warehouse(km)
    wh.create_table(Schema("Product", (
        Column("ProdNo", "key"),
        Column("prodName", "string"),
        Column("cat", "string"),
    )), index_attrs=("prodName",))
    wh.create_table(Schema("Date", (
        Column("DateKey", "key"),
        Column("Date", "date"),
    )), index_attrs=("Date",))
    wh.create_table(Schema("Sale", (
        Column("SaleNo", "key"),
        Column("ProdNo", "fk", fk_table="Product"),
        Column("DateKey", "fk", fk_table="Date"),
        Column("price", "real", scale=2),
        Column("tax", "real", scale=2),
        Column("qty", "int"),
    )), index_attrs=("price", "qty"))
    wh.load_rows("Product", [
        {"ProdNo": 1, "prodName": "Shirt", "cat": "apparel"},
        {"ProdNo": 2, "prodName": "Mug", "cat": "kitchen"},
    ])
    wh.load_rows("Date", [
        {"DateKey": 10, "Date": date(2014, 1, 5)},
        {"DateKey": 11, "Date": date(2014, 1, 20)},
    ])
    wh.load_rows("Sale", [
        {"SaleNo": 100, "ProdNo": 1, "DateKey": 10, "price": 75.25, "tax": 6.02, "qty": 3},
        {"SaleNo": 101, "ProdNo": 2, "DateKey": 10, "price": 9.99, "tax": 0.80, "qty": 1},
        {"SaleNo": 102, "ProdNo": 1, "DateKey": 11, "price": 80.00, "tax": 6.40, "qty": 2},
    ])
    return wh


@pytest.fixture(scope="module")
def catalog(km_big):
    return _catalog(km_big)


def test_fig9_end_to_end(catalog):
    hdr, rows = execute(catalog, FIG9)
    assert hdr == ["sumprice", "prodName"]
    # only the two January 5 sales fall in range: 75.25+6.02 and 9.99+0.80
    assert rows == [
        (Fraction(1079, 100), "Mug"),
        (Fraction(8127, 100), "Shirt"),
    ]


def test_avg_variant(catalog):
    hdr, rows = execute(
        catalog,
        "SELECT AVG(S.price+S.tax) AS avgprice, P.prodName FROM Sale AS S "
        "JOIN Product AS P ON S.ProdNo=P.ProdNo GROUP BY P.prodName",
    )
    assert rows == [
        (Fraction(1079, 100), "Mug"),
        (Fraction(16767, 200), "Shirt"),  # (81.27 + 86.40) / 2
    ]


def test_plain_aggregates(catalog):
    assert execute(catalog, "SELECT SUM(price) AS total FROM Sale")[1] == \
        [(Fraction(16524, 100),)]
    assert execute(catalog, "SELECT COUNT(*) FROM Sale WHERE price > 50")[1] == [(2,)]
    assert execute(catalog, "SELECT MAX(price) FROM Sale")[1] == [(Fraction(80),)]
    assert execute(catalog, "SELECT MIN(qty), MEDIAN(qty), COUNT(qty) FROM Sale")[1] == \
        [(1, 2, 3)]


def test_group_by_foreign_key(catalog):
    hdr, rows = execute(catalog,
                        "SELECT SUM(price) AS s, DateKey FROM Sale GROUP BY DateKey")
    assert rows == [(Fraction(8524, 100), 10), (Fraction(80), 11)]


def test_group_by_dim_date(catalog):
    hdr, rows = execute(
        catalog,
        "SELECT SUM(S.price) AS s, D.Date FROM Sale AS S "
        "JOIN Date AS D ON S.DateKey=D.DateKey GROUP BY D.Date",
    )
    assert rows == [
        (Fraction(8524, 100), date(2014, 1, 5)),
        (Fraction(80), date(2014, 1, 20)),
    ]


def test_row_mode_star(catalog):
    hdr, rows = execute(catalog, "SELECT * FROM Sale WHERE SaleNo = 101")
    assert hdr == ["SaleNo", "ProdNo", "DateKey", "price", "tax", "qty"]
    assert rows == [(101, 2, 10, Fraction(999, 100), Fraction(80, 100), 1)]


def test_row_mode_dim_projection(catalog):
    hdr, rows = execute(
        catalog,
        "SELECT SaleNo, P.cat FROM Sale JOIN Product AS P ON Sale.ProdNo=P.ProdNo "
        "WHERE qty >= 2",
    )
    assert rows == [(100, "apparel"), (102, "apparel")]


def test_empty_filter_conventions(catalog):
    assert execute(catalog, "SELECT SUM(price) FROM Sale WHERE price > 100000")[1] == \
        [(Fraction(0),)]
    assert execute(catalog, "SELECT COUNT(*) FROM Sale WHERE price > 100000")[1] == [(0,)]
    assert execute(catalog, "SELECT AVG(price) FROM Sale WHERE price > 100000")[1] == \
        [(None,)]
    assert execute(catalog, "SELECT MAX(price) FROM Sale WHERE price > 100000")[1] == \
        [(None,)]
    # a grouped query over nothing has no groups at all
    assert execute(
        catalog,
        "SELECT SUM(price) AS s, DateKey FROM Sale WHERE price > 100000 GROUP BY DateKey",
    )[1] == []


def test_every_rg_gives_the_same_answer(catalog):
    expected = {
        FIG9: execute(catalog, FIG9, rg=(1, 2, 3, 4))[1],
        "SELECT SUM(price) FROM Sale": [(Fraction(16524, 100),)],
    }
    for text, want in expected.items():
        for rg in catalog.rg_candidates():
            assert execute(catalog, text, rg=rg)[1] == want


def test_pinned_rg_validations(catalog):
    with pytest.raises(MissingShare, match="t=4"):
        execute(catalog, "SELECT SUM(price) FROM Sale", rg=(1, 2, 3))


def test_survives_one_failure_not_two(km_big):
    wh = _catalog(km_big)
    want = [(Fraction(16524, 100),)]
    wh.inject_failure(2)
    assert execute(wh, "SELECT SUM(price) FROM Sale")[1] == want
    with pytest.raises(CspUnavailable):
        execute(wh, "SELECT SUM(price) FROM Sale", rg=(1, 2, 3, 4))
    wh.inject_failure(5)
    with pytest.raises(NotEnoughAliveCsps):
        execute(wh, "SELECT SUM(price) FROM Sale")


def test_rotation_past_tampered_share(km_big):
    wh = _catalog(km_big)
    victim = next(
        i for i in (1, 2, 3, 4)
        if i in group_from_bitmap(wh.type1.bitmap("Sale", 100)).sg
    )
    wh.inject_tamper(victim, "Sale", 100, "price")
    # auto-selected groups rotate until one verifies
    assert execute(wh, "SELECT SUM(price) FROM Sale")[1] == [(Fraction(16524, 100),)]
    # a pinned group that touches the bad share fails loudly instead
    bad_rg = tuple(sorted([victim] + [i for i in range(1, 6) if i != victim][:3]))
    with pytest.raises(InnerSignatureMismatch):
        execute(wh, "SELECT SUM(price) FROM Sale", rg=bad_rg)


def test_null_marker_disagreement_never_drops_a_record(km_big):
    wh = _flat(km_big, [{"pk": i, "q": 10} for i in range(1, 11)], (Column("q", "int"),))
    liar = min(group_from_bitmap(wh.type1.bitmap("t", 1)).sg)
    report_null(wh, liar, "t", 1, "q")
    assert wh.csps[liar].null_pks("t", "q", set(range(1, 11))) == {1}
    text = "SELECT SUM(q), COUNT(q) FROM t"
    # rotation reaches the one group without the liar
    assert execute(wh, text)[1] == [(100, 10)]
    for rg in wh.rg_candidates():
        if liar in rg:
            with pytest.raises(InnerSignatureMismatch, match="NULL marks"):
                execute(wh, text, rg=rg)
        else:
            assert execute(wh, text, rg=rg)[1] == [(100, 10)]


def test_null_marker_liars_name_the_smallest_pk(km_big):
    """Two records whose NULL marks disagree: the error names the smaller
    pk, whatever order the set of NULL pks iterates in."""
    wh = _flat(km_big, [{"pk": i, "q": 10} for i in range(1, 11)], (Column("q", "int"),))
    liars = set()
    for pk in (9, 2):
        liar = min(group_from_bitmap(wh.type1.bitmap("t", pk)).sg)
        report_null(wh, liar, "t", pk, "q")
        liars.add(liar)
    rg = next(rg for rg in wh.rg_candidates() if liars <= set(rg))
    with pytest.raises(InnerSignatureMismatch, match="pk 2 of t: NULL marks of q"):
        execute(wh, "SELECT SUM(q) FROM t", rg=rg)


def _null_pks_calls(wh, monkeypatch, text):
    """execute(text) and the number of CspStore.null_pks calls it made."""
    calls = []
    real = type(wh.csps[1]).null_pks

    def counted(csp, *args):
        calls.append(csp.index)
        return real(csp, *args)

    with monkeypatch.context() as m:
        m.setattr(type(wh.csps[1]), "null_pks", counted)
        rows = execute(wh, text)[1]
    return rows, len(calls)


@pytest.mark.parametrize("indexed", [False, True])
def test_avg_asks_for_null_markers_no_more_than_sum(km_big, monkeypatch, indexed):
    """AVG takes its count from the present set its SUM already checked,
    so it makes no more NULL-marker requests than SUM does."""
    rng = random.Random(77)
    rows = []
    for i in range(1, 31):
        v = None if rng.random() < 0.3 else rng.randint(-50, 50)
        rows.append({"pk": i, "v": v, "w": None if v is None else rng.randint(0, 9)})
    wh = _flat(km_big, rows, (Column("v", "int"), Column("w", "int")),
               index=("v",) if indexed else (),
               derived=(DerivedColumn("t", "sq", "square", "v"),))
    oracle = PlainWarehouse()
    oracle.add_table(wh.schemas["t"], rows, derived=[("sq", "square", "v", None, 0)])
    pairs = [
        ("SELECT SUM(v) FROM t", "SELECT AVG(v) FROM t"),
        ("SELECT SUM(v) FROM t WHERE pk <= 12", "SELECT AVG(v) FROM t WHERE pk <= 12"),
        ("SELECT SUM(v+w) FROM t", "SELECT AVG(v+w) FROM t"),
        ("SELECT SUM(v), SUM(sq) FROM t", "SELECT VAR(v) FROM t"),
    ]
    for sum_text, avg_text in pairs:
        sum_rows, sum_calls = _null_pks_calls(wh, monkeypatch, sum_text)
        avg_rows, avg_calls = _null_pks_calls(wh, monkeypatch, avg_text)
        assert sum_rows == oracle.query(parse(sum_text))
        assert avg_rows == oracle.query(parse(avg_text))
        assert 0 < avg_calls <= sum_calls, (avg_text, avg_calls, sum_calls)


def _liar_table(km):
    """t(pk, q) with q = 10 * pk for pk 1..10, q indexed."""
    return _flat(km, [{"pk": i, "q": 10 * i} for i in range(1, 11)], (Column("q", "int"),),
                 index=("q",))


@pytest.mark.parametrize("text, pk, want", [
    ("SELECT SUM(q) FROM t", 10, [(550,)]),
    ("SELECT MAX(q) FROM t", 10, [(100,)]),
    ("SELECT MIN(q), MEDIAN(q) FROM t", 5, [(10, 50)]),
    ("SELECT pk, q FROM t WHERE pk = 10", 10, [(10, 100)]),
    ("SELECT q FROM t WHERE q >= 50", 7, [(50,), (60,), (70,), (80,), (90,), (100,)]),
])
def test_null_marker_liar_rotates_every_read(km_big, text, pk, want):
    """A provider that marks a stored value NULL makes every query through
    a reconstruction group holding it fail as a signature mismatch, share
    sums and reconstructed values (MAX, MEDIAN, row mode) alike, so an
    unpinned query rotates to a group without it and answers."""
    wh = _liar_table(km_big)
    liar = min(group_from_bitmap(wh.type1.bitmap("t", pk)).sg)
    report_null(wh, liar, "t", pk, "q")
    assert execute(wh, text)[1] == want
    for rg in wh.rg_candidates():
        if liar in rg:
            with pytest.raises(InnerSignatureMismatch, match="(?i)null marks"):
                execute(wh, text, rg=rg)
        else:
            assert execute(wh, text, rg=rg)[1] == want


def test_chunk_count_liar_rotates_row_reads(km_big):
    """A provider that stores a string with a chunk missing, its signature
    tree kept in step, fails every reconstruction group holding it as a
    signature mismatch; an unpinned row query rotates past it."""
    words = ["alpha", "beta", "gamma", "delta"]
    wh = _flat(km_big, [{"pk": i, "s": w} for i, w in enumerate(words, 1)],
               (Column("s", "string"),))
    liar = min(group_from_bitmap(wh.type1.bitmap("t", 3)).sg)
    csp = wh.csps[liar]
    pos = csp.position_of("t", 3)
    rec = get_record(csp, "t", pos)
    rec.shares["s"] = rec.shares["s"][:-1]
    csp.update_shared_record(wh.schemas["t"], pos, rec, record_sig(wh, liar, wh.schemas["t"], rec))
    text = "SELECT pk, s FROM t"
    want = list(enumerate(words, 1))
    assert execute(wh, text)[1] == want
    for rg in wh.rg_candidates():
        if liar in rg:
            with pytest.raises(InnerSignatureMismatch, match="pk 3 of t: chunk counts"):
                execute(wh, text, rg=rg)
        else:
            assert execute(wh, text, rg=rg)[1] == want


def _provider_requests(wh, monkeypatch, text, rg):
    """execute(text, rg): its rows, the requests each provider received by
    kind, and the bytes each provider's counter moved."""
    cls = type(wh.csps[1])
    requests = {i: {} for i in wh.csps}
    # share_sum is the one-group form of share_sums
    for name in ("null_pks", "share_sum", "share_sums", "fetch_shares"):
        real = getattr(cls, name, None)
        if real is None:
            continue

        def counted(csp, *args, _real=real, _name=name):
            requests[csp.index][_name] = requests[csp.index].get(_name, 0) + 1
            return _real(csp, *args)

        monkeypatch.setattr(cls, name, counted)
    before = {i: csp.bytes_transferred for i, csp in wh.csps.items()}
    try:
        rows = execute(wh, text, rg=rg)[1]
    finally:
        monkeypatch.undo()
    moved = {i: csp.bytes_transferred - before[i] for i, csp in wh.csps.items()}
    return rows, requests, moved


def _work_table(km, weights=None):
    """60 records t(pk, g, v, w), g = pk % 7, v and w NULL one time in
    five, g and w indexed, and the plaintext oracle over them."""
    rng = random.Random(808)
    rows = []
    for i in range(1, 61):
        v = None if rng.random() < 0.2 else rng.randint(-50, 50)
        w = None if rng.random() < 0.2 else rng.randint(0, 999)
        rows.append({"pk": i, "g": i % 7, "v": v, "w": w})
    wh = Warehouse(km, weights=weights)
    wh.create_table(Schema("t", (Column("pk", "key"), Column("g", "int"), Column("v", "int"),
                                 Column("w", "int"))), index_attrs=("g", "w"))
    wh.load_rows("t", rows)
    oracle = PlainWarehouse()
    oracle.add_table(wh.schemas["t"], rows)
    return wh, oracle, rows


# per provider, the bytes the two queries below moved at the parent commit,
# where each group paid its own NULL-mark, share-sum and fetch requests
GROUP_BY_PK_BYTES = {
    5: {1: 72, 2: 72, 3: 72, 4: 32, 5: 0},
    60: {1: 848, 2: 848, 3: 848, 4: 400, 5: 0},
}


def test_group_by_asks_each_provider_once_per_column(km_big, monkeypatch):
    """GROUP BY pk over 5 keys and over 60 keys sends each provider of the
    reconstruction group the same requests: one NULL-mark and one
    share-sum request per summed column, and one fetch per storage group
    of the MAX records (every record is placed in storage group 1, 2, 3
    here), whatever the number of groups, while the bytes moved stay
    those of one request per group."""
    wh, oracle, _ = _work_table(km_big, weights=(1, 1, 1, 0, 0))
    rg = (1, 2, 3, 4)
    seen = {}
    for keys in (5, 60):
        text = f"SELECT pk, AVG(v), MAX(w) FROM t WHERE pk <= {keys} GROUP BY pk"
        rows, requests, moved = _provider_requests(wh, monkeypatch, text, rg)
        assert rows == oracle.query(parse(text))
        assert moved == GROUP_BY_PK_BYTES[keys], keys
        seen[keys] = requests
    assert seen[5] == seen[60]
    assert seen[60] == {
        **{i: {"null_pks": 1, "share_sums": 1, "fetch_shares": 1} for i in (1, 2, 3)},
        4: {"null_pks": 1, "share_sums": 1},
        5: {},
    }


TAMPER_TEXT = "SELECT g, SUM(v), AVG(v), MAX(w), COUNT(*) FROM t GROUP BY g"
# the errors the two tampers below raised at the parent commit, where each
# group was evaluated on its own; the MAX one re-captured once, when
# systematic placement put pk 10 in another storage group, and checked
# against the data and signature points of a Gaussian interpolation
# through the reconstruction group's stored and pseudo shares
TAMPER_ERRORS = {
    "v": "SUM(t.v): signature point 1186802410760523867 != HE1(866831864187182310)",
    "w": "pk 10: signature point 399830236325172281 != HE1(1667740722441742501)",
}


@pytest.mark.parametrize("attr", ["v", "w"])
def test_one_tampered_share_among_many_groups(km_big, attr):
    """A tampered share of one record, summed (v) or the MAX of its group
    (w), fails a pinned reconstruction group that holds it with the error
    a per-group evaluation raised, and an unpinned query rotates past it
    to the plaintext answer."""
    wh, oracle, rows = _work_table(km_big)
    want = oracle.query(parse(TAMPER_TEXT))
    in_group = [r for r in rows if r["g"] == 3 and r[attr] is not None]
    pk = max(in_group, key=lambda r: r["w"])["pk"] if attr == "w" else in_group[0]["pk"]
    victim = min(group_from_bitmap(wh.type1.bitmap("t", pk)).sg)
    wh.inject_tamper(victim, "t", pk, attr)
    rg = next(rg for rg in wh.rg_candidates() if victim in rg)
    with pytest.raises(InnerSignatureMismatch) as err:
        execute(wh, TAMPER_TEXT, rg=rg)
    assert str(err.value) == TAMPER_ERRORS[attr]
    assert execute(wh, TAMPER_TEXT)[1] == want


def test_null_marker_lie_among_many_groups_never_drops_the_record(km_big):
    """A provider that marks one stored v NULL fails every reconstruction
    group holding it; the others, and rotation, count and sum the record."""
    wh, oracle, rows = _work_table(km_big)
    want = oracle.query(parse(TAMPER_TEXT))
    pk = next(r["pk"] for r in rows if r["g"] == 4 and r["v"] is not None)
    liar = min(group_from_bitmap(wh.type1.bitmap("t", pk)).sg)
    report_null(wh, liar, "t", pk, "v")
    assert execute(wh, TAMPER_TEXT)[1] == want
    for rg in wh.rg_candidates():
        if liar in rg:
            with pytest.raises(InnerSignatureMismatch, match=f"pk {pk} of t: NULL marks of v"):
                execute(wh, TAMPER_TEXT, rg=rg)
        else:
            assert execute(wh, TAMPER_TEXT, rg=rg)[1] == want


# randomized equivalence against the plaintext evaluator

RANDOM_QUERIES = [
    "SELECT SUM(price) FROM Sale",
    "SELECT SUM(qty) FROM Sale",
    "SELECT COUNT(*) FROM Sale WHERE SaleNo BETWEEN 10 AND 40",
    "SELECT COUNT(*) FROM Sale WHERE qty > 5",
    "SELECT COUNT(note) FROM Sale",
    "SELECT COUNT(memo) FROM Sale",
    "SELECT SUM(S.price+S.tax) AS t, P.cat FROM Sale AS S "
    "JOIN Product AS P ON S.ProdNo=P.ProdNo GROUP BY P.cat",
    "SELECT SUM(S.price-S.tax) FROM Sale AS S",
    "SELECT AVG(price) AS a, DateKey FROM Sale GROUP BY DateKey",
    "SELECT MIN(price), MAX(price), MEDIAN(price), COUNT(price) FROM Sale",
    "SELECT VAR(qty), STDDEV(qty) FROM Sale WHERE qty BETWEEN 1 AND 8",
    "SELECT VAR(price) FROM Sale",
    "SELECT SUM(price*qty) FROM Sale",
    "SELECT SUM(price/qty) FROM Sale",
    "SELECT SUM(S.price) AS sp, D.Date FROM Sale AS S "
    "JOIN Date AS D ON S.DateKey=D.DateKey WHERE D.Date >= '2014-01-03' GROUP BY D.Date",
    "SELECT COUNT(*) AS c, note FROM Sale GROUP BY note",
    "SELECT SUM(price) FROM Sale WHERE ok = true",
    "SELECT SaleNo, price, note FROM Sale WHERE price > 0",
    "SELECT S.SaleNo, P.prodName FROM Sale AS S "
    "JOIN Product AS P ON S.ProdNo=P.ProdNo WHERE P.cat IN ('a', 'c') AND S.qty >= 7",
    "SELECT AVG(S.price+S.tax) FROM Sale AS S WHERE S.qty <= 4",
]


def _random_pair(km, rows=60, seed=20140115):
    rnd = random.Random(seed)
    product = Schema("Product", (
        Column("ProdNo", "key"),
        Column("prodName", "string"),
        Column("cat", "string"),
    ))
    datedim = Schema("Date", (
        Column("DateKey", "key"),
        Column("Date", "date"),
    ))
    sale = Schema("Sale", (
        Column("SaleNo", "key"),
        Column("ProdNo", "fk", fk_table="Product"),
        Column("DateKey", "fk", fk_table="Date"),
        Column("price", "real", scale=2),
        Column("tax", "real", scale=2),
        Column("qty", "int"),
        Column("ok", "bool"),
        Column("note", "string"),
        Column("memo", "string"),
    ))
    derived = (
        DerivedColumn("Sale", "price2", "square", "price", scale=4),
        DerivedColumn("Sale", "qty2", "square", "qty"),
        DerivedColumn("Sale", "pxq", "product", "price", "qty", scale=2),
        DerivedColumn("Sale", "pdq", "quotient", "price", "qty", scale=4),
    )

    products = [
        {"ProdNo": i, "prodName": f"P{i}", "cat": rnd.choice("abc")}
        for i in range(1, 7)
    ]
    dates = [{"DateKey": i, "Date": date(2014, 1, i)} for i in range(1, 9)]
    sales = []
    for pk in range(1, rows + 1):
        has_price = rnd.random() >= 0.1
        sales.append({
            "SaleNo": pk,
            "ProdNo": rnd.randint(1, 6),
            "DateKey": rnd.randint(1, 8),
            "price": Fraction(rnd.randint(-2000, 9000), 100) if has_price else None,
            "tax": Fraction(rnd.randint(0, 999), 100) if has_price else None,
            "qty": rnd.randint(1, 9) if rnd.random() >= 0.1 else None,
            "ok": rnd.choice((True, False)) if rnd.random() >= 0.1 else None,
            "note": rnd.choice(("red", "blue", "green")) if rnd.random() >= 0.2 else None,
            "memo": rnd.choice(("x", "yy")) if rnd.random() >= 0.3 else None,
        })

    wh = Warehouse(km)
    wh.create_table(product, index_attrs=("cat",))
    wh.create_table(datedim, index_attrs=("Date",))
    wh.create_table(sale, index_attrs=("price", "qty", "ok", "note"),
                    derived=derived)
    wh.load_rows("Product", products)
    wh.load_rows("Date", dates)
    wh.load_rows("Sale", sales)

    oracle = PlainWarehouse()
    oracle.add_table(product, products)
    oracle.add_table(datedim, dates)
    oracle.add_table(sale, sales, derived=[
        ("price2", "square", "price", None, 4),
        ("qty2", "square", "qty", None, 0),
        ("pxq", "product", "price", "qty", 2),
        ("pdq", "quotient", "price", "qty", 4),
    ])
    return wh, oracle


@pytest.fixture(scope="module")
def random_pair(km_big):
    return _random_pair(km_big)


@pytest.mark.parametrize("text", RANDOM_QUERIES)
def test_random_battery_matches_plaintext(random_pair, text):
    wh, oracle = random_pair
    assert execute(wh, text)[1] == oracle.query(parse(text))


@pytest.mark.parametrize("text", RANDOM_QUERIES[:3] + RANDOM_QUERIES[6:9])
def test_random_battery_every_rg(random_pair, text):
    wh, oracle = random_pair
    want = oracle.query(parse(text))
    for rg in wh.rg_candidates():
        assert execute(wh, text, rg=rg)[1] == want


def test_random_battery_under_failure(km_big):
    wh, oracle = _random_pair(km_big, rows=30, seed=77)
    wh.inject_failure(3)
    for text in RANDOM_QUERIES[:8]:
        assert execute(wh, text)[1] == oracle.query(parse(text))


# literals: a real finer than its column's scale, negative numbers


def _literal_pair(km):
    """t(pk, price real scale=2, x int, r real scale=1, q int scale=2),
    every attribute indexed, price holding 1.25, 1.26 and 1.30, and the
    plaintext oracle. A scale on an int column does not scale its values."""
    rows = [
        {"pk": 1, "price": Fraction(125, 100), "x": -7, "r": Fraction(-15, 10), "q": 5},
        {"pk": 2, "price": Fraction(126, 100), "x": 3, "r": Fraction(5, 10), "q": 1},
        {"pk": 3, "price": Fraction(130, 100), "x": -2, "r": None, "q": 700},
        {"pk": 4, "price": None, "x": 0, "r": Fraction(-10, 10), "q": None},
    ]
    wh = _flat(km, rows, (Column("price", "real", scale=2), Column("x", "int"),
                          Column("r", "real", scale=1), Column("q", "int", scale=2)),
               index=("price", "x", "r", "q"))
    oracle = PlainWarehouse()
    oracle.add_table(wh.schemas["t"], rows)
    return wh, oracle


@pytest.fixture(scope="module")
def literal_pair(km_big):
    return _literal_pair(km_big)


FINE_LITERAL_QUERIES = [
    "SELECT COUNT(*) FROM t WHERE price = 1.255",
    "SELECT COUNT(*) FROM t WHERE price > 1.255",
    "SELECT COUNT(*) FROM t WHERE price >= 1.255",
    "SELECT COUNT(*) FROM t WHERE price < 1.255",
    "SELECT COUNT(*) FROM t WHERE price <= 1.255",
    "SELECT COUNT(*) FROM t WHERE price != 1.255",
    "SELECT SUM(price) FROM t WHERE price IN (1.255, 1.3)",
    "SELECT COUNT(*) FROM t WHERE price BETWEEN 1.251 AND 1.259",
    "SELECT COUNT(*) FROM t WHERE price BETWEEN 1.255 AND 1.3",
    "SELECT pk FROM t WHERE price > 1.2551",
    "SELECT COUNT(*) FROM t WHERE price = 1.250",
]

NEGATIVE_LITERAL_QUERIES = [
    "SELECT SUM(x) FROM t WHERE x > -5",
    "SELECT COUNT(*) FROM t WHERE x BETWEEN -10 AND 0",
    "SELECT pk FROM t WHERE x IN (-7, 3)",
    "SELECT SUM(r) FROM t WHERE r < -1",
    "SELECT COUNT(*) FROM t WHERE r <= -1.0",
    "SELECT COUNT(*) FROM t WHERE price > -0.5",
    "SELECT COUNT(*) FROM t WHERE pk > -1",
]

# an int column ignores its scale; TRUE and FALSE read as 1 and 0
INT_LITERAL_QUERIES = [
    "SELECT COUNT(*) FROM t WHERE q = 5",
    "SELECT pk FROM t WHERE q > 1",
    "SELECT SUM(q) FROM t WHERE q IN (5, 700)",
    "SELECT pk FROM t WHERE q = TRUE",
    "SELECT pk FROM t WHERE q != TRUE",
    "SELECT pk FROM t WHERE x = FALSE",
]


@pytest.mark.parametrize(
    "text", FINE_LITERAL_QUERIES + NEGATIVE_LITERAL_QUERIES + INT_LITERAL_QUERIES)
def test_literals_match_plaintext(literal_pair, text):
    """A real literal keeps its exact value: one finer than the column's
    scale equals no stored value and orders between its neighbours, where
    rounding it to the scale (1.255 to 1.26) matched the wrong rows. A
    minus sign before a number is part of the literal."""
    wh, oracle = literal_pair
    assert execute(wh, text)[1] == oracle.query(parse(text))


def test_negative_literal_parses_as_one_literal():
    (pred,) = parse("SELECT SUM(x) FROM t WHERE x > -5").where
    assert pred.operand == "-5"
    (pred,) = parse("SELECT SUM(x) FROM t WHERE x BETWEEN -1.5 AND - 2").where
    assert pred.operand == ("-1.5", "-2")
    with pytest.raises(QuerySyntaxError, match="expected a literal"):
        parse("SELECT SUM(x) FROM t WHERE x > -y")
    with pytest.raises(QuerySyntaxError, match="expected a literal"):
        parse("SELECT SUM(x) FROM t WHERE x > --5")


def test_fractional_literal_on_an_integer_column_is_exact(literal_pair):
    """An int or key column compares with a fractional literal exactly, as
    with the integer literals on either side of it."""
    wh, _ = literal_pair
    for fine, whole in [("x > -2.5", "x >= -2"), ("x < 2.5", "x <= 2"), ("pk < 2.5", "pk <= 2"),
                        ("x = 2.5", "x = 99"), ("x BETWEEN -7.5 AND 0.5", "x BETWEEN -7 AND 0")]:
        assert execute(wh, f"SELECT pk FROM t WHERE {fine}") \
            == execute(wh, f"SELECT pk FROM t WHERE {whole}"), fine


# pk ranges

@pytest.fixture(scope="module")
def gapped_pair(km_big):
    """A table whose 60 pks are scattered over [3, 400], and its oracle."""
    rng = random.Random(2626)
    rows = [{"pk": pk, "g": pk % 5, "v": rng.randint(-9, 99)}
            for pk in sorted(rng.sample(range(3, 401), 60))]
    schema = Schema("t", (Column("pk", "key"), Column("g", "int"), Column("v", "int")))
    wh = Warehouse(km_big)
    wh.create_table(schema, index_attrs=("g",))
    wh.load_rows("t", rows)
    oracle = PlainWarehouse()
    oracle.add_table(schema, rows)
    return wh, oracle, [row["pk"] for row in rows]


@pytest.mark.parametrize("where", [
    "pk BETWEEN 10 AND 40", "pk BETWEEN 40 AND 10", "pk BETWEEN 10.5 AND 39.5",
    "pk BETWEEN 9.99 AND 10.01", "pk BETWEEN -20 AND 30", "pk BETWEEN -20 AND -1",
    "pk BETWEEN 390 AND 5000", "pk BETWEEN 500 AND 600", "pk BETWEEN 0 AND 100000",
    "pk = {pk}", "pk = {pk}.5", "pk = -3", "pk = 401", "pk = 0",
    "g = 2 AND pk BETWEEN 20 AND 200", "g = 2 AND pk = {pk}", "g = 2 AND pk BETWEEN 1 AND 3",
])
def test_pk_ranges_match_plaintext(gapped_pair, where):
    """A BETWEEN or = on the key, whose bounds may be fractional, reversed,
    negative or outside the table, keeps the pks the plaintext does."""
    wh, oracle, pks = gapped_pair
    text = "SELECT pk, SUM(v) FROM t WHERE " + where.format(pk=pks[7]) + " GROUP BY pk"
    assert execute(wh, text)[1] == oracle.query(parse(text)), text


class _Unscannable(dict):
    """A pk map whose members can be looked up and counted but not walked."""

    def __iter__(self):
        raise AssertionError("walked every pk")


def test_a_narrow_pk_range_probes_its_integers_instead_of_every_pk():
    from fvss.query import _apply_pk_predicate

    pks = _Unscannable.fromkeys(range(0, 5000, 2))
    assert _apply_pk_predicate(pks, "between", (Fraction(7, 2), 12)) == {4, 6, 8, 10, 12}
    assert _apply_pk_predicate(pks, "between", (12, 3)) == set()
    assert _apply_pk_predicate(pks, "between", (-9, 1)) == {0}
    assert _apply_pk_predicate(pks, "=", 4998) == {4998}
    assert _apply_pk_predicate(pks, "=", Fraction(9, 2)) == set()
    with pytest.raises(AssertionError, match="walked"):
        _apply_pk_predicate(pks, "between", (0, 10**6))   # wider than the table: a scan
