"""GROUP BY through every group route, checked against the plaintext evaluator.

Random fact rows joined to a random dimension table, with NULLs in the
group attributes and the summed columns, are grouped by one or two
sources drawn from every route the planner has (fact pk, fact fk, an
indexed fact attribute of each display kind, dimension pk, indexed
dimension attribute), under random WHERE filters, one on each route,
that can leave groups empty or all-NULL; filters and group keys share
one set of route names. Up to 60 fact rows make GROUP BY F.id evaluate
many groups at once. Shared answers must equal PlainWarehouse's row for
row.
"""

from datetime import date
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import Column, DerivedColumn, Schema, Warehouse
from fvss.query import execute, parse, plan

from .oracles import PlainWarehouse

DIM = Schema("D", (
    Column("did", "key"),
    Column("cat", "string"),
    Column("lvl", "int"),
))
FACT = Schema("F", (
    Column("id", "key"),
    Column("d", "fk", fk_table="D"),
    Column("a", "int"),
    Column("s", "string"),
    Column("r", "real", scale=2),
    Column("day", "date"),
    Column("ok", "bool"),
    Column("v", "int"),
    Column("w", "int"),
))

# group source -> the route the planner must give it
SOURCES = {
    "F.id": "pk",
    "F.d": "fk",
    "F.a": "fact_attr",
    "F.s": "fact_attr",
    "F.r": "fact_attr",
    "F.day": "fact_attr",
    "F.ok": "fact_attr",
    "D.did": "dim_pk",
    "D.cat": "dim_attr",
    "D.lvl": "dim_attr",
}
AGGREGATES = ("SUM(F.v)", "COUNT(*)", "COUNT(F.v)", "AVG(F.v)", "MAX(F.a)",
              "MIN(F.r)", "SUM(F.v + F.w)", "SUM(F.v - F.w)", "VAR(F.v)", "STDDEV(F.v)",
              "MEDIAN(F.a)", "AVG(F.v + F.w)", "COUNT(F.w)")
# VAR and STDDEV read the registered square of v; w has no Type II index,
# so COUNT(F.w) counts through the providers' NULL marks
SQUARE = DerivedColumn("F", "v2", "square", "v")
# a filter's attribute takes the route SOURCES gives it as a group source
FILTERS = ("", "F.a >= {k}", "D.cat IN ('x', 'y')", "F.id BETWEEN {k} AND {m}",
           "D.did = {j}", "F.s != 'z'", "D.lvl < {j}", "F.d = {j}")

dims = st.lists(
    st.fixed_dictionaries({
        "cat": st.one_of(st.none(), st.sampled_from("xyz")),
        "lvl": st.one_of(st.none(), st.integers(0, 3)),
    }),
    min_size=1, max_size=4,
)


def _fact(n_dims):
    present = st.integers(0, 9)
    return st.fixed_dictionaries({
        "d": st.integers(1, n_dims),
        "a": st.one_of(st.none(), st.integers(-2, 2)),
        "s": st.one_of(st.none(), st.sampled_from("xyz")),
        "r": st.one_of(st.none(), st.integers(-300, 300).map(lambda c: Fraction(c, 100))),
        "day": st.one_of(st.none(), st.integers(1, 3).map(lambda k: date(2014, 1, k))),
        "ok": st.one_of(st.none(), st.booleans()),
        # w is NULL exactly where v is, so SUM(v +- w) is defined
        "vw": st.one_of(st.none(), st.tuples(present, present)),
    })


@st.composite
def tables(draw):
    dim_rows = [{"did": i, **row} for i, row in enumerate(draw(dims), 1)]
    # the size is drawn first, so that large tables (many groups) are common
    size = draw(st.integers(1, 60))
    facts = draw(st.lists(_fact(len(dim_rows)), min_size=size, max_size=size))
    fact_rows = []
    for pk, row in enumerate(facts, 1):
        vw = row.pop("vw")
        fact_rows.append({"id": pk, **row,
                          "v": None if vw is None else vw[0],
                          "w": None if vw is None else vw[1]})
    return dim_rows, fact_rows


queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(sorted(SOURCES)), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3, unique=True),
        st.sampled_from(FILTERS),
        st.integers(0, 60), st.integers(0, 60), st.integers(1, 4),
    ),
    min_size=1, max_size=4,
)


def _sql(groups, aggs, where, k, m, j):
    text = (f"SELECT {', '.join(groups + aggs)} FROM F JOIN D ON F.d = D.did")
    if where:
        text += " WHERE " + where.format(k=k, m=k + m, j=j)
    return text + " GROUP BY " + ", ".join(groups)


@given(tables(), queries)
@settings(max_examples=30, deadline=None)
def test_group_by_every_route_matches_plaintext(km_big, data, drawn):
    dim_rows, fact_rows = data
    wh = Warehouse(km_big, w=3)
    wh.create_table(DIM, index_attrs=("cat", "lvl"))
    wh.create_table(FACT, index_attrs=("a", "s", "r", "day", "ok"), derived=(SQUARE,))
    wh.load_rows("D", dim_rows)
    wh.load_rows("F", fact_rows)
    oracle = PlainWarehouse()
    oracle.add_table(DIM, dim_rows)
    oracle.add_table(FACT, fact_rows, derived=[("v2", "square", "v", None, 0)])
    for groups, aggs, where, k, m, j in drawn:
        text = _sql(groups, aggs, where, k, m, j)
        qplan = plan(parse(text), wh)
        assert [s.route for s in qplan.group_sources] == [SOURCES[g] for g in groups]
        routes = [SOURCES[where.split()[0]]] if where else []
        assert [s.source.route for s in qplan.filter_steps] == routes
        assert execute(wh, qplan)[1] == oracle.query(parse(text)), text
