"""Randomized equivalence of cube builds and refreshes.

A build folds every fact into an empty cube and a refresh folds new facts
into a built one, through the same fold. The battery splits random facts
into a build set and one to three refresh batches (any of them may be
empty) and checks that every lattice level of the refreshed cube answers
exactly as a cube built over all the facts at once, and as the plaintext
`PlainWarehouse` answers the same GROUP BY. The cube sums a pair both
ways, counts an attribute with NULLs, and keeps an AVG, a MIN and a MAX.
Every level that keeps the attribute of one drawn predicate (any of the
eight operators, on an int dimension or the string one) is also sliced
with it as a WHERE, against the plaintext `WHERE ... GROUP BY`.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, Schema, Warehouse, init_participants
from fvss.cube import CubeHierarchy, CubeMeasure, CubeSpec, cube_build, cube_query, cube_refresh
from fvss.query import parse

from .oracles import PlainWarehouse

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
SALES = Schema("Sales", (
    Column("SaleNo", "key"),
    Column("yearid", "int"),
    Column("monthid", "int"),
    Column("region", "string"),
    Column("x", "real", scale=2),
    Column("y", "real", scale=2),
    Column("qty", "int"),
))
SPEC = CubeSpec("fold", "Sales", (
    CubeHierarchy(("yearid", "monthid")),
    CubeHierarchy(("region",)),
), (
    CubeMeasure("sum", "x+y"), CubeMeasure("sum", "x-y"), CubeMeasure("count", "qty"),
    CubeMeasure("avg", "x"), CubeMeasure("min", "x"), CubeMeasure("max", "qty"),
))
MEASURE_SQL = "SUM(x + y), SUM(x - y), COUNT(qty), AVG(x), MIN(x), MAX(qty)"
# every prefix of (yearid, monthid) with every prefix of (region,)
LEVELS = [("yearid", "monthid")[:i] + ("region",)[:j] for i, j in product(range(3), range(2))]


def _warehouse():
    wh = Warehouse(KM, w=3)
    wh.create_table(SALES, index_attrs=("yearid", "monthid", "region", "x", "qty"))
    return wh


def _level_sql(level, where=""):
    group = ", ".join(level)
    where = f" WHERE {where}" if where else ""
    if not level:
        return parse(f"SELECT {MEASURE_SQL} FROM Sales{where}")
    return parse(f"SELECT {group}, {MEASURE_SQL} FROM Sales{where} GROUP BY {group}")


@st.composite
def predicates(draw):
    """One (attr, op, operand) filter on a dimension, its values as query
    text, some of them outside the facts' range or absent, and the same
    predicate as SQL."""
    attr = draw(st.sampled_from(("yearid", "monthid", "region")))
    value = {"yearid": st.integers(2009, 2013).map(str), "monthid": st.integers(0, 4).map(str),
             "region": st.sampled_from("mnst")}[attr]
    sql = (lambda v: f"'{v}'") if attr == "region" else str
    op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=", "between", "in")))
    if op == "between":
        lo, hi = draw(value), draw(value)
        return (attr, op, (lo, hi)), f"{attr} BETWEEN {sql(lo)} AND {sql(hi)}"
    if op == "in":
        items = draw(st.lists(value, min_size=1, max_size=3))
        return (attr, op, tuple(items)), f"{attr} IN ({', '.join(map(sql, items))})"
    operand = draw(value)
    return (attr, op, operand), f"{attr} {op} {sql(operand)}"


@st.composite
def folds(draw):
    """Facts, and how many of them the build folds in, then each refresh
    batch in turn."""
    cents = st.integers(-10**5, 10**5).map(lambda v: Fraction(v, 100))
    facts = [
        {"SaleNo": pk, "yearid": draw(st.integers(2010, 2012)),
         "monthid": draw(st.integers(1, 3)), "region": draw(st.sampled_from("ns")),
         "x": draw(cents), "y": draw(cents), "qty": draw(st.none() | st.integers(-50, 50))}
        for pk in range(1, draw(st.integers(1, 14)) + 1)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(facts)), min_size=2, max_size=4)))
    cuts[-1] = len(facts)
    return facts, [b - a for a, b in zip([0] + cuts, cuts)]


@settings(deadline=None)
@given(folds(), predicates())
def test_refreshed_cube_answers_as_a_build_over_every_fact(case, predicate):
    facts, sizes = case
    where, where_sql = predicate
    folded = _warehouse()
    start = 0
    for k, size in enumerate(sizes):
        batch = facts[start:start + size]
        start += size
        folded.load_rows("Sales", batch)
        if k == 0:
            cube_build(folded, SPEC)
        else:
            cube_refresh(folded, SPEC, [f["SaleNo"] for f in batch])
    built = _warehouse()
    built.load_rows("Sales", facts)
    cube_build(built, SPEC)
    oracle = PlainWarehouse()
    oracle.add_table(SALES, facts)
    for level in LEVELS:
        got = cube_query(folded, SPEC, level)
        assert got == cube_query(built, SPEC, level), level
        assert got[1] == oracle.query(_level_sql(level)), level
        if where[0] in level:
            got = cube_query(folded, SPEC, level, where=(where,))
            assert got[1] == oracle.query(_level_sql(level, where_sql)), (level, where_sql)
