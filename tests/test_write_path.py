"""Randomized equivalence of the column-at-a-time write path.

`Warehouse.load_rows` shares each batch of new records column-wise and
hands every provider one pk list and one column per field; updates and a
cube refresh's cell rewrites are one column update per provider. Each
battery replays the same writes one record (or one cell and provider) at
a time through the references in `tests/oracles.py` and compares every
provider's pks, positions, columns, NULL sets, fk maps, byte counters and
signature-tree levels, and the index server's Type I and Type II state.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import datetime
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fvss.store as store_module
from fvss import P_DEFAULT, Column, DerivedColumn, Schema, Warehouse, init_participants
from fvss.cube import (
    CubeHierarchy, CubeMeasure, CubeSpec, _rewritten_cells, cube_build, cube_table,
)
from fvss.errors import FvssError

from .oracles import per_cell_rewrite, per_record_load, tree_levels

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
KINDS = ("int", "real", "string", "bool", "date")


def _value(kind, scale):
    if kind == "int":
        return st.integers(-10**6, 10**6)
    if kind == "real":
        return st.integers(-10**7, 10**7).map(lambda v: Fraction(v, 10**scale))
    if kind == "string":
        return st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
                       min_size=1, max_size=6)
    if kind == "bool":
        return st.booleans()
    return st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 1, 1))


@st.composite
def scenarios(draw):
    """A schema with an fk, random data columns and maybe a derived
    square; provider weights (zeros allowed); maybe a failed provider;
    APPEND_ROWS; and batches of rows over a small key range, so that
    they mix new, stored and repeated keys."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    columns = [Column("k", "key"), Column("f", "fk")]
    columns += [Column(f"c{j}", kind, scale=draw(st.integers(0, 3)) if kind == "real" else 0)
                for j, kind in enumerate(kinds)]
    numeric = [c for c in columns if c.kind in ("int", "real")]
    derived = ()
    if numeric and draw(st.booleans()):
        x = draw(st.sampled_from(numeric))
        derived = (DerivedColumn("t", "sq", "square", x.name, scale=2 * x.scale),)
    names = [c.name for c in columns[2:]] + [d.name for d in derived]
    index_attrs = tuple(draw(st.lists(st.sampled_from(names), unique=True)))
    weights = draw(st.lists(st.sampled_from((0, 0.5, 1, 3)), min_size=5, max_size=5))
    failed = draw(st.sampled_from((None, None, 1, 2, 3, 4, 5)))
    append_rows = draw(st.sampled_from((1, 7, 500)))

    def row(pk):
        out = {"k": pk, "f": draw(st.integers(0, 50))}
        for col in columns[2:]:
            if draw(st.integers(0, 4)):
                out[col.name] = draw(_value(col.kind, col.scale))
        return out

    batches = [[row(pk) for pk in draw(st.lists(st.integers(1, 25), min_size=1, max_size=20))]
               for _ in range(draw(st.integers(1, 3)))]
    return Schema("t", tuple(columns)), derived, index_attrs, weights, failed, append_rows, batches


def _provider_state(wh, i):
    csp = wh.csps[i]
    trees = {t: csp.sigtree.record_trees[t].levels for t in csp.sigtree.table_order}
    return (csp.alive, csp.pks, csp.positions, csp.plain, csp.columns, csp.nulls,
            csp.bytes_transferred, trees, csp.sigtree.table_layer.levels)


def _index_state(wh):
    return ({t: list(e.items()) for t, e in wh.type1.entries.items()}, wh.type1.absent,
            {index: wh.type2.entries(*index) for index in wh.type2.keys}, wh.type2.keys)


def assert_same_store(batched, reference):
    """Every provider and the index server agree, and every alive
    provider's record trees are the trees its records give."""
    for i in sorted(batched.csps):
        assert _provider_state(batched, i) == _provider_state(reference, i)
        csp = batched.csps[i]
        for t, pks in csp.pks.items():
            for attr, column in csp.columns[t].items():
                # each stored pk is either in the share column or NULL, never both
                assert column.keys() | csp.nulls[t][attr] == set(pks)
                assert not column.keys() & csp.nulls[t][attr]
        if batched.csps[i].alive:
            for t in batched.schemas:
                schema = batched.schemas[t]
                leaves = batched.sign(i, schema, *batched.csps[i].slice_values(schema))
                assert batched.csps[i].sigtree.record_trees[t].levels \
                    == tree_levels(leaves, batched.w, KM.p)
            assert batched.verify_csp(i).ok
    assert _index_state(batched) == _index_state(reference)


def _warehouses(schema, derived, index_attrs, weights, failed):
    out = []
    for _ in range(2):
        wh = Warehouse(KM, w=3, weights=weights)
        wh.create_table(Schema("p", (Column("id", "key"), Column("v", "int"))))
        wh.create_table(schema, index_attrs=index_attrs, derived=derived)
        if failed is not None:
            wh.inject_failure(failed)
        out.append(wh)
    return out


def _outcome(load, wh, rows):
    try:
        return load(wh, "t", rows)
    except FvssError as exc:
        return type(exc)


@settings(deadline=None)
@given(scenarios())
def test_column_write_path_equals_the_per_record_reference(scenario):
    schema, derived, index_attrs, weights, failed, append_rows, batches = scenario
    batched, reference = _warehouses(schema, derived, index_attrs, weights, failed)
    with mock.patch.object(store_module, "APPEND_ROWS", append_rows):
        for rows in batches:
            got = _outcome(Warehouse.load_rows, batched, rows)
            assert got == _outcome(per_record_load, reference, rows)
    assert_same_store(batched, reference)


# cube cells

FACT = Schema("Sales", (
    Column("SaleNo", "key"),
    Column("yearid", "int"),
    Column("monthid", "int"),
    Column("price", "real", scale=2),
    Column("memo", "string"),
))
CUBE = CubeSpec("cells", "Sales", (CubeHierarchy(("yearid", "monthid")),), (
    CubeMeasure("sum", "price"), CubeMeasure("count"), CubeMeasure("max", "price"),
    CubeMeasure("min", "memo"),
))
SUMMABLE = ("sum_price", "count_rows")
RESHARED = {"max_price": _value("real", 2), "min_memo": _value("string", 0)}


def _cube_warehouse(facts):
    wh = Warehouse(KM, w=3)
    wh.create_table(FACT, index_attrs=("yearid", "monthid", "price", "memo"))
    wh.load_rows("Sales", facts)
    cube_build(wh, CUBE)
    return wh


@st.composite
def cell_changes(draw):
    """Facts, a refresh nonce, a random set of distinct cells and, for a
    random set of measures, their changes in the column form
    _cell_changes gives them: each provider's random deltas for a summable
    measure, new values (NULL allowed) for the others."""
    facts = [
        {"SaleNo": pk, "yearid": draw(st.integers(2010, 2012)),
         "monthid": draw(st.integers(1, 3)),
         "price": draw(_value("real", 2)),
         "memo": draw(st.none() | _value("string", 0))}
        for pk in range(1, draw(st.integers(1, 12)) + 1)
    ]
    cells = len({(f["yearid"], f["monthid"]) for f in facts}) \
        + len({f["yearid"] for f in facts}) + 1
    pks = draw(st.lists(st.integers(1, cells), unique=True, min_size=1))
    deltas = {m: [[draw(st.integers(0, KM.p - 1)) for _ in pks] for _ in range(5)]
              for m in SUMMABLE if draw(st.booleans())}
    replacements = {m: [draw(st.none() | strategy) for _ in pks]
                    for m, strategy in RESHARED.items() if draw(st.booleans())}
    return facts, draw(st.integers(1, 10**6)), pks, deltas, replacements


@settings(deadline=None)
@given(cell_changes())
def test_batched_cell_rewrite_equals_the_per_cell_reference(case):
    facts, refresh, pks, deltas, replacements = case
    assume(deltas or replacements)
    batched, reference = _cube_warehouse(facts), _cube_warehouse(facts)
    schema = batched.schemas[cube_table(CUBE)]
    batched.write(schema, *_rewritten_cells(batched, schema, pks, deltas, replacements,
                                            refresh), {})
    per_cell_rewrite(reference, schema, pks, deltas, replacements, refresh)
    assert_same_store(batched, reference)
