"""The package's value records against the dataclasses they replaced.

Every immutable record in `fvss` is a named tuple: a cold process builds
none of the generated methods a dataclass execs. The battery holds the
ones with construction logic or hidden fields (`Schema`, `Column`,
`PricingPolicy`, `KeyMaterial`, `AppConfig`, `DerivedColumn`) and a
plain one with defaults (`PlannedAgg`) to the frozen dataclasses in
`tests/oracles.py`, for random field values: equality between records
of one type, hash, repr, field reads and the errors construction
raises. It also checks, on one instance of every record, that attribute
assignment raises AttributeError and that the record is truthy, and
that a KeyMaterial's repr never shows its signing keys.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import dataclasses
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import (P_DEFAULT, config, cost, cube, index, init_participants, keyed, provider, query,
                  sharing, sigtree, store)
from fvss.errors import OutOfRange, SchemaMismatch
from fvss.provider import StoredRecord
from fvss.sigtree import BreachReport

from . import oracles

SEED = bytes(range(32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    KM = init_participants(5, 4, seed=SEED, p=P_DEFAULT)

NAME = st.text("abc", min_size=1, max_size=2)
OPTIONAL_NAME = st.none() | NAME
KIND = st.sampled_from(("key", "fk", "int", "real", "string", "date", "bool"))
SMALL = st.integers(-2, 3)


def _outcome(make, *args, **kwargs):
    """What make returns, or the type and message of the error it raises."""
    try:
        return make(*args, **kwargs)
    except (SchemaMismatch, OutOfRange, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _hash(record):
    try:
        return hash(record)
    except TypeError:   # a dict field
        return TypeError


def _same(new, ref):
    """new and ref agree on repr, field names, field reads and hash."""
    if isinstance(ref, tuple):   # both raised
        assert new == ref
        return
    assert repr(new) == repr(ref)
    names = tuple(f.name for f in dataclasses.fields(ref))
    assert new._fields == names
    for name in names:
        assert repr(getattr(new, name)) == repr(getattr(ref, name))
    assert _hash(new) == _hash(ref)


def _pair(strategy):
    """Two argument sets, equal about half the time."""
    return strategy.flatmap(lambda a: st.tuples(st.just(a), st.just(a) | strategy))


def _same_pair(make_new, make_ref, pair, to_new=lambda args: args, to_ref=lambda args: args):
    (a, b) = pair
    new = [_outcome(make_new, *to_new(args)) for args in (a, b)]
    ref = [_outcome(make_ref, *to_ref(args)) for args in (a, b)]
    for n, r in zip(new, ref):
        _same(n, r)
    assert (new[0] == new[1]) == (ref[0] == ref[1])
    assert (new[0] != new[1]) == (ref[0] != ref[1])
    return new, ref


COLUMN_ARGS = st.tuples(NAME, KIND, st.integers(0, 4), OPTIONAL_NAME)


@settings(deadline=None)
@given(pair=_pair(COLUMN_ARGS))
def test_column_equals_its_reference(pair):
    _same_pair(sharing.Column, oracles.Column, pair)


@settings(deadline=None)
@given(pair=_pair(st.tuples(NAME, st.lists(COLUMN_ARGS, max_size=4))))
def test_schema_equals_its_reference(pair):
    """Schema checks its columns as the dataclass did (a duplicate name or
    a first column that is not the key is a SchemaMismatch with the same
    message) and derives the same lookups."""
    new, ref = _same_pair(
        sharing.Schema, oracles.Schema, pair,
        to_new=lambda a: (a[0], tuple(sharing.Column(*c) for c in a[1])),
        to_ref=lambda a: (a[0], tuple(oracles.Column(*c) for c in a[1])),
    )
    for n, r in zip(new, ref):
        if isinstance(r, tuple):
            assert r[0] is SchemaMismatch
            continue
        assert n.key == r.key
        for method in ("data_columns", "plain_columns", "record_fields"):
            assert repr(getattr(n, method)()) == repr(getattr(r, method)())
        for name in [c.name for c in r.columns] + ["zz"]:
            assert repr(_outcome(n.column, name)) == repr(_outcome(r.column, name))
        moved, ref_moved = n._replace(table="zz"), dataclasses.replace(r, table="zz")
        assert repr(moved) == repr(ref_moved)
        assert moved.record_fields() == ref_moved.record_fields()


PRICE = st.integers(-1, 50) | st.fractions(Fraction(-1, 10), 5) \
    | st.sampled_from(("0.013", "1.5", "-0.25", "7")) | st.floats(0, 3)
ROW = st.lists(PRICE, max_size=3)


@settings(deadline=None)
@given(pair=_pair(st.tuples(ROW, ROW, ROW, ROW) | st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.lists(PRICE, min_size=n, max_size=n)] * 4))))
def test_pricing_policy_equals_its_reference(pair):
    """Prices become Fractions at construction, and rows of different
    lengths or a negative price are an OutOfRange with the same message."""
    new, ref = _same_pair(cost.PricingPolicy, oracles.PricingPolicy, pair)
    for n, r in zip(new, ref):
        if isinstance(r, tuple):
            assert r[0] is OutOfRange
            continue
        assert n.n == r.n
        for tier in ("sVM", "mVM", "lVM"):
            for i in range(1, r.n + 1):
                assert n.vm_price(tier, i) == r.vm_price(tier, i)


IDS = st.tuples(SMALL, SMALL)
INT_DICT = st.dictionaries(SMALL, SMALL, max_size=2)
KEY_ARGS = st.tuples(st.binary(max_size=2), SMALL, SMALL, SMALL, SMALL, SMALL, IDS, IDS, SMALL,
                     INT_DICT, INT_DICT)
KEY_DEFAULTS = st.fixed_dictionaries({}, optional={
    "hf_star_keys": st.dictionaries(SMALL, st.binary(max_size=2), max_size=2),
    "points": INT_DICT,
})


@settings(deadline=None)
@given(pair=_pair(st.tuples(KEY_ARGS, KEY_DEFAULTS)))
def test_key_material_equals_its_reference(pair):
    """Equal fields make equal key material, its repr leaves out the
    signing keys, dict fields leave it unhashable, and the two dicts left
    out default to new empty ones."""
    (a, b) = pair
    new = [keyed.KeyMaterial(*args, **kw) for args, kw in (a, b)]
    ref = [oracles.KeyMaterial(*args, **kw) for args, kw in (a, b)]
    for n, r in zip(new, ref):
        _same(n, r)
        assert "hf_star_keys" not in repr(n)
    assert (new[0] == new[1]) == (ref[0] == ref[1])
    if "points" not in a[1]:
        assert new[0].points is not keyed.KeyMaterial(*a[0]).points


def test_key_material_replace_keeps_its_cached_states_apart():
    """_replace builds a record with its own instance dict: a cached
    property of the copy is computed from the copy's fields."""
    assert KM.share_basis == KM._replace().share_basis
    other = KM._replace(he1_scalar=KM.he1_scalar + 1)
    assert other.share_basis[3] == KM.he1_scalar + 1
    assert KM.share_basis[3] == KM.he1_scalar
    assert other.hf_star(1, b"x") == KM.hf_star(1, b"x")
    assert repr(dataclasses.replace(oracles.KeyMaterial(*KM), he1_scalar=5)) \
        == repr(KM._replace(he1_scalar=5))


CONFIG_DEFAULTS = st.fixed_dictionaries({}, optional={
    "w": st.integers(2, 4),
    "weights": st.none() | st.tuples(st.floats(0, 2), st.floats(0, 2)),
    "bias": st.none() | SMALL,
    "pricing": st.integers(1, 2).map(lambda n: ((n,) * n, (1,) * n, (2,) * n, (3,) * n)),
    "tables": st.sampled_from(((), (("T", ("v",), ()),))),
    "cubes": st.dictionaries(NAME, SMALL, max_size=2),
})


@settings(deadline=None)
@given(pair=_pair(st.tuples(st.tuples(SMALL, SMALL, SMALL, st.binary(max_size=2),
                                      st.sampled_from(("a", "b/c"))), CONFIG_DEFAULTS)))
def test_app_config_equals_its_reference(pair):
    """Defaults included: the reference pricing sheet, and a new dict of
    cubes per config."""
    def build(make, pricing, args, kw):
        n, t, p, seed, root = args
        kw = dict(kw, **({"pricing": pricing(*kw["pricing"])} if "pricing" in kw else {}))
        return make(n, t, p, seed, Path(root), **kw)

    (a, b) = pair
    new = [build(config.AppConfig, cost.PricingPolicy, *args) for args in (a, b)]
    ref = [build(oracles.AppConfig, oracles.PricingPolicy, *args) for args in (a, b)]
    for n, r in zip(new, ref):
        _same(n, r)
    assert (new[0] == new[1]) == (ref[0] == ref[1])
    if "cubes" not in a[1]:
        again = build(config.AppConfig, cost.PricingPolicy, *a)
        assert again.cubes == {} and again.cubes is not new[0].cubes
    root = Path("elsewhere")
    assert repr(new[0]._replace(root=root)) == repr(dataclasses.replace(ref[0], root=root))


VALUE = st.none() | st.integers(-5, 5) | st.fractions(Fraction(-3), 3, max_denominator=7) \
    | st.sampled_from(("1.25", "-0.5"))


@settings(deadline=None)
@given(pair=_pair(st.tuples(NAME, NAME, st.sampled_from(("square", "product", "quotient", "cube")),
                            NAME, OPTIONAL_NAME, st.integers(0, 3))),
       row=st.dictionaries(NAME, VALUE, max_size=4))
def test_derived_column_equals_its_reference(pair, row):
    """Besides the record itself: the order key a row's derived column
    gets (store._derived_keys, in integers) is the reference's compute,
    through Fraction, keyed at the column's scale, where a scale-0 value
    that is not whole stays a Fraction (which the encoding refuses); a
    quotient by 0, which compute raises as ZeroDivisionError, is
    OutOfRange naming the pk."""
    new, ref = _same_pair(index.DerivedColumn, oracles.DerivedColumn, pair)
    for n, r in zip(new, ref):
        if type(n) is tuple:
            continue
        want = _outcome(r.compute, row)
        if type(want) is tuple and want[0] is ZeroDivisionError:
            want = OutOfRange, f"{n.table}.{n.name} of pk None: {n.y} is 0"
        elif isinstance(want, Fraction):
            want = (oracles.scaled_int(want, n.scale) if n.scale
                    else want.numerator if want.denominator == 1 else want)
        schema = sharing.Schema(n.table, (sharing.Column("id", "key"),))
        got = _outcome(lambda: store._derived_keys(schema, [n], [row])[n.name][0])
        assert repr(got) == repr(want)


@settings(deadline=None)
@given(pair=_pair(st.tuples(st.sampled_from(("sum", "count", "var")),
                            st.sampled_from(("star", "plain", "combined")))),
       rest=st.fixed_dictionaries({}, optional=dict.fromkeys(
           ("attr", "x", "y", "op", "square"), OPTIONAL_NAME)))
def test_planned_agg_equals_its_reference(pair, rest):
    new, ref = _same_pair(lambda *a: query.PlannedAgg(*a, **rest),
                          lambda *a: oracles.PlannedAgg(*a, **rest), pair)
    assert new[0] == tuple(dataclasses.astuple(ref[0]))


# one instance of every record


def _records():
    wh = store.Warehouse(KM, w=3)
    product = sharing.Schema("P", (sharing.Column("id", "key"), sharing.Column("cat", "string")))
    sales = sharing.Schema("S", (
        sharing.Column("id", "key"), sharing.Column("pid", "fk", fk_table="P"),
        sharing.Column("qty", "int"), sharing.Column("price", "real", scale=2),
    ))
    wh.create_table(product, index_attrs=("cat",))
    wh.create_table(sales, index_attrs=("qty",))
    spec = cube.CubeSpec("c", "S", (cube.CubeHierarchy(("cat",), "P", "pid"),),
                         (cube.CubeMeasure("sum", "qty"), cube.CubeMeasure("avg", "price")))
    layout = cube._measure_layout(spec, wh.schemas["S"])
    parsed = query.parse("SELECT P.cat, SUM(S.qty), COUNT(*) FROM S JOIN P ON S.pid = P.id "
                         "WHERE S.qty > 2 GROUP BY P.cat")
    planned = query.plan(parsed, wh)
    group = sharing.group_from_bitmap("11100")
    report = cost.compute_cost(cost.sharing_profiles()[0], cost.reference_pricing())
    return [
        parsed, *parsed.select, *(item.expr for item in parsed.select),
        parsed.select[2].expr.arg, *parsed.joins, *parsed.where,
        query.Combo("*", query.AttrRef(None, "qty"), query.AttrRef(None, "price")),
        *query._tokenize("SELECT 1"), planned, *planned.filter_steps, *planned.group_sources,
        *planned.items, planned.items[1].agg, query.Resolved("P", "cat", product.column("cat")),
        product, product.columns[0], group, sharing.linear_rows(group.sg, (1, 2, 3, 4), 7, KM),
        sharing.share_record({"id": 1, "cat": "x"}, product, (1,) * 5, range(1, 6), KM),
        spec, spec.hierarchies[0], spec.measures[0], layout, *layout.stored,
        cost.reference_pricing(), cost.sharing_profiles()[0], report, *report.lines,
        *cost.storage_comparison(),
        sigtree.BreachEntry("S", 3, ((0, 0),)), index.DerivedColumn("S", "sq", "square", "qty"),
        KM, config.AppConfig(5, 4, P_DEFAULT, SEED, Path("root")),
    ]


def _record_types():
    """Every named-tuple record class the package defines, less the field
    bases of the ones that add construction logic."""
    found = {
        obj for mod in (query, sharing, cube, cost, sigtree, provider, index, store, keyed, config)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__
    }
    return {cls for cls in found if not any(cls in other.__bases__ for other in found)}


RECORDS = _records()


def test_the_instances_cover_every_record_type():
    assert {type(r) for r in RECORDS} == _record_types()
    # 32 that were dataclasses, and LinearRows and _MeasureLayout
    assert len(_record_types()) == 34


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_record_refuses_assignment_and_is_truthy(record):
    for name in record._fields + ("extra",) + tuple(getattr(record, "__dict__", ())):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record
    assert type(record)._make(record) == record


def test_key_material_repr_never_shows_the_signing_keys():
    text = repr(KM)
    assert "hf_star_keys" not in text
    assert all(repr(key) not in text for key in KM.hf_star_keys.values())


def test_mutable_records_compare_by_value():
    """BreachReport and StoredRecord fill in or change after construction:
    plain classes, equal by value, unhashable, each with its own lists."""
    a, b = BreachReport(), BreachReport()
    assert a == b and a.entries is not b.entries
    a.entries.append(sigtree.BreachEntry(None, None, ()))
    assert a != b
    assert repr(b) == "BreachReport(entries=[], inspected=0)"
    rec = StoredRecord(1, {"pid": 2}, {"qty": (5,)})
    assert rec == StoredRecord(1, {"pid": 2}, {"qty": (5,)}) != StoredRecord(1, {}, {})
    assert repr(rec) == "StoredRecord(pk=1, plain={'pid': 2}, shares={'qty': (5,)})"
    for value in (a, rec):
        with pytest.raises(TypeError):
            hash(value)
