"""Randomized equivalence of the one-map Type II index.

`store.TypeTwoIndex` keeps one pk -> order key map per indexed attribute;
the sorted (key, pk) entries that lookups bisect and save writes are
derived from it on demand and kept until a write changes a key of that
index. The battery runs random programs against the two-structure index
it replaced (`tests/oracles.TypeTwoIndex`, a sorted list kept beside the
map): insert_many batches with NULL keys, unchanged keys, re-filed pks,
int and string keys, interleaved with lookups under every operator,
value_map, aggregates and a save/load round trip of a warehouse. Every
step must give the reference's answer, or its error, and the saved .idx
files must be the reference's entries byte for byte.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, Schema, Warehouse, init_participants
from fvss.errors import EmptyInput, NotIndexed
from fvss.store import TypeTwoIndex, _type2_text

from . import oracles

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
SCHEMA = Schema("t", (Column("k", "key"), Column("i", "int"), Column("s", "string")))
SPECS = [(SCHEMA, ("i", "s"), ())]
PKS = st.integers(0, 30)
KEYS = {"i": st.integers(-6, 6), "s": st.text("abc", min_size=1, max_size=3)}
OPS = ("=", "!=", "<>", "<", "<=", ">", ">=", "between", "in", "like")
SAME = object()   # a pair that gives the pk the key it has


@st.composite
def steps(draw):
    attr = draw(st.sampled_from(("i", "s")))
    keys = KEYS[attr]
    kind = draw(st.sampled_from(("write", "write", "write", "lookup", "lookup", "value_map",
                                 "aggregates", "round_trip")))
    if kind == "write":
        pks = draw(st.lists(PKS, unique=True, max_size=12))
        return kind, attr, [(draw(st.none() | st.just(SAME) | keys), pk) for pk in pks]
    if kind == "lookup":
        op = draw(st.sampled_from(OPS))
        if op == "between":
            return kind, attr, op, (draw(keys), draw(keys))
        if op == "in":
            return kind, attr, op, tuple(draw(st.lists(keys, max_size=4)))
        return kind, attr, op, draw(keys)
    if kind == "aggregates":
        fn = draw(st.sampled_from(("count", "min", "max", "median", "sum")))
        return kind, attr, fn, draw(st.lists(st.sets(PKS, max_size=12), min_size=1, max_size=3))
    return kind, attr


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (EmptyInput, NotIndexed) as exc:
        return type(exc), str(exc)


def _round_trip(wh, reference):
    """wh saved and loaded again; every .idx file is the reference's
    sorted entries as _type2_text writes them."""
    with tempfile.TemporaryDirectory() as root:
        wh.save(root)
        for (table, attr), entries in reference.maps.items():
            with open(f"{root}/index/type2/{table}.{attr}.idx") as f:
                assert f.read() == _type2_text(entries)
        return Warehouse.load(root, KM, SPECS, w=3)


@settings(deadline=None)
@given(st.lists(steps(), max_size=40))
def test_one_map_index_equals_the_two_structure_reference(program):
    wh = Warehouse(KM, w=3)
    wh.create_table(SCHEMA, index_attrs=("i", "s"))
    reference = oracles.TypeTwoIndex()
    for attr in ("i", "s"):
        reference.register("t", attr)
    for kind, attr, *args in program:
        idx = wh.type2
        if kind == "write":
            current = reference.keys[("t", attr)]
            pairs = [(current.get(pk) if key is SAME else key, pk) for key, pk in args[0]]
            idx.insert_many("t", attr, pairs)
            reference.insert_many("t", attr, pairs)
        elif kind == "lookup":
            assert _outcome(idx.lookup, "t", attr, *args) \
                == _outcome(reference.lookup, "t", attr, *args), args
        elif kind == "value_map":
            assert idx.value_map("t", attr) == reference.value_map("t", attr)
        elif kind == "aggregates":
            fn, groups = args
            assert _outcome(idx.aggregates, "t", attr, fn, groups) \
                == _outcome(reference.aggregates, "t", attr, fn, groups)
            for pks in groups:
                assert _outcome(idx.aggregate, "t", attr, fn, pks) \
                    == _outcome(reference.aggregate, "t", attr, fn, pks)
        else:
            wh = _round_trip(wh, reference)
        assert wh.type2.keys == reference.keys
    for index, entries in reference.maps.items():
        assert wh.type2.entries(*index) == entries
    assert _outcome(wh.type2.lookup, "t", "k", "=", 1) \
        == _outcome(reference.lookup, "t", "k", "=", 1)


def test_a_write_drops_only_the_sorted_entries_whose_keys_it_changes():
    idx = TypeTwoIndex()
    for attr in ("a", "b"):
        idx.register("t", attr)
        idx.insert_many("t", attr, [(k % 3, k) for k in range(6)])
    a, b = idx.entries("t", "a"), idx.entries("t", "b")
    idx.insert_many("t", "a", [(1, 1), (2, 2), (None, 9)])   # every key as it is
    assert idx.entries("t", "a") is a
    idx.insert_many("t", "a", [(1, 1), (0, 2)])
    assert idx.entries("t", "a") == sorted([(k % 3, k) for k in range(6) if k != 2] + [(0, 2)])
    assert idx.entries("t", "b") is b
    idx.remove("t", "b", 4)
    assert idx.entries("t", "b") == [e for e in b if e[1] != 4]


def test_an_update_in_place_keeps_the_views_of_the_keys_it_keeps():
    """Re-sharing a fact with a new price drops the price view only."""
    wh = Warehouse(KM, w=3)
    wh.create_table(Schema("Sales", (
        Column("SaleNo", "key"), Column("ProdNo", "fk"), Column("yearid", "int"),
        Column("monthid", "int"), Column("price", "real", scale=2),
    )), index_attrs=("yearid", "monthid", "price"))
    rows = [dict(SaleNo=pk, ProdNo=pk % 4, yearid=2010 + pk % 3, monthid=1 + pk % 12,
                 price=pk / 4) for pk in range(1, 41)]
    wh.load_rows("Sales", rows)
    views = {attr: wh.type2.entries("Sales", attr)
             for attr in ("ProdNo", "yearid", "monthid", "price")}
    wh.insert("Sales", dict(rows[6], price=99.5))
    for attr in ("ProdNo", "yearid", "monthid"):
        assert wh.type2.entries("Sales", attr) is views[attr]
    assert wh.type2.entries("Sales", "price") != views["price"]
    assert wh.type2.lookup("Sales", "price", ">", 9950) == set()
    assert wh.type2.lookup("Sales", "price", "=", 9950) == {7}
