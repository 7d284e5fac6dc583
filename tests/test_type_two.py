"""Randomized equivalence of the one-map Type II index.

`index.TypeTwoIndex` keeps one pk -> order key map per indexed attribute
and nothing else: a lookup scans the map once, comparing through
`operator` functions, and the sorted (key, pk) entries that save writes
are sorted from it on each call. The battery runs random programs against
the two-structure index it replaced (`tests/oracles.TypeTwoIndex`, a
sorted list kept beside the map, which bisects): insert_many batches with
NULL keys, unchanged keys, re-filed pks, int and string keys, interleaved
with lookups under every operator, value_map, aggregates and a save/load
round trip of a warehouse. Lookups on the int attribute also take
non-whole Fraction operands, the order key query.literal_key gives a
literal finer than the column, under every operator, as `between` bounds
in either order and among `in` operands. Every step must give the
reference's answer, or its error, and the saved .idx files must be the
reference's entries byte for byte.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, Schema, Warehouse, init_participants
from fvss.errors import EmptyInput, NotIndexed
from fvss.index import TypeTwoIndex, _type2_text

from . import oracles

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
SCHEMA = Schema("t", (Column("k", "key"), Column("i", "int"), Column("s", "string")))
SPECS = [(SCHEMA, ("i", "s"), ())]
MAX_PK = 30
PKS = st.integers(0, MAX_PK)
KEYS = {"i": st.integers(-6, 6), "s": st.text("abc", min_size=1, max_size=3)}
# what a lookup compares keys with: the keys, and on the int attribute
# literals between them (query.literal_key's non-whole Fractions)
OPERANDS = {"i": KEYS["i"] | st.builds(lambda whole, part: whole + part, st.integers(-7, 6),
                                       st.sampled_from((Fraction(1, 2), Fraction(2, 3)))),
            "s": KEYS["s"]}
OPS = ("=", "!=", "<>", "<", "<=", ">", ">=", "between", "in", "like")
SAME = object()   # a pair that gives the pk the key it has
# operands every program's final index is probed with, under every
# operator: each key and a literal between each two neighbours
SWEEP = {"i": [Fraction(k, 2) if k % 2 else k // 2 for k in range(-13, 14)],
         "s": ["", "a", "aa", "ab", "abc", "b", "ba", "c", "cc", "d"]}


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
        operands = OPERANDS[attr]
        if op == "between":
            return kind, attr, op, (draw(operands), draw(operands))
        if op == "in":
            return kind, attr, op, tuple(draw(st.lists(operands, max_size=4)))
        return kind, attr, op, draw(operands)
    if kind == "aggregates":
        fn = draw(st.sampled_from(("count", "min", "max", "median", "sum")))
        return kind, attr, fn, draw(st.lists(st.sets(PKS, max_size=12), min_size=1, max_size=3))
    return kind, attr


def _sweep(op, operands):
    """The operands op is probed with: each of operands, every pair of them
    in both orders for between, and the two alternate halves for in."""
    if op == "between":
        return [pair for lo, hi in combinations_with_replacement(operands, 2)
                for pair in {(lo, hi), (hi, lo)}]
    if op == "in":
        return [tuple(operands[::2]), tuple(operands[1::2])]
    return operands


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
    # every pk a program files is a stored record, as load requires
    wh.load_rows("t", [{"k": pk, "i": None, "s": None} for pk in range(MAX_PK + 1)])
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
    for attr, operands in SWEEP.items():
        for op in OPS:
            for operand in _sweep(op, operands):
                assert _outcome(wh.type2.lookup, "t", attr, op, operand) \
                    == _outcome(reference.lookup, "t", attr, op, operand), (attr, op, operand)
    assert _outcome(wh.type2.lookup, "t", "k", "=", 1) \
        == _outcome(reference.lookup, "t", "k", "=", 1)


def test_a_write_drops_only_the_sorted_entries_whose_keys_it_changes():
    idx = TypeTwoIndex()
    for attr in ("a", "b"):
        idx.register("t", attr)
        idx.insert_many("t", attr, [(k % 3, k) for k in range(6)])
    a, b = idx.entries("t", "a"), idx.entries("t", "b")
    idx.insert_many("t", "a", [(1, 1), (2, 2), (None, 9)])   # every key as it is
    assert idx.entries("t", "a") == a
    idx.insert_many("t", "a", [(1, 1), (0, 2)])
    assert idx.entries("t", "a") == sorted([(k % 3, k) for k in range(6) if k != 2] + [(0, 2)])
    assert idx.entries("t", "b") == b
    idx.remove("t", "b", 4)
    assert idx.entries("t", "b") == [e for e in b if e[1] != 4]


def test_an_update_in_place_keeps_the_views_of_the_keys_it_keeps():
    """Re-sharing a fact with a new price changes the price entries only."""
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
        assert wh.type2.entries("Sales", attr) == views[attr]
    assert wh.type2.entries("Sales", "price") != views["price"]
    assert wh.type2.lookup("Sales", "price", ">", 9950) == set()
    assert wh.type2.lookup("Sales", "price", "=", 9950) == {7}
