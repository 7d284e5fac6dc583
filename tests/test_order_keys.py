"""Type II order keys from the one encoding of `Warehouse.load_rows`.

load_rows encodes each value once, as its row arrives: the same step
gives the share chunks the providers store and the order key the index
server files. The battery loads random batches (new, stored and repeated
keys, NULLs, negative ints, reals finer than their scale, dates, bools,
multi-byte strings and a derived square) and checks every Type II map
against `typed_key` of the plaintext rows. A row that fails to encode
must leave nothing of itself or of the rows after it at any provider or
index: the store equals one that loaded only the rows before it.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import datetime
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvss.store as store_module
from fvss import P_DEFAULT, Column, DerivedColumn, Schema, Warehouse, init_participants
from fvss.errors import OutOfRange, SchemaMismatch
from fvss.sharing import typed_key

from .oracles import with_derived
from .test_write_path import assert_same_store

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
SCHEMA = Schema("t", (
    Column("k", "key"),
    Column("f", "fk"),
    Column("i", "int"),
    Column("r", "real", scale=2),
    Column("d", "date"),
    Column("b", "bool"),
    Column("s", "string"),
))
SQUARE = DerivedColumn("t", "sq", "square", "r", scale=3)
VALUES = {
    "i": st.integers(-10**9, 10**9),
    "r": st.integers(-10**8, 10**8).flatmap(
        lambda v: st.sampled_from((Fraction(v, 10**4), Fraction(v, 1000), v / 1000,
                                   Decimal(v) / 100))),
    "d": st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31)),
    "b": st.booleans(),
    "s": st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1,
                 max_size=5),
}
# a row that raises while it is encoded, before anything is held
BAD = [
    ({"r": Fraction(10**30)}, OutOfRange),
    ({"i": 1 << 62}, OutOfRange),
    ({"s": ""}, OutOfRange),
    ({"f": "x"}, SchemaMismatch),
    ({"colour": "red"}, SchemaMismatch),
    ({"i": 2.7}, SchemaMismatch),           # int() once truncated these to 2
    ({"i": Fraction(5, 2)}, SchemaMismatch),
]


@st.composite
def rows(draw):
    out = {"k": draw(st.integers(1, 12)), "f": draw(st.integers(0, 20))}
    for name, values in VALUES.items():
        if draw(st.integers(0, 4)):
            out[name] = draw(values)
    return out


@st.composite
def loads(draw):
    """APPEND_ROWS and batches of rows over a small key range, each maybe
    with a row that fails to encode at a random position."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        batch = draw(st.lists(rows(), min_size=1, max_size=15))
        bad = None
        if draw(st.booleans()):
            patch, error = draw(st.sampled_from(BAD))
            bad = draw(st.integers(0, len(batch) - 1)), patch, error
        batches.append((batch, bad))
    return draw(st.sampled_from((1, 4, 500))), batches


def _warehouse():
    wh = Warehouse(KM, w=3, weights=(1, 0.5, 2, 1, 3))
    wh.create_table(SCHEMA, index_attrs=("i", "r", "d", "b", "s", "sq"), derived=(SQUARE,))
    return wh


def assert_order_keys(wh, plain):
    """Every Type II map holds typed_key of the plaintext of every
    non-NULL value, and its sorted entries are those pairs."""
    for col in [c for c in wh.schemas["t"].columns[1:] if wh.type2.is_indexed("t", c.name)]:
        want = {pk: typed_key(row[col.name], col.kind, col.scale)
                for pk, row in plain.items() if row.get(col.name) is not None}
        assert wh.type2.value_map("t", col.name) == want
        assert wh.type2.entries("t", col.name) == sorted((key, pk) for pk, key in want.items())


@settings(deadline=None)
@given(loads())
def test_order_keys_are_typed_keys_and_a_bad_row_leaves_nothing(load):
    append_rows, batches = load
    loaded, reference = _warehouse(), _warehouse()
    plain = {}
    with mock.patch.object(store_module, "APPEND_ROWS", append_rows):
        for batch, bad in batches:
            if bad is None:
                assert loaded.load_rows("t", batch) == len(batch)
                good = batch
            else:
                at, patch, error = bad
                good = batch[:at]
                with pytest.raises(error):
                    loaded.load_rows("t", good + [dict(batch[at], **patch)] + batch[at + 1:])
            reference.load_rows("t", good)
            plain.update((row["k"], with_derived(loaded, "t", row)) for row in good)
    assert_same_store(loaded, reference)
    assert_order_keys(loaded, plain)
