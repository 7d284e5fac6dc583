"""Randomized equivalence of the column-at-a-time row encoding.

`Warehouse.load_rows` encodes each batch of held rows a column at a time
(`sharing.encode_rows`, after `store._derived_keys` and the empty-string
refusal): derived values in integers, one kind dispatch and one range
check per batch. The battery draws a schema (fks, every data kind, reals
at scales 0-3, derived squares, products and quotients at several
scales) and a batch of 1 to 600 rows whose values come in every type a
caller may give: an int as int, bool, whole Fraction or numeric text, a
real as Fraction, float or Decimal, dates, bools, multi-byte strings and
NULLs; some rows carry a value that must be refused. It checks the
encoding against `oracles.encode_row`, which encodes one row at a time
through the separate per-value encoders (`encode_chunks`, `order_key`,
Fraction arithmetic for derived values): the same chunks and order keys,
and for a batch that fails, the same first failing row with the same
error.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import datetime
import random
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, DerivedColumn, Schema, Warehouse, init_participants

from . import oracles

KM = init_participants(5, 4, seed=bytes(range(32)), p=P_DEFAULT)
KINDS = ("int", "real", "date", "bool", "string")
LETTERS = "ab ñé中😀"
ERRORS = ("int not whole", "empty string", "unknown column", "fk None", "fk negative",
          "real too large", "quotient by 0")


@st.composite
def schemas(draw):
    """A schema with 1 or 2 fks and 1 to 5 data columns, and up to three
    derived columns over its numbers: a scale-0 (int) one only where its
    value is whole, a square or product of ints or any quotient."""
    columns = [Column("k", "key")]
    columns += [Column(f"f{j}", "fk", fk_table="p") for j in range(draw(st.integers(1, 2)))]
    for j, kind in enumerate(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))):
        columns.append(Column(f"c{j}", kind, scale=draw(st.integers(0, 3)) if kind == "real" else 0))
    numbers = [c for c in columns if c.kind in ("int", "real")]
    derived = []
    for j in range(draw(st.integers(0, 3)) if numbers else 0):
        kind = draw(st.sampled_from(("square", "product", "quotient")))
        x = draw(st.sampled_from(numbers))
        y = draw(st.sampled_from(numbers)) if kind != "square" else None
        ints = x.kind == "int" and (y is None or y.kind == "int")
        scale = draw(st.integers(0 if ints or kind == "quotient" else 1, 3))
        derived.append(DerivedColumn("t", f"d{j}", kind, x.name, y and y.name, scale))
    return Schema("t", tuple(columns)), tuple(derived)


def _value(rng, col, source):
    """A random value of col's kind in one of the types a caller may give
    it, or None; a bool only where no derived column reads it."""
    if rng.random() < 0.1:
        return None
    if col.kind == "int":
        v = rng.randint(-1000, 1000)
        return rng.choice((v, Fraction(v * 3, 3), str(v)) if source else
                          (v, Fraction(v * 3, 3), str(v), v % 2 == 0))
    if col.kind == "real":
        v = rng.randint(-10**6, 10**6)
        return rng.choice((Fraction(v, 1000), v / 1000, Decimal(v) / 1000, Fraction(v, 7), v // 1000))
    if col.kind == "date":
        return datetime.date(1900, 1, 1) + datetime.timedelta(days=rng.randint(0, 73000))
    if col.kind == "bool":
        return rng.random() < 0.5
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(1, 5)))


def _spoil(rng, row, schema, derived):
    """Give row a value that must be refused, if its schema has a column
    for one."""
    of_kind = lambda kind: [c.name for c in schema.columns if c.kind == kind]
    error = rng.choice(ERRORS)
    if error == "int not whole" and of_kind("int"):
        row[rng.choice(of_kind("int"))] = rng.choice((2.5, Fraction(5, 2), "2.5"))
    elif error == "empty string" and of_kind("string"):
        row[rng.choice(of_kind("string"))] = ""
    elif error == "unknown column":
        row["colour"] = "red"
    elif error in ("fk None", "fk negative"):
        row[rng.choice(of_kind("fk"))] = None if error == "fk None" else -1
    elif error == "real too large" and of_kind("real"):
        row[rng.choice(of_kind("real"))] = Fraction(10**30)
    elif error == "quotient by 0":
        for d in derived:
            if d.kind == "quotient" and row.get(d.x) is not None:
                row[d.y] = 0
                break


@st.composite
def batches(draw):
    schema, derived = draw(schemas())
    size = draw(st.one_of(st.integers(1, 8), st.integers(9, 600)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spoil = draw(st.sampled_from((0, 0, 1 / size, 4 / size, 0.5)))
    sources = {d.x for d in derived} | {d.y for d in derived}
    rows = []
    for pk in range(size):
        row = {"k": pk}
        for col in schema.columns[1:]:
            if col.kind == "fk":
                row[col.name] = rng.choice((pk, str(pk), Fraction(pk)))
            elif rng.random() < 0.9:
                row[col.name] = _value(rng, col, col.name in sources)
        if rng.random() < spoil:
            _spoil(rng, row, schema, derived)
        rows.append(row)
    return schema, derived, rows


def _reference(wh, schema, rows):
    """(count, values, keys, error) of oracles.encode_row over rows: the
    columns of the rows before the first that raises, and its error."""
    encoded, error = [], None
    for row in rows:
        try:
            encoded.append(oracles.encode_row(wh, schema, row))
        except Exception as exc:
            error = exc
            break
    fields = len(schema.columns) - 1
    values = [[v[f] for v, _ in encoded] for f in range(fields)]
    keys = [[k[f] for _, k in encoded] for f in range(fields)]
    return len(encoded), values, keys, error


@settings(deadline=None)
@given(batches())
def test_column_encoding_equals_the_per_row_reference(case):
    schema, derived, rows = case
    wh = Warehouse(KM, w=3)
    full = wh.create_table(schema, derived=derived)
    count, values, keys, error = wh._encoded_prefix(full, rows)
    want_count, want_values, want_keys, want_error = _reference(wh, full, rows)
    assert count == want_count
    assert (type(error), str(error)) == (type(want_error), str(want_error))
    assert values == want_values
    assert keys == want_keys
