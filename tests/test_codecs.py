"""Randomized equivalence of the column-wise text codecs and of the
typed-value encoding.

The store writes and parses every saved file a column at a time. Each
battery draws what a file holds, writes it with the store's codec and
with the per-line reference in `tests/oracles.py`, and checks that the
bytes are equal, that both parsers return the same thing (on hand-edited
text too: empty lines, lines of the wrong width, gaps, and the upper tree
levels older saves wrote, interleaved), and that parsing what was written
gives back what was drawn.

A typed value becomes its integer in one place (sharing.typed_key); the
value battery checks share chunks, their decoding, Type II order keys
and their display values against the separate encoders in
`tests/oracles.py` that it replaced, over every kind.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import DEFAULT_BIAS, P_DEFAULT, Column, Schema
from fvss.errors import OutOfRange, SchemaMismatch
from fvss.index import TypeOneIndex, _bitmaps_text, _parse_type2, _read_bitmaps, _type2_text
from fvss.provider import _leaves_text, _parse_leaves, _parse_shares, _shares_text
from fvss.sharing import decode, encode_chunks, typed_key, typed_value
from fvss.sigtree import WaryTree

from . import oracles

P = P_DEFAULT
CHUNK = st.sampled_from((0, 1, P - 1)) | st.integers(0, P - 1)
INT = st.integers(-2**63, 2**63)


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, SchemaMismatch, OutOfRange) as exc:
        return type(exc), str(exc)


# .shares files


@st.composite
def slices(draw):
    """A schema of fk and data columns in any order, and a slice of it:
    distinct pks (maybe none), fk values, and per data column a share or
    NULL: an int column's one chunk, a string column's tuple of one or
    more chunks."""
    kinds = draw(st.lists(st.sampled_from(("fk", "int", "string")), max_size=5))
    schema = Schema("t", (Column("k", "key"),) + tuple(
        Column(f"c{j}", kind) for j, kind in enumerate(kinds)))
    pks = draw(st.lists(st.integers(0, 2**63), unique=True, max_size=12))
    values = []
    for kind in kinds:
        if kind == "fk":
            values.append([draw(INT) for _ in pks])
            continue
        share = CHUNK if kind == "int" else st.lists(
            CHUNK, min_size=1, max_size=1 if draw(st.booleans()) else 4).map(tuple)
        values.append([draw(st.none() | share) for _ in pks])
    return schema, pks, values


@settings(deadline=None)
@given(slices())
def test_shares_codec_equals_the_per_line_reference(case):
    schema, pks, values = case
    chunks = oracles.chunk_columns(schema, values)
    text = _shares_text(schema, pks, values)
    assert text == oracles._shares_text(schema, pks, chunks)
    assert _parse_shares(schema, text) == (pks, values)
    assert oracles._parse_shares(schema, text) == (pks, chunks)


@settings(deadline=None)
@given(slices(), st.data())
def test_shares_parser_equals_the_reference_on_edited_text(case, data):
    """Empty lines are skipped; a line with a field too many or too few
    is SchemaMismatch in both; a field the edits leave empty (an empty
    line given a field) is the store's SchemaMismatch for a field that is
    not a decimal integer, where the reference raises int()'s ValueError."""
    schema, pks, values = case
    lines = _shares_text(schema, pks, values).splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        edit = data.draw(st.sampled_from(("empty", "more", "fewer")))
        if edit == "empty":
            lines.insert(at, "")
        elif lines and at < len(lines):
            fields = lines[at].split("\t")
            lines[at] = "\t".join(fields + ["7"] if edit == "more" else fields[:-1])
    text = "".join(line + "\n" for line in lines)

    def reference(schema, text):
        try:
            pks, chunks = oracles._parse_shares(schema, text)
        except ValueError:   # a field left empty by the edits
            raise SchemaMismatch(
                f"{schema.table}.shares: a field that is not a decimal integer") from None
        return pks, oracles.share_columns_form(schema, chunks)

    assert _outcome(_parse_shares, schema, text) == _outcome(reference, schema, text)


# .sigtree files


@st.composite
def trees(draw):
    """A tree of no, one or many leaves, chunk-like values."""
    w = draw(st.integers(2, 4))
    return WaryTree.from_leaves(w, P, draw(st.lists(CHUNK, max_size=40)))


def _older_save(tree, data):
    """The lines an older save wrote for tree, every level's (level, index,
    value) triples, as a random merge of the levels that keeps each
    level's own order."""
    queues = [[f"{level}\t{index}\t{value}" for index, value in enumerate(nodes)][::-1]
              for level, nodes in enumerate(tree.levels)]
    lines = []
    while any(queues):
        lines.append(data.draw(st.sampled_from([q for q in queues if q])).pop())
    return lines


def _loaded(w, name, lines):
    """The levels of the tree that the store's leaf parser gives at fan-out w."""
    return WaryTree.from_leaves(w, P, _parse_leaves(name, lines)).levels


def _reference(w, name, lines):
    return oracles.tree_levels([v % P for v in oracles.parse_leaves(name, lines)], w, P)


@settings(deadline=None)
@given(trees(), st.integers(2, 4))
def test_tree_codec_equals_the_per_line_reference(tree, w):
    """The saved text is one line per leaf and nothing else; parsed, it
    gives back the leaves, and the tree rebuilt at any fan-out is the
    whole-level recomputation."""
    leaves = tree.levels[0]
    text = _leaves_text(leaves)
    assert text == oracles.leaves_text(leaves)
    lines = text.splitlines()
    assert _parse_leaves("t.sigtree", lines) == oracles.parse_leaves("t.sigtree", lines) == leaves
    assert _loaded(w, "t.sigtree", lines) == _reference(w, "t.sigtree", lines) \
        == oracles.tree_levels(leaves, w, P)


@settings(deadline=None)
@given(trees(), st.data())
def test_an_older_save_gives_the_leaves_of_its_leaf_lines(tree, data):
    """Text an older save wrote, with every upper level interleaved among
    the leaves, parses to the same leaves as the leaves-only text."""
    lines = _older_save(tree, data)
    assert _parse_leaves("t.sigtree", lines) == oracles.parse_leaves("t.sigtree", lines) \
        == _parse_leaves("t.sigtree", _leaves_text(tree.levels[0]).splitlines())


@settings(deadline=None)
@given(trees(), st.booleans(), st.data())
def test_tree_parser_equals_the_reference_on_edited_text(tree, older, data):
    """Leaves-only or older text with a gap in the leaf indices, a line of
    a negative level, a line of 2 or 4 fields, an empty line or a value of
    p or more: the same tree or the same SchemaMismatch as the per-line
    reference."""
    lines = _older_save(tree, data) if older else _leaves_text(tree.levels[0]).splitlines()
    edit = data.draw(st.sampled_from(("gap", "negative", "width", "empty", "big")))
    at = data.draw(st.integers(0, max(len(lines) - 1, 0)))
    if lines and edit == "gap":
        del lines[at]
    elif edit == "negative":
        lines.insert(at, f"-{data.draw(st.integers(1, 3))}\t0\t5")
    elif lines and edit == "width":
        fields = lines[at].split("\t")
        lines[at] = "\t".join(fields[:2] if data.draw(st.booleans()) else fields + ["5"])
    elif edit == "empty":
        lines.insert(at, "")
    elif lines:
        level, index, value = lines[at].split("\t")
        lines[at] = f"{level}\t{index}\t{int(value) + P}"
    w = data.draw(st.integers(2, 4))
    assert _outcome(_loaded, w, "t.sigtree", lines) == _outcome(_reference, w, "t.sigtree", lines)


# index/type1.bitmap


@st.composite
def bitmap_lines(draw):
    """(table, pk, bitmap) rows over two tables, interleaved, bitmaps of 5
    bits (a few of another length); at times one (table, pk) is given a
    second line, with its bitmap or another."""
    bitmap = st.text("01", min_size=5, max_size=5) | st.text("01", max_size=7)
    rows = draw(st.lists(st.tuples(st.sampled_from(("a", "cube:b")), st.integers(-5, 30),
                                   bitmap), max_size=30, unique_by=lambda row: row[:2]))
    if rows and draw(st.booleans()):
        table, pk, old = draw(st.sampled_from(rows))
        again = (table, pk, draw(st.just(old) | bitmap))
        rows.insert(draw(st.integers(0, len(rows))), again)
    return rows


def _type1_state(type1):
    return ({t: list(e.items()) for t, e in type1.entries.items()}, type1.absent)


@settings(deadline=None)
@given(bitmap_lines())
def test_bitmap_codec_equals_the_per_line_reference(rows):
    """A file that names one (table, pk) twice is refused; any other loads
    as the per-line reference loads it and is written back line for line."""
    text = "".join(f"{table}\t{pk}\t{bitmap}\n" for table, pk, bitmap in rows)
    loaded, reference = TypeOneIndex(), TypeOneIndex()
    if len({row[:2] for row in rows}) < len(rows):
        with pytest.raises(SchemaMismatch, match=r"^index/type1\.bitmap: a .* pk on two lines$"):
            _read_bitmaps(loaded, text)
        return
    _read_bitmaps(loaded, text)
    oracles.load_bitmap_lines(reference, text)
    assert _type1_state(loaded) == _type1_state(reference)
    order = list(loaded.entries)
    written = "".join(_bitmaps_text(table, loaded.entries[table]) for table in order)
    assert written == oracles.bitmap_lines_text(reference, order)
    again = TypeOneIndex()
    _read_bitmaps(again, written)
    assert _type1_state(again) == _type1_state(loaded)


# index/type2/<table>.<attr>.idx


INT_KEYS = st.integers(-2**70, 2**70) | st.booleans()
STR_KEYS = (
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)
    | st.sampled_from(('"', "\\", 'a"b\\c', "\u00fc\u20ac\U0001d11e", "[1, 2]", "-0", "null"))
)


@settings(deadline=None)
@given(st.sampled_from((INT_KEYS, STR_KEYS)).flatmap(
    lambda keys: st.lists(st.tuples(keys, st.integers(-2**63, 2**63)), max_size=20)))
def test_type2_codec_equals_the_per_entry_reference(entries):
    """Integer keys (negative, bool) or string keys (quotes, backslashes,
    non-ASCII): an index holds one kind."""
    text = _type2_text(entries)
    assert text == oracles.type2_text(entries)
    parsed = _parse_type2(text)
    assert parsed == entries
    assert (sorted(parsed), {pk: key for key, pk in parsed}) == oracles.parse_type2(text)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(0, 10**6)), max_size=10),
       st.sampled_from(("", "\n", " ", "[1.5, 3]\n", "[01, 3]\n", "[true, 3]\n", "[1,2]\n")))
def test_type2_parser_reads_other_json_as_the_reference_does(entries, extra):
    """A file _type2_text would not write (empty lines, floats, bools,
    other spacing) goes through json, as the reference does."""
    text = _type2_text(entries) + extra
    try:
        want = oracles.parse_type2(text)
    except ValueError as exc:
        want = type(exc)
    try:
        parsed = _parse_type2(text)
        got = sorted(parsed), {pk: key for key, pk in parsed}
    except ValueError as exc:
        got = type(exc)
    assert got == want


def test_set_many_equals_set_on_a_filled_table():
    """set_many of new pks on a table that already holds others: the same
    entries and absent sets as set of each pair in order."""
    batches = [
        [(1, "11100"), (2, "01110"), (3, "11100")],
        [(6, "11111"), (4, "00111"), (0, "10101"), (5, "11100")],
        [(7, "01111")],
    ]
    many, one = TypeOneIndex(), TypeOneIndex()
    for batch in batches:
        many.set_many("t", *map(list, zip(*batch)))
        for pk, bitmap in batch:
            oracles.type1_set(one, "t", pk, bitmap)
        assert _type1_state(many) == _type1_state(one)
    assert list(many.entries["t"]) == [1, 2, 3, 6, 4, 0, 5, 7]
    assert many.absent["t"][1] == {2, 4, 7}


@settings(deadline=None)
@given(st.data())
def test_set_many_equals_set_on_random_batches(data):
    """Batches of (pk, bitmap) pairs, each pk new to the table, over few
    bitmaps, so that bitmaps repeat within a batch and across batches."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 40),
                                         st.text("01", min_size=3, max_size=3)),
                               max_size=30, unique_by=lambda pair: pair[0]))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=3)))
    many, one = TypeOneIndex(), TypeOneIndex()
    many.create_table("t")
    one.create_table("t")
    for start, stop in zip([0, *cuts], [*cuts, len(pairs)]):
        batch = pairs[start:stop]
        many.set_many("t", [pk for pk, _ in batch], [bitmap for _, bitmap in batch])
        for pk, bitmap in batch:
            oracles.type1_set(one, "t", pk, bitmap)
    assert _type1_state(many) == _type1_state(one)


# typed values: share chunks, order keys and their inverses


def _draw_value(data, kind):
    """A value of kind as a row may hold it, None one time in ten."""
    if data.draw(st.integers(0, 9)) == 0:
        return None
    if kind in ("int", "key", "fk"):
        return data.draw(st.integers(-2**64, 2**64))
    if kind == "real":
        return data.draw(
            st.floats(-1e12, 1e12, allow_nan=False)
            | st.decimals(-10**12, 10**12, allow_nan=False, allow_infinity=False)
            | st.fractions(-10**12, 10**12)
            | st.integers(-10**12, 10**12))
    if kind == "date":
        return data.draw(st.dates(max_value=date(2100, 12, 31)))
    if kind == "bool":
        return data.draw(st.booleans())
    return data.draw(st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
                             min_size=1, max_size=8))


@settings(deadline=None)
@given(st.sampled_from(("int", "real", "date", "bool", "string")), st.integers(0, 6),
       st.sampled_from((0, 3, DEFAULT_BIAS)), st.sampled_from((251, P_DEFAULT)), st.data())
def test_share_chunks_equal_the_reference(kind, scale, bias, p, data):
    """Negative ints, floats, Decimals and Fractions at scales 0 to 6,
    dates before 1970, bools, multi-byte strings and None: the same
    chunks or the same OutOfRange, and the same decoded value."""
    value = _draw_value(data, kind)
    got = _outcome(lambda: encode_chunks(value, kind, scale=scale, bias=bias, p=p))
    assert got == _outcome(lambda: oracles.share_form(
        oracles.encode_chunks(value, kind, scale=scale, bias=bias, p=p), kind))
    if type(got) is tuple and isinstance(got[0], type):   # both raised
        return
    assert decode(got, kind, scale=scale, bias=bias) \
        == oracles.decode(oracles.chunk_form(got, kind), kind, scale=scale, bias=bias)


@settings(deadline=None)
@given(st.sampled_from(("key", "fk", "int", "real", "date", "bool", "string")),
       st.integers(0, 6), st.data())
def test_order_keys_equal_the_reference(kind, scale, data):
    col = Column("a", kind, scale=scale)
    value = _draw_value(data, kind)
    key = typed_key(value, kind, scale)
    assert key == oracles.order_key(value, col)
    assert type(key) is type(oracles.order_key(value, col))
    assert typed_value(key, kind, scale) == oracles.display_value(key, col)


def test_tree_parser_refuses_a_negative_level():
    """A triple of level -1 is not contiguous with any level; the error
    names the first bad triple in file order."""
    for text, triple in (("0\t0\t5\n1\t0\t5\n-1\t0\t2\n0\t2\t1\n", "-1, 0"),
                         ("0\t0\t5\n0\t2\t1\n-1\t0\t2\n", "0, 2")):
        lines = text.splitlines()
        assert _outcome(_parse_leaves, "t.sigtree", lines) \
            == _outcome(oracles.parse_leaves, "t.sigtree", lines) \
            == (SchemaMismatch, f"t.sigtree: non-contiguous triple ({triple})")
