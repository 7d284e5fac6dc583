"""Randomized equivalence of the share-column kernels.

A number's share is one int and a string's a tuple of chunks, and the
store solves, signs and shares them a column at a time
(`sharing.solve_column`, `store._record_bytes`, `sharing.share_columns`)
and reads an integer-keyed Type II file after one compiled match
(`index._parse_type2`). Each battery checks a kernel against the
per-value loop it replaced in `tests/oracles.py`, which works on chunk
tuples: equal outputs, or the same first error with the same type and
message. The inputs cover random NULL patterns, donors that disagree on
a NULL mark or a string's chunk count, zero shares, tampered shares,
multi-chunk strings and 1-record batches.

Run with `--hypothesis-profile ci` for the derandomized, longer battery.
"""

import json
import warnings
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from fvss import P_DEFAULT, Column, Schema, init_participants
from fvss.errors import InnerSignatureMismatch, MissingShare
from fvss.index import _TYPE2_INTS, _parse_type2
from fvss.store import _record_bytes
from fvss.sharing import (
    group_from_bitmap,
    linear_rows,
    share_coefficients,
    share_columns,
    solve_column,
    storage_bitmaps,
)

from . import oracles

SEED = bytes(range(32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    # (n, t, p): storage groups of 3 and 4 members, a field small enough
    # that zero shares and coincidences turn up
    KMS = [init_participants(n, t, seed=SEED, p=p)
           for n, t, p in ((5, 4, P_DEFAULT), (5, 4, 251), (7, 5, P_DEFAULT))]


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (MissingShare, InnerSignatureMismatch, OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _chunk(p):
    return st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)


# solve_column


@st.composite
def donor_columns(draw):
    """A storage group's donor columns as a reconstruction group reads
    them at K_d or at a left-out provider, each value shared exactly, then
    edited: a NULL mark dropped or added, a share tampered with or zeroed,
    a string's chunk count changed."""
    km = draw(st.sampled_from(KMS))
    n, t, p = km.n, km.t, km.p
    order = draw(st.permutations(range(1, n + 1)))
    sg = frozenset(order[:n - t + 2])
    rg = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:t]))
    outside = [i for i in range(1, n + 1) if i not in rg]
    x = km.x_id(draw(st.sampled_from(outside))) if outside and draw(st.booleans()) else km.x_kd
    rows = linear_rows(sg, rg, x, km)
    string = draw(st.booleans())
    pks = draw(st.lists(st.sampled_from((0, 1)) | st.integers(0, (1 << 64) - 1),
                        min_size=1, max_size=8, unique=True))
    chunk = _chunk(p)
    value = st.lists(chunk, min_size=1, max_size=4).map(tuple) if string else chunk
    values = [draw(st.none() | value) for _ in pks]
    coefs = {i: (a, b) for i, a, b in share_coefficients(group_from_bitmap(
        "".join("1" if i in sg else "0" for i in range(1, n + 1))), km)}
    columns = []
    for i in rows.donors:
        a, b = coefs[i]
        columns.append([
            None if v is None
            else tuple((a * c + b * pk) % p for c in v) if string
            else (a * v + b * pk) % p
            for pk, v in zip(pks, values)
        ])
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(columns))
        k = draw(st.integers(0, len(pks) - 1))
        edit = draw(st.sampled_from(("null", "tamper", "zero", "count")))
        share = column[k]
        if edit == "null":
            column[k] = None if share is not None else (
                draw(st.lists(chunk, min_size=1, max_size=4).map(tuple)) if string
                else draw(chunk))
        elif share is None:
            continue
        elif edit == "count" and string:
            column[k] = share[:-1] if len(share) > 1 and draw(st.booleans()) \
                else share + (draw(chunk),)
        elif string:
            j = draw(st.integers(0, len(share) - 1))
            new = 0 if edit == "zero" else (share[j] + draw(st.integers(1, p - 1))) % p
            column[k] = share[:j] + (new,) + share[j + 1:]
        else:
            column[k] = 0 if edit == "zero" else (share + draw(st.integers(1, p - 1))) % p
    disagreement = draw(st.sampled_from((MissingShare, InnerSignatureMismatch)))
    return km, rows, pks, columns, sg, rg, string, disagreement


@settings(deadline=None)
@given(donor_columns())
def test_solve_column_equals_the_per_value_reference(case):
    km, rows, pks, columns, sg, rg, string, disagreement = case
    kind = "string" if string else "int"
    got = _outcome(solve_column, rows, pks, columns, sg, rg, km, "t", ": refusing to recover",
                   disagreement, string)

    def reference(*args):
        solved = oracles.solve_column(*args)
        return [oracles.share_form(chunks, kind) for chunks in solved]

    chunks = [[oracles.chunk_form(v, kind) for v in column] for column in columns]
    assert got == _outcome(reference, rows, pks, chunks, sg, rg, km, "t",
                           ": refusing to recover", disagreement)


def test_solve_column_raises_for_the_first_failing_pk():
    """A NULL mark that disagrees before a tampered share raises the
    disagreement, and after it the mismatch, as the reference does."""
    km = KMS[0]
    sg, rg, pks = frozenset((1, 2, 3)), (1, 2, 3, 4), [10, 11, 12]
    rows = linear_rows(sg, rg, km.x_kd, km)
    coefs = {i: (a, b) for i, a, b in share_coefficients(group_from_bitmap("11100"), km)}
    for null_at, tamper_at, error in ((0, 1, MissingShare), (1, 0, InnerSignatureMismatch)):
        columns = [[(coefs[i][0] * v + coefs[i][1] * pk) % km.p for pk, v in zip(pks, (5, 6, 7))]
                   for i in rows.donors]
        columns[0][null_at] = None
        columns[1][tamper_at] = (columns[1][tamper_at] + 1) % km.p
        got = _outcome(solve_column, rows, pks, columns, sg, rg, km, "t")
        assert got[0] is error and got[1].startswith("pk 10")
        chunks = [[oracles.chunk_form(v, "int") for v in column] for column in columns]
        assert got == _outcome(oracles.solve_column, rows, pks, chunks, sg, rg, km, "t")


# _record_bytes and share_columns


@st.composite
def batches(draw, huge=False):
    """A schema of fk and data columns in any order and a batch of its
    records as providers store them: distinct pks, fk ints, per data
    column a share or NULL (an int column's int, a string column's tuple
    of one or more chunks). With huge, an integer may not fit 8 bytes."""
    km = draw(st.sampled_from(KMS))
    p = km.p
    kinds = draw(st.lists(st.sampled_from(("fk", "int", "int", "real", "string")), max_size=5))
    schema = Schema("t", (Column("k", "key"),) + tuple(
        Column(f"c{j}", kind) for j, kind in enumerate(kinds)))
    word = st.sampled_from((0, 1)) | st.integers(0, (1 << 64) - 1)
    if huge:
        word = word | st.integers(1 << 64, 1 << 70)
    pks = draw(st.lists(word, min_size=1, max_size=10, unique=True))
    chunk = _chunk(p) | st.integers(1 << 64, 1 << 70) if huge else _chunk(p)
    values = []
    for kind in kinds:
        if kind == "fk":
            share = word
        elif kind == "string":
            share = st.none() | st.lists(chunk, min_size=1, max_size=4).map(tuple)
        else:
            share = st.none() | chunk
        values.append([draw(share) for _ in pks])
    return km, schema, pks, values


@settings(deadline=None)
@given(batches(huge=True))
def test_record_bytes_equal_the_per_value_reference(case):
    """The same signature inputs, or the same OverflowError for an integer
    that does not fit 8 unsigned bytes."""
    _, schema, pks, values = case
    assert _outcome(_record_bytes, schema, pks, values) \
        == _outcome(oracles.record_bytes, schema, pks, oracles.chunk_columns(schema, values))


@settings(deadline=None)
@given(batches(), st.booleans(), st.data())
def test_share_columns_equal_the_per_value_reference(case, placed, data):
    """Records placed by storage_bitmaps or in any storage groups, NULLs,
    zero chunks and multi-chunk strings: every provider gets the same pks
    and shares."""
    km, schema, pks, values = case
    k = km.n - km.t + 2
    if placed:
        bitmaps = storage_bitmaps(pks, (1,) * km.n, range(1, km.n + 1), km)
    else:
        groups = ["".join("1" if i in sg else "0" for i in range(1, km.n + 1))
                  for sg in combinations(range(1, km.n + 1), k)]
        bitmaps = [data.draw(st.sampled_from(groups)) for _ in pks]
    got = share_columns(schema, pks, bitmaps, values, km)
    want = oracles.share_columns(schema, pks, bitmaps, oracles.chunk_columns(schema, values), km)
    assert {i: (mine, oracles.chunk_columns(schema, columns))
            for i, (mine, columns) in got.items()} == want
    assert list(got) == list(want)


# Type II files


_LINE = st.tuples(st.integers(-10**12, 10**12), st.integers(0, (1 << 64) - 1)).map(
    lambda e: f"[{e[0]}, {e[1]}]\n")
_ODD_LINE = st.sampled_from((
    "[007, 3]\n", "[-0, 3]\n", "[0, -0]\n", "[+3, 4]\n", "[ 3, 4]\n", "[3,4]\n", "[3, 4]\r\n",
    "[3, 4] \n", "\n", '["a", 3]\n', '["", 7]\n', "[1.5, 2]\n", "[٣, 4]\n", "[true, 4]\n",
    "[3, 4]", "[3, 1_000]\n", "[1e3, 4]\n",
))


@settings(deadline=None)
@given(st.lists(_LINE | _ODD_LINE, max_size=12))
def test_type2_fast_path_decides_as_the_reference(lines):
    """The compiled match accepts exactly the texts that _type2_text would
    write again byte for byte, and the parse gives the reference's entries
    (or the same error) either way."""
    text = "".join(lines)
    fast = oracles.type2_fast_path(text)
    assert (_TYPE2_INTS.fullmatch(text) is not None) == (fast is not None)

    def reference(text):
        if fast is not None:
            return fast
        lines = [line for line in text.splitlines() if line]
        return [(key, pk) for key, pk in json.loads("[" + ",".join(lines) + "]")]

    assert _outcome(_parse_type2, text) == _outcome(reference, text)
